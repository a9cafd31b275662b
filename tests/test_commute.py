"""Deterministic execution: same-tick events on distinct entities commute.

The engine runs events in ``(time, phase, seq)`` order, and ``seq`` is
scheduling order, so the order among same-phase events on distinct
entities (job arrivals at two gateways) is an accident of how ``wire``
was written, and so is the wiring order in which one clock's tick calls its
members (two pacers, two private cores). ``InterleavingEngine`` dispatches
each ``(time, phase)`` batch in another order: the events of distinct
entities interleaved as an injected random source decides, each entity's
own events in FIFO order. The same source shuffles each clock's members
before each of its ticks. Every gateway must then see the same records in
the same order, every entity the same multiset of records, and every
leakage report must be unchanged. Only the order of one entity's records
from distinct senders may move: same-tick job receipts from two gateways at
a shared core.
"""

import contextlib
import functools
import heapq
from collections import Counter, deque
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tifcsim.entities import Clock, JobSpec
from tifcsim.kernel import Engine
from tifcsim.labels import Frequency
from tifcsim.leakage import MESSAGE_BITS, CovertExperiment, measure, straddle_experiment
from tifcsim.scenarios import build_scenario, run_scenario

HORIZON = 40


class InterleavingEngine(Engine):
    """An engine whose same-``(time, phase)`` events on distinct entities
    run in the order ``rng.shuffle`` gives; one entity's events keep FIFO."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def run_until(self, t_end):
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            batch = queue[0][:2]
            lanes = {}
            while queue and queue[0][:2] == batch:
                event = heapq.heappop(queue)
                lanes.setdefault(event[3].__self__.id, deque()).append(event)
            self._now = batch[0]
            order = [lane for lane, events in lanes.items() for _ in events]
            self.rng.shuffle(order)
            for lane in order:
                _, _, _, handler, args = lanes[lane].popleft()
                handler(self, *args)
        self._now = max(self._now, t_end)
        return self.trace


@contextlib.contextmanager
def interleaved(rng):
    """Patch every scenario run, leakage trials included, onto ``rng``:
    its engine's batches and its clocks' member orders."""
    handle = Clock.handle

    def shuffled(clock, sim):
        members = list(clock.members)
        rng.shuffle(members)
        clock.members = tuple(members)
        handle(clock, sim)

    with mock.patch("tifcsim.scenarios.Engine", lambda: InterleavingEngine(rng)), \
            mock.patch.object(Clock, "handle", shuffled):
        yield


def by_entity(trace):
    lines = {}
    for record in trace:
        lines.setdefault(record.entity, []).append(record.to_json())
    return lines


def assert_commutes(plain, shuffled, users):
    plain, shuffled = by_entity(plain), by_entity(shuffled)
    for user in users:
        assert shuffled.get(f"gw_{user}") == plain.get(f"gw_{user}")
    assert {e: Counter(lines) for e, lines in shuffled.items()} == \
        {e: Counter(lines) for e, lines in plain.items()}


@st.composite
def scenarios(draw):
    users = "ABCD"[:draw(st.integers(2, 4))]
    jobs = draw(st.lists(st.builds(
        JobSpec, owner=st.sampled_from(users), work=st.integers(1, 6),
        payload=st.text("01", max_size=4), arrival=st.integers(0, HORIZON // 2)),
        max_size=12))
    kind = draw(st.sampled_from(("dedicated", "reservation", "statmux")))
    freq = Frequency(1, draw(st.integers(1, 5))) if kind == "statmux" else None
    return build_scenario(kind, users=users, freq=freq, jobs=jobs, horizon=HORIZON)


@settings(max_examples=100, deadline=None)
@given(cfg=scenarios(), rng=st.randoms(use_true_random=False))
def test_same_tick_events_on_distinct_entities_commute(cfg, rng):
    plain = run_scenario(cfg).trace
    with interleaved(rng):
        shuffled = run_scenario(cfg).trace
    assert_commutes(plain, shuffled, cfg.users)


class Reversed:
    def shuffle(self, order):
        order.reverse()


def test_interleaving_moves_only_shared_core_receipts():
    # A and B submit at t = 0: both receipts land at the shared core in one
    # batch, so reversing it reorders the core's records and nothing else.
    jobs = (JobSpec("A", 2, "1"), JobSpec("B", 2, "0"))
    cfg = build_scenario("statmux", freq=Frequency(1, 5), jobs=jobs, horizon=20)
    plain = run_scenario(cfg).trace
    with interleaved(Reversed()):
        shuffled = run_scenario(cfg).trace
    assert_commutes(plain, shuffled, cfg.users)
    moved = {e for e, lines in by_entity(shuffled).items()
             if lines != by_entity(plain)[e]}
    assert moved == {"core"}


# The paced default, the straddle and the unpaced ablation, each with a
# horizon of its 64 frames plus one period.
EXPERIMENTS = (CovertExperiment(trials=1, horizon=MESSAGE_BITS * 5 + 5),
               straddle_experiment(trials=1, horizon=MESSAGE_BITS * 10 + 5),
               CovertExperiment(paced=False, trials=1, horizon=MESSAGE_BITS * 5 + 5))


@functools.lru_cache(maxsize=1)
def plain_reports():
    return [measure(exp).to_json_obj() for exp in EXPERIMENTS]


@settings(max_examples=3, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_leakage_reports_do_not_depend_on_same_tick_order(rng):
    with interleaved(rng):
        assert [measure(exp).to_json_obj() for exp in EXPERIMENTS] == plain_reports()
