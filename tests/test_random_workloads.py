"""Gateway verdicts, complete mediation, the pacer grid, determinism and
noninterference on random topologies and workloads.

Each example draws 2-4 users, private cores or a shared core under a
reservation or demand scheduler, with or without a pacer, and random grants
and jobs. Every gateway decision is checked against the tag-by-tag oracle
in ``tests/reference.py``, which reads the grants as a plain list of
``Capability`` values, so a run checks ``CapabilitySet`` and
``check_send`` together. The monitor writes one record per decision, the
delivery it allows or the denial, and every send is mediated: each
``MsgSend`` is directly followed by the decision at its ``to`` for its
message, and each decision directly follows that send; at a gateway, its
pacer's release stands in for the send, so the tick that releases a
result delivers it. A pacer that defers the delivery to an event of its
own is caught by ``test_a_delivery_apart_from_its_release_is_caught``; a
monitor that delivers what it denies or records no denial, and a send
that writes no ``MsgSend``, by ``test_an_unmediated_flow_is_caught``. With a
pacer, releases and deliveries land on its grid with timing at most its
frequency. Two runs give the same bytes, and without a demand scheduler
the first user's gateway records do not change when every other user's
jobs are drawn again.

Sleeping clocks are checked against polling ones: a run in which every
clock ticks from t = 0 and re-arms on every one of its ticks, as the
clocks did before they could sleep, gives the same records plus the
scheduler's demand offers and control messages at ticks when its core held
no job. So the scheduler speaks at exactly the ticks when its core holds a
job; a scheduler that judges its work before the slice it names runs, and
a scheduler's clock armed at t = 0 with no job there, are caught by
``test_a_scheduler_that_ticks_without_work_is_caught``. And a run forked
with ``copy.deepcopy`` at any tick finishes as a fresh run does, without
sharing state with the run it was forked from.

A core runs at most one slice per tick: no core entity writes two
``SliceStart`` records at one tick. Nothing in a core guards this; the
clocks and the scheduler call each core once per tick, and a scheduler
that runs the slice it names twice is caught by
``test_a_core_that_runs_two_slices_in_a_tick_is_caught``.

A slice is one ``SliceStart`` record, whose ``remaining`` is the work left
before it, so the records account for every unit of work: each job's
``SliceStart`` records read ``remaining`` = work, work - 1, ... at strictly
increasing ticks, at most work of them, and the job's ``JobComplete`` exists
exactly when one reads ``"1"``, at that tick. A core that charges two units
of work in a slice is caught by ``test_a_core_that_miscounts_work_is_caught``.
Every record carries a ``Label``, and every detail value is a ``str``.

The reservation scheduler is blind to demand: every control message it
sends at tick t names ``rotation[t % n]``, whatever the workload. A
scheduler that skips users with empty slots breaks that property, and
``test_a_rotation_that_skips_empty_slots_is_caught`` keeps it caught.
"""

import contextlib
import copy
import dataclasses
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from reference import FREQ_POOL, oracle_flow_allowed
from tifcsim.entities import (Clock, ComputeCore, JobSpec, Pacer, ReservationScheduler,
                              Scheduler, pacer_period)
from tifcsim import scenarios
from tifcsim.kernel import Engine, TraceKind, trace_to_jsonl
from tifcsim.labels import EMPTY_CAPS, INFINITY, Capability, Frequency, Label
from tifcsim.monitor import Monitor, check_send
from tifcsim.scenarios import ScenarioConfig, SchedulerSpec, run_scenario, wire

HORIZON = 40
# The records of a monitor decision: a delivery is its allow.
DECISIONS = (TraceKind.MSG_RECV, TraceKind.MONITOR_DENY)


def jobs_of(owners):
    return st.lists(st.builds(
        JobSpec, owner=st.sampled_from(owners), work=st.integers(1, 6),
        payload=st.text("01", max_size=4), arrival=st.integers(0, HORIZON // 2)),
        max_size=8)


@st.composite
def configs(draw, kinds=("private", "reservation", "demand")):
    users = tuple("ABCD"[:draw(st.integers(2, 4))])
    kind = draw(st.sampled_from(kinds))
    scheduler = None if kind == "private" else SchedulerSpec(
        kind, tuple(draw(st.permutations(users))))
    pacer = draw(st.none() | st.builds(Frequency, st.just(1), st.integers(1, 5)))
    grants = {u: tuple(draw(st.lists(st.builds(
        Capability, st.sampled_from(users), st.sampled_from(FREQ_POOL)), max_size=3)))
        for u in users}
    return ScenarioConfig(users=users, cores="shared" if scheduler else "private",
                          scheduler=scheduler, pacer=pacer, grants=grants,
                          jobs=tuple(draw(jobs_of(users))), horizon=HORIZON)


def is_hand_off(hand_off, decision):
    """``hand_off`` passes the message that ``decision`` is about to the
    deciding entity, at the same tick: a ``MsgSend`` to it or, at a gateway,
    its pacer's release. Either may be ``None``, past an end of the trace."""
    return (hand_off is not None and decision is not None and decision.kind in DECISIONS
            and hand_off.t == decision.t
            and hand_off.detail.get("msg") == decision.detail["msg"]
            and ((hand_off.kind is TraceKind.MSG_SEND
                  and hand_off.detail["to"] == decision.entity)
                 or (hand_off.kind is TraceKind.PACER_RELEASE
                     and decision.entity.startswith("gw_")
                     and hand_off.entity == "pacer_" + decision.entity[len("gw_"):])))


def completely_mediated(trace):
    """Each decision directly follows its message's hand-off, and each
    hand-off, a ``MsgSend`` or a pacer's release, is directly followed by
    the decision at its receiver for its msg."""
    for before, r in zip([None, *trace], trace):
        if r.kind in DECISIONS:
            assert is_hand_off(before, r), f"decided apart from its hand-off: {r}"
    for r, after in zip(trace, [*trace[1:], None]):
        if r.kind in (TraceKind.MSG_SEND, TraceKind.PACER_RELEASE):
            assert is_hand_off(r, after), f"handed off without a decision: {r}"


def gateway_view(trace, user):
    return [r.to_json() for r in trace if r.entity == f"gw_{user}"]


def one_slice_per_core_per_tick(trace):
    starts = [(r.entity, r.t) for r in trace if r.kind is TraceKind.SLICE_START]
    assert len(set(starts)) == len(starts), f"two slices in one tick: {starts}"


def slices_count_down_the_work(trace):
    """Each job's ``SliceStart`` records read ``remaining`` = work, work - 1,
    ... at strictly increasing ticks, at most work of them; its
    ``JobComplete`` exists exactly when one reads ``"1"``, at that tick."""
    work = {r.detail["job"]: int(r.detail["work"])
            for r in trace if r.kind is TraceKind.JOB_ARRIVE}
    slices = {job: [] for job in work}
    done = {}
    for r in trace:
        if r.kind is TraceKind.SLICE_START:
            slices[r.detail["job"]].append((r.t, r.detail["remaining"]))
        elif r.kind is TraceKind.JOB_COMPLETE:
            assert r.detail["job"] not in done, f"completed twice: {r}"
            done[r.detail["job"]] = r.t
    for job, w in work.items():
        ticks = [t for t, _ in slices[job]]
        read = [remaining for _, remaining in slices[job]]
        assert len(read) <= w and read == [str(w - i) for i in range(len(read))], \
            f"work miscounted: {job} of work {w} read {read}"
        assert ticks == sorted(set(ticks)), f"slices out of order: {job} at {ticks}"
        last = [t for t, remaining in slices[job] if remaining == "1"]
        assert done.get(job) == (last[0] if last else None), \
            f"work miscounted: {job} completed at {done.get(job)}, last slice {last}"


# Reproducible and cheap: fixed examples, no database, no shrinking.
PLANTED = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                   phases=(Phase.explicit, Phase.generate))


def keeps_its_promises(cfg, data):
    trace = run_scenario(cfg).trace

    for r in trace:
        assert isinstance(r.label, Label), r
        assert all(type(v) is str for v in r.detail.values()), r

    for user in cfg.users:
        stamp = Label((user,), {user: INFINITY})
        grants = list(cfg.grants[user])
        for r in trace:
            if r.entity == f"gw_{user}" and r.kind in DECISIONS:
                allowed = r.kind is not TraceKind.MONITOR_DENY
                assert oracle_flow_allowed(r.label, grants, stamp) is allowed, r

    one_slice_per_core_per_tick(trace)

    slices_count_down_the_work(trace)

    completely_mediated(trace)

    if cfg.pacer is not None:
        period = pacer_period(cfg.pacer)
        for r in trace:
            if r.kind is TraceKind.PACER_RELEASE or (
                    r.kind in DECISIONS and r.entity.startswith("gw_")):
                assert r.t > 0 and r.t % period == 0, r
                assert all(f <= cfg.pacer for f in r.label.timing.values()), r

    assert trace_to_jsonl(run_scenario(cfg).trace) == trace_to_jsonl(trace)

    if not cfg.demand_scheduled:
        first, others = cfg.users[0], cfg.users[1:]
        jobs = [j for j in cfg.jobs if j.owner == first] + data.draw(jobs_of(others))
        redrawn = run_scenario(dataclasses.replace(cfg, jobs=tuple(jobs))).trace
        assert gateway_view(redrawn, first) == gateway_view(trace, first)


@settings(max_examples=100, deadline=None)
@given(cfg=configs(), data=st.data())
def test_random_topologies_keep_their_promises(cfg, data):
    keeps_its_promises(cfg, data)


def delivers_every_verdict():
    """A planted fault: the monitor writes the delivery whatever its
    verdict, so a denied flow reads as delivered."""
    def decide(self, sim, at, src, dst, src_label, caps, dst_label, msg, **received):
        sim.emit(TraceKind.MSG_RECV, at, label=src_label, msg=msg, **received)
        return check_send(src_label, caps, dst_label)

    return mock.patch.object(Monitor, "decide", decide)


def drops_denials():
    """A planted fault: the monitor writes no record of a denial."""
    def decide(self, sim, at, src, dst, src_label, caps, dst_label, msg, **received):
        decision = check_send(src_label, caps, dst_label)
        if decision.allowed:
            sim.emit(TraceKind.MSG_RECV, at, label=src_label, msg=msg, **received)
        return decision

    return mock.patch.object(Monitor, "decide", decide)


def sends_unrecorded():
    """A planted fault: the checked send decides without its ``MsgSend``."""
    def send(self, sim, src, dst, label, msg, sent=None, received=None):
        return self.decide(sim, at=dst.id, src=src.id, dst=dst.id, src_label=label,
                           caps=EMPTY_CAPS, dst_label=dst.clearance, msg=msg,
                           **(received or {}))

    return mock.patch.object(Monitor, "send", send)


@pytest.mark.parametrize("fault", [delivers_every_verdict, drops_denials, sends_unrecorded],
                         ids=lambda fault: fault.__name__)
def test_an_unmediated_flow_is_caught(fault):
    check = PLANTED(given(cfg=configs(), data=st.data())(keeps_its_promises))
    with fault():
        with pytest.raises(AssertionError):
            check()


@contextlib.contextmanager
def polling():
    """Patch every clock to be armed at t = 0 as it is added, and to wake
    itself for its next tick whenever a tick put it to sleep, so each clock
    ticks on every one of its ticks."""
    add, handle = Engine.add, Clock.handle

    def armed(self, entity):
        add(self, entity)
        if isinstance(entity, Clock):
            entity.wake(self, 0)
        return entity

    def tick(self, sim):
        handle(self, sim)
        self.wake(sim, self.next_tick(sim.now))

    with mock.patch.object(Engine, "add", armed), mock.patch.object(Clock, "handle", tick):
        yield


def is_scheduler_message(record):
    """A record of a demand offer or a control message."""
    return record.detail.get("msg", "").startswith(("demand@", "ctl@"))


def held_ticks(trace):
    """The ticks at whose scheduler tick a core held a job: from each
    job's arrival to the tick of its last slice, or to the horizon."""
    done = {r.detail["job"]: r.t for r in trace if r.kind is TraceKind.JOB_COMPLETE}
    return {t for r in trace if r.kind is TraceKind.JOB_ARRIVE
            for t in range(r.t, done.get(r.detail["job"], HORIZON) + 1)}


def sleeps_exactly_while_idle(cfg):
    trace = run_scenario(cfg).trace
    lines = [r.to_json() for r in trace]
    with polling():
        polled = run_scenario(cfg).trace
    kept, dropped = 0, []
    for r in polled:
        if kept < len(lines) and r.to_json() == lines[kept]:
            kept += 1
        else:
            dropped.append(r.to_json())
    assert kept == len(lines)  # the run's records, in order, are the polled run's
    # What is dropped is exactly the scheduler's messages at the ticks when
    # its core held no job.
    held = held_ticks(polled)
    assert dropped == [r.to_json() for r in polled
                       if is_scheduler_message(r) and r.t not in held]


@settings(max_examples=100, deadline=None)
@given(cfg=configs())
def test_sleeping_clocks_drop_only_idle_scheduler_ticks(cfg):
    sleeps_exactly_while_idle(cfg)


def judged_before_the_slice():
    """A planted fault: the scheduler judges its work as its tick begins,
    before the slice it names runs, so it ticks once more after the last."""
    def handle(self, sim):
        user = self.decide(sim)
        if user is None:
            return False
        busy = any(self.core.slots.values())
        self.send_control(sim, user)
        return busy

    return mock.patch.object(Scheduler, "handle", handle)


def armed_at_zero():
    """A planted fault: ``wire`` arms the scheduler's clock at t = 0,
    whether or not a job arrives then."""
    wire = scenarios.wire

    def armed(cfg):
        engine, monitor = wire(cfg)
        if cfg.scheduler is not None:
            engine.entity("clock_sched").wake(engine, 0)
        return engine, monitor

    return mock.patch.object(scenarios, "wire", armed)


@pytest.mark.parametrize("fault", [judged_before_the_slice, armed_at_zero],
                         ids=lambda fault: fault.__name__)
def test_a_scheduler_that_ticks_without_work_is_caught(fault):
    check = PLANTED(given(cfg=configs(kinds=("reservation", "demand")))(
        sleeps_exactly_while_idle))
    with fault():
        with pytest.raises(AssertionError):
            check()


def controls_follow_the_rotation(cfg):
    rotation = cfg.scheduler.users
    for r in run_scenario(cfg).trace:
        if r.kind is TraceKind.MSG_SEND and r.detail["msg"].startswith("ctl@"):
            assert r.detail["user"] == rotation[r.t % len(rotation)], r


@settings(max_examples=100, deadline=None)
@given(cfg=configs(kinds=("reservation",)))
def test_reservation_controls_follow_the_rotation(cfg):
    controls_follow_the_rotation(cfg)


def skip_empty_slots(self, sim):
    """A planted fault: the first user with queued work from the rotation's
    place at this tick on, which reads demand."""
    n = len(self.rotation)
    turn = [self.rotation[(sim.now + i) % n] for i in range(n)]
    return next((u for u in turn if self.core.slots[u]), turn[0])


def test_a_rotation_that_skips_empty_slots_is_caught():
    check = PLANTED(given(cfg=configs(kinds=("reservation",)))(controls_follow_the_rotation))
    with mock.patch.object(ReservationScheduler, "decide", skip_empty_slots):
        with pytest.raises(AssertionError):
            check()


def slices_twice():
    """A planted fault: the scheduler runs the slice it names twice."""
    send_control = Scheduler.send_control

    def twice(self, sim, user):
        send_control(self, sim, user)
        self.core.handle(sim, user)

    return mock.patch.object(Scheduler, "send_control", twice)


def runs_one_slice_per_tick(cfg):
    one_slice_per_core_per_tick(run_scenario(cfg).trace)


def test_a_core_that_runs_two_slices_in_a_tick_is_caught():
    check = PLANTED(given(cfg=configs(kinds=("reservation", "demand")))(
        runs_one_slice_per_tick))
    with slices_twice():
        with pytest.raises(AssertionError, match="two slices in one tick"):
            check()


def charges_two_units():
    """A planted fault: a slice charges two units of its job's work where
    two are left, one of them before its record is written."""
    handle = ComputeCore.handle

    def charge(self, sim, user):
        queue = self.slots[user]
        if queue and queue[0].remaining > 1:
            queue[0].remaining -= 1
        return handle(self, sim, user)

    return mock.patch.object(ComputeCore, "handle", charge)


def runs_count_down_the_work(cfg):
    slices_count_down_the_work(run_scenario(cfg).trace)


def test_a_core_that_miscounts_work_is_caught():
    check = PLANTED(given(cfg=configs())(runs_count_down_the_work))
    with charges_two_units():
        with pytest.raises(AssertionError, match="work miscounted"):
            check()


def deferred_deliveries():
    """A planted fault: a pacer hands each release to its gateway as a
    same-tick engine event of its own, not inside its tick."""
    handle = Pacer.handle

    def release(self, sim):
        gateway = self.downstream
        self.downstream = mock.Mock(
            handle=lambda sim, msg: sim.schedule(sim.now, gateway.handle, msg))
        try:
            return handle(self, sim)
        finally:
            self.downstream = gateway

    return mock.patch.object(Pacer, "handle", release)


def runs_completely_mediated(cfg):
    completely_mediated(run_scenario(cfg).trace)


def test_a_delivery_apart_from_its_release_is_caught():
    check = PLANTED(given(cfg=configs())(runs_completely_mediated))
    with deferred_deliveries():
        with pytest.raises(AssertionError, match="decided apart from its hand-off"):
            check()


@settings(max_examples=100, deadline=None)
@given(cfg=configs(), fork_at=st.integers(0, HORIZON))
def test_a_forked_run_finishes_like_a_fresh_one(cfg, fork_at):
    fresh = trace_to_jsonl(run_scenario(cfg).trace)
    engine, _ = wire(cfg)
    prefix = trace_to_jsonl(engine.run_until(fork_at))
    fork = copy.deepcopy(engine)
    # The original finishes first: a fork sharing its queue, clocks, slots
    # or trace would find them already advanced.
    assert trace_to_jsonl(engine.run_until(cfg.horizon)) == fresh
    assert trace_to_jsonl(fork.trace) == prefix
    assert trace_to_jsonl(fork.run_until(cfg.horizon)) == fresh
