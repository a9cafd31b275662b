import json

import pytest

from tifcsim.kernel import (
    Engine,
    Entity,
    Phase,
    SchedulingError,
    TraceKind,
    TraceRecord,
    trace_from_jsonl,
    trace_to_jsonl,
)
from tifcsim.labels import Label


class Probe(Entity):
    """Records its activations and optionally re-schedules."""

    phase = Phase.CORE

    def __init__(self, entity_id, plan=None):
        super().__init__(entity_id)
        self.seen = []
        self.plan = plan or {}

    def handle(self, sim, *args):
        self.seen.append((sim.now, args))
        sim.emit(TraceKind.MSG_RECV, self.id, msg=str(args[0]))
        for delay, next_args in self.plan.get(args[0], ()):
            sim.schedule(sim.now + delay, self.handle, *next_args)


def test_same_time_runs_in_seq_order():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(3, p.handle, "first")
    sim.schedule(3, p.handle, "second")
    sim.run_until(5)
    assert [x[1][0] for x in p.seen] == ["first", "second"]


def test_phases_break_ties_before_seq():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(1, p.handle, "late", phase=Phase.GATEWAY)
    sim.schedule(1, p.handle, "early", phase=Phase.PACER)
    sim.run_until(1)
    assert [x[1][0] for x in p.seen] == ["early", "late"]


def test_schedule_into_past_is_fatal():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(2, p.handle, "x")
    sim.run_until(4)
    with pytest.raises(SchedulingError):
        sim.schedule(1, p.handle, "y")


def test_unknown_entity_rejected():
    sim = Engine()
    p = sim.add(Probe("p"))
    # never added; the second shares the id of an added entity
    for stranger in (Probe("ghost"), Probe("p")):
        with pytest.raises(SchedulingError):
            sim.schedule(0, stranger.handle, "x")
    assert sim.run_until(5) == [] and p.seen == []


def test_handler_arguments_arrive_as_scheduled():
    sim = Engine()
    p = sim.add(Probe("p"))
    spec = object()
    sim.schedule(0, p.handle, "a", spec, None)
    sim.schedule(1, p.handle, "b")
    sim.run_until(1)
    assert p.seen == [(0, ("a", spec, None)), (1, ("b",))]
    assert p.seen[0][1][1] is spec


@pytest.mark.parametrize("handler", [
    lambda sim: None,
    print,
    Probe.handle,  # unbound: no entity to run on
], ids=["lambda", "builtin", "unbound-method"])
def test_non_method_handler_rejected_at_schedule_time(handler):
    sim = Engine()
    sim.add(Probe("p"))
    with pytest.raises(SchedulingError):
        sim.schedule(0, handler, "x")
    assert sim.run_until(5) == []


def test_duplicate_entity_rejected():
    sim = Engine()
    sim.add(Probe("p"))
    with pytest.raises(SchedulingError):
        sim.add(Probe("p"))


def test_empty_queue_gives_empty_trace():
    sim = Engine()
    assert sim.run_until(100) == []
    assert sim.now == 100


def test_run_until_idempotent_at_same_horizon():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(1, p.handle, "x")
    first = sim.run_until(10)
    second = sim.run_until(10)
    assert first == second
    assert len(p.seen) == 1


def test_schedule_during_run_is_deterministic():
    def make():
        sim = Engine()
        p = sim.add(Probe("p", plan={
            "seed": ((0, ("child-a",)), (2, ("child-b",))),
            "child-a": ((1, ("grandchild",)),),
        }))
        sim.schedule(0, p.handle, "seed")
        return trace_to_jsonl(sim.run_until(10))

    assert make() == make()


def test_no_time_regression_during_run():
    sim = Engine()
    p = sim.add(Probe("p", plan={"seed": ((0, ("a",)), (3, ("b",)), (1, ("c",)))}))
    sim.schedule(0, p.handle, "seed")
    trace = sim.run_until(10)
    times = [r.t for r in trace]
    assert times == sorted(times)


def test_record_json_roundtrip():
    rec = TraceRecord(5, TraceKind.PACER_RELEASE, "pacer_A",
                      label=Label.parse("{A/A:1/5}"), detail={"msg": "res_A0"})
    line = rec.to_json()
    assert TraceRecord.from_json(line) == rec
    obj = json.loads(line)
    assert obj["kind"] == "PacerRelease"
    assert obj["label"] == "{A/A:1/5}"


def test_record_json_no_label():
    rec = TraceRecord(0, TraceKind.MSG_SEND, "core")
    assert TraceRecord.from_json(rec.to_json()) == rec


def test_detail_values_stringified():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(0, p.handle, "x")
    sim.run_until(0)
    rec = sim.emit(TraceKind.SLICE_START, "core", job="A0", remaining=3)
    assert rec.detail["remaining"] == "3"


def test_jsonl_helpers_roundtrip():
    sim = Engine()
    p = sim.add(Probe("p"))
    sim.schedule(0, p.handle, "x")
    trace = sim.run_until(1)
    assert trace_from_jsonl(trace_to_jsonl(trace)) == trace
