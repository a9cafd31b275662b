"""Idle time is free: a clock ticks at t if and only if its group holds
work at t.

Every clock, the schedulers', the private cores' and the pacers', starts
asleep, is woken when work arrives and stops re-arming after the tick that
ends its group's work, so a run's cost and trace do not grow with idle
ticks. A scheduler reports whether its core still holds a job after the
slice it names has run. A core's slice is never an engine event of its
own: its clock or its scheduler runs it. Nor is a delivery: every event is
a clock tick or a job arrival, and after ``wire`` only the arrivals are
pending. ``test_random_workloads`` checks the traces against clocks that
never sleep.
"""

import dataclasses
from pathlib import Path
from unittest import mock

import pytest

from tifcsim.entities import Clock, Gateway, Message, Pacer
from tifcsim.kernel import Engine, TraceKind, trace_from_jsonl, trace_to_jsonl
from tifcsim.labels import Frequency, Label
from tifcsim.leakage import CovertExperiment, build_config
from tifcsim.monitor import Monitor
from tifcsim.scenarios import JobSpec, build_scenario, run_scenario, wire

F15 = Frequency(1, 5)
GOLDEN_STATMUX = Path(__file__).resolve().parent / "data" / "statmux.jsonl"


def paced_trial():
    exp = CovertExperiment(trials=1)
    return build_config(exp, exp.message_for(exp.seed))


CONFIGS = {
    "dedicated": build_scenario("dedicated", freq=F15),
    "statmux": build_scenario("statmux", freq=F15),
    "paced_trial": paced_trial(),
    "reservation": build_scenario("reservation", freq=F15),
}


def deliveries(trace):
    return [r for r in trace if r.kind is TraceKind.MSG_RECV and r.entity.startswith("gw_")]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_idle_horizon_changes_nothing(name):
    cfg = CONFIGS[name]
    trace = run_scenario(cfg).trace
    longer = run_scenario(dataclasses.replace(cfg, horizon=100 * cfg.horizon)).trace
    assert trace_to_jsonl(longer) == trace_to_jsonl(trace)

    # Every clock is asleep once the last delivery's tick has run.
    engine, _ = wire(cfg)
    engine.run_until(deliveries(trace)[-1].t)
    assert engine._queue == []
    assert trace_to_jsonl(engine.trace) == trace_to_jsonl(trace)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_core_slice_is_an_event_of_its_own(name):
    cfg = CONFIGS[name]
    engine, _ = wire(cfg)
    # After wiring, every clock sleeps: one arrival per job is pending.
    pending = [handler for _, _, _, handler, _ in engine._queue]
    assert len(pending) == len(cfg.jobs)
    assert {h.__func__ for h in pending} == {Gateway.ingress}

    schedule, handlers = Engine.schedule, []

    def recorded(self, time, handler, *args):
        handlers.append(handler)
        schedule(self, time, handler, *args)

    with mock.patch.object(Engine, "schedule", recorded):
        trace = run_scenario(cfg).trace
    assert any(r.kind is TraceKind.SLICE_START for r in trace)
    # no ComputeCore.handle, and no Gateway.handle either
    assert {h.__func__ for h in handlers} == {Clock.handle, Gateway.ingress}


def test_reservation_controls_are_exactly_the_busy_ticks():
    # rotation (A, B): t=0 A runs, t=1 B is idle, t=2 B arrives and A
    # runs, t=3 B runs, t=4 A completes, t=5 B completes and the clock
    # sleeps; t=20 A arrives and completes at once.
    cfg = build_scenario("reservation", horizon=50, jobs=[
        JobSpec("A", 3, "1", 0), JobSpec("B", 2, "0", 2), JobSpec("A", 1, "1", 20)])
    controls = [(r.t, r.detail["user"]) for r in run_scenario(cfg).trace
                if r.kind is TraceKind.MSG_SEND and r.detail["msg"].startswith("ctl@")]
    assert controls == [(t, "AB"[t % 2]) for t in [*range(6), 20]]


def test_golden_keeps_the_first_demand_offer():
    trace = trace_from_jsonl(GOLDEN_STATMUX.read_text(encoding="utf-8"))
    sched = [r for r in trace if "sched" in (r.entity, r.detail.get("to"))]
    assert [(r.kind, r.entity, r.t, r.detail["msg"]) for r in sched[:2]] == [
        (TraceKind.MSG_SEND, "core", 0, "demand@0"),
        (TraceKind.MSG_RECV, "sched", 0, "demand@0"),
    ]


def test_arrival_wakes_the_demand_scheduler():
    cfg = build_scenario("statmux", freq=F15, jobs=[JobSpec("A", 2, "1", 50)])
    trace = run_scenario(cfg).trace
    offers = [r.t for r in trace if r.kind is TraceKind.MSG_SEND
              and r.detail["msg"].startswith("demand@")]
    controls = [r.t for r in trace if r.kind is TraceKind.MSG_SEND
                and r.detail["msg"].startswith("ctl@")]
    # nothing is offered before the arrival wakes the scheduler, which
    # sleeps again after the job's last slice
    assert offers == [50, 51]
    assert controls == [50, 51]
    assert [r.t for r in deliveries(trace)] == [55]


def test_a_woken_pacer_fires_on_its_next_multiple():
    sim = Engine()
    gw = sim.add(Gateway("A", Monitor()))
    pacer = sim.add(Pacer("A", F15, ("A",), gw))
    clock = sim.add(Clock("clock", [(pacer, ())], 5))
    clock.wake(sim, clock.period)
    sim.run_until(5)
    assert clock.asleep  # the first tick found nothing to release
    pacer.queue.append(Message("r", Label.parse("{A/A:inf}"), "res_A0"))
    clock.wake(sim, clock.next_tick(sim.now))  # after its own phase at t = 5
    trace = sim.run_until(100)
    assert [r.t for r in trace if r.kind is TraceKind.PACER_RELEASE] == [10]
    assert clock.asleep and sim._queue == []
