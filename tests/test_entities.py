import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tifcsim.entities import (
    Clock,
    ComputeCore,
    Gateway,
    Job,
    JobSpec,
    Message,
    Pacer,
    Scheduler,
    check_process_label,
    offer_demand,
    pacer_period,
    result_payload,
)
from tifcsim.kernel import ConfigError, Engine, SimError, TraceKind, trace_to_jsonl
from tifcsim.labels import INFINITY, Capability, CapabilitySet, Frequency, Label
from tifcsim.monitor import Monitor, apply_receive
from tifcsim.scenarios import (
    ScenarioConfig,
    SchedulerSpec,
    build_scenario,
    run_scenario,
    wire,
)

F15 = Frequency(1, 5)
A_LABEL = Label(("A",), {"A": INFINITY})


def denials(trace):
    return [r for r in trace if r.kind is TraceKind.MONITOR_DENY]


def make_core(users=("A",)):
    sim = Engine()
    monitor = Monitor()
    core = sim.add(ComputeCore("core", users, monitor))
    # Awake but never armed: an arrival wakes nothing, and each test runs
    # the core's slices itself. A clock starts asleep, so hold it awake.
    sim.add(Clock("clock", [(core, (users[0],))])).asleep = False
    gws = {}
    for u in users:
        gw = sim.add(Gateway(u, monitor))
        gw.core = core
        core.routes[u] = gw
        gws[u] = gw
    return sim, monitor, core, gws


def job(work=3, bits="1010", owner="A", jid="A0"):
    return Job(jid, owner, work, bits, Label((owner,), {owner: INFINITY}))


# -- jobs ---------------------------------------------------------------------


def test_job_process_label_invariant_enforced():
    with pytest.raises(SimError):
        Job("A0", "A", 1, "1", Label(("A",), {}))
    with pytest.raises(SimError):
        check_process_label(Label(("A",), {"A": F15}))


def test_result_payload_pure_function_of_bits():
    assert result_payload("1010") == result_payload("1010")
    assert result_payload("1010") != result_payload("1011")


# -- compute core ----------------------------------------------------------------


def slice_at_times(times, work=3):
    sim, monitor, core, _ = make_core()
    core.slots["A"].append(job(work=work))
    for t in times:
        sim.run_until(t)
        core.handle(sim, "A")
    trace = sim.run_until(times[-1] + 1)
    done = [r for r in trace if r.kind is TraceKind.JOB_COMPLETE]
    return done


def test_result_independent_of_slice_interleaving():
    a = slice_at_times([0, 2, 4])
    b = slice_at_times([1, 2, 9])
    assert len(a) == len(b) == 1
    assert a[0].detail["result"] == b[0].detail["result"]
    assert a[0].t == 4 and b[0].t == 9


def test_empty_slot_idles_without_state_change():
    sim, _, core, _ = make_core()
    core.handle(sim, "A")
    assert sim.run_until(1) == []


def test_control_taint_is_timing_only_and_recorded():
    sim, monitor, core, _ = make_core(users=("A", "B"))
    core.slots["A"].append(job())
    sched_label = Label(("A", "B"), {"A": INFINITY, "B": INFINITY})
    sched = sim.add(Scheduler("sched", core, monitor, sched_label))
    sched.send_control(sim, "A")
    j = core.slots["A"][0]
    assert j.label == Label.parse("{A/A:inf,B:inf}")
    trace = sim.run_until(0)
    assert [(r.kind, r.entity) for r in trace] == [
        (TraceKind.MSG_SEND, "sched"), (TraceKind.MSG_RECV, "core"),
        (TraceKind.LABEL_CHANGE, "core"), (TraceKind.SLICE_START, "core")]
    assert trace[1].detail == {"msg": "ctl@0", "user": "A"}
    assert trace[2].label == j.label
    assert trace[3].detail["owner"] == "A"  # the named user's slice runs


# -- taint once ------------------------------------------------------------------


def retaint_every_job(core, sim, ctrl_label):
    """The definition ``taint_jobs`` must match: join the control label into
    every queued job, in slot then queue order."""
    for queue in core.slots.values():
        for j in queue:
            tainted = apply_receive(j.label, ctrl_label)
            if tainted != j.label:
                j.label = check_process_label(tainted)
                sim.emit(TraceKind.LABEL_CHANGE, core.id, label=j.label,
                         job=j.job_id, owner=j.owner)


def statmux_at_load(n_users, horizon, load, seed):
    """A statmux config whose jobs total ``load`` of the core over
    ``horizon``, arriving at random ticks, so backlogs build and drain."""
    rng = random.Random(seed)
    users = tuple("ABCD"[:n_users])
    jobs, total = [], 0
    while total + 1 <= load * horizon:
        work = min(rng.randint(1, 6), int(load * horizon - total))
        jobs.append(JobSpec(rng.choice(users), work, arrival=rng.randrange(horizon)))
        total += work
    jobs.sort(key=lambda spec: spec.arrival)
    return build_scenario("statmux", users=users, jobs=jobs, horizon=horizon, freq=F15)


@settings(max_examples=40, deadline=None)
@given(n_users=st.integers(2, 4), horizon=st.integers(10, 120),
       load=st.floats(0.05, 1.0), seed=st.integers(0, 2**16))
def test_taint_once_matches_a_full_retaint(n_users, horizon, load, seed):
    cfg = statmux_at_load(n_users, horizon, load, seed)
    once = trace_to_jsonl(run_scenario(cfg).trace)
    with mock.patch.object(ComputeCore, "taint_jobs", retaint_every_job):
        full = trace_to_jsonl(run_scenario(cfg).trace)
    assert once == full


def test_each_admitted_job_is_tainted_once_at_full_load():
    cfg = statmux_at_load(4, 400, 1.0, seed=7)
    calls = []

    def counted(receiver, msg_label):
        calls.append(receiver)
        return apply_receive(receiver, msg_label)

    with mock.patch("tifcsim.entities.apply_receive", counted):
        trace = run_scenario(cfg).trace
    admitted = [r for r in trace if r.kind is TraceKind.MSG_RECV
                and r.entity == "core" and r.detail["msg"].startswith("job_")]
    assert len(admitted) > 100
    assert len(calls) == len(admitted)


def test_a_new_control_label_retaints_the_tainted_prefix():
    sim, monitor, core, _ = make_core(users=("A", "B", "C"))
    first = sim.add(Scheduler("s1", core, monitor, Label((), {"B": INFINITY})))
    second = sim.add(Scheduler("s2", core, monitor, Label((), {"C": INFINITY})))
    a0, a1 = job(jid="A0"), job(jid="A1")
    core.slots["A"].append(a0)
    first.send_control(sim, "A")
    assert a0.label == Label.parse("{A/A:inf,B:inf}")
    core.slots["A"].append(a1)
    second.send_control(sim, "A")  # a0 is in the prefix tainted by s1
    assert a0.label == Label.parse("{A/A:inf,B:inf,C:inf}")
    assert a1.label == Label.parse("{A/A:inf,C:inf}")
    first.send_control(sim, "A")  # and a1 in the prefix tainted by s2
    assert a1.label == a0.label
    changes = [r.detail["job"] for r in sim.trace if r.kind is TraceKind.LABEL_CHANGE]
    assert changes == ["A0", "A0", "A1", "A1"]


def test_queued_jobs_run_fifo_within_a_slot():
    sim, _, core, _ = make_core()
    core.slots["A"].append(job(work=2, jid="A0", bits="00"))
    core.slots["A"].append(job(work=1, jid="A1", bits="11"))
    for t in range(4):
        sim.run_until(t)
        core.handle(sim, "A")
    trace = sim.run_until(4)
    done = [(r.t, r.detail["job"]) for r in trace
            if r.kind is TraceKind.JOB_COMPLETE]
    assert done == [(1, "A0"), (2, "A1")]


# -- pacer -------------------------------------------------------------------------


def make_pacer(freq=F15):
    sim = Engine()
    monitor = Monitor()
    gw = sim.add(Gateway("A", monitor, CapabilitySet([Capability("B", freq)])))
    pacer = sim.add(Pacer("A", freq, ("A", "B"), gw))
    clock = sim.add(Clock("clock", [(pacer, ())], pacer_period(freq)))
    clock.wake(sim, clock.period)
    return sim, pacer, gw


def msg(jid, label):
    return Message(result_payload("1"), label, f"res_{jid}")


def test_core_result_enters_pacer_through_checked_send():
    sim, monitor, core, gws = make_core(users=("A", "B"))
    pacer = sim.add(Pacer("A", F15, ("A", "B"), gws["A"]))
    # Awake but never armed: the queued result wakes nothing.
    sim.add(Clock("pacing", [(pacer, ())], 5)).asleep = False
    core.routes["A"] = pacer
    pacer.queue.append(msg("X0", A_LABEL))
    core.slots["A"].append(job(work=1))
    core.handle(sim, "A")
    sends = [r for r in sim.trace if r.detail.get("msg") == "res_A0"]
    assert [(r.kind, r.entity) for r in sends] == [
        (TraceKind.MSG_SEND, "core"), (TraceKind.MSG_RECV, "pacer_A")]
    assert sends[1].detail["queued"] == "2"
    assert [m.msg_id for m in pacer.queue] == ["res_X0", "res_A0"]


def test_pacer_downgrades_released_labels():
    sim, pacer, _ = make_pacer()
    pacer.queue.append(msg("A0", Label.parse("{A/A:inf,B:inf}")))
    trace = sim.run_until(6)
    releases = [r for r in trace if r.kind is TraceKind.PACER_RELEASE]
    assert len(releases) == 1
    assert releases[0].label == Label.parse("{A/A:1/5,B:1/5}")
    assert releases[0].t == 5


def test_pacer_releases_fifo_one_per_period():
    # three messages queued before the first tick drain over three periods
    sim, pacer, _ = make_pacer()
    for i in range(3):
        pacer.queue.append(msg(f"A{i}", Label.parse("{A/A:inf}")))
    trace = sim.run_until(30)
    releases = [r for r in trace if r.kind is TraceKind.PACER_RELEASE]
    assert [(r.t, r.detail["msg"]) for r in releases] == [
        (5, "res_A0"), (10, "res_A1"), (15, "res_A2")]


def test_pacer_empty_tick_releases_nothing():
    sim, pacer, _ = make_pacer()
    trace = sim.run_until(50)
    assert [r for r in trace if r.kind is TraceKind.PACER_RELEASE] == []


def test_pacer_release_times_on_phase_grid():
    sim, pacer, _ = make_pacer(freq=Frequency(1, 3))
    for i in range(4):
        pacer.queue.append(msg(f"A{i}", Label.parse("{A/A:inf}")))
    trace = sim.run_until(40)
    ticks = [r.t for r in trace if r.kind is TraceKind.PACER_RELEASE]
    assert ticks == [3, 6, 9, 12]
    assert all(t % pacer.clock.period == 0 for t in ticks)


def test_pacer_frequency_must_be_reciprocal_ticks():
    for bad in (Frequency(2, 3), Frequency(2), INFINITY, Frequency(0)):
        with pytest.raises(ConfigError):
            pacer_period(bad)
    assert pacer_period(Frequency(1)) == 1


# -- gateway --------------------------------------------------------------------------


def test_ingress_stamps_owner_label():
    sim, monitor, core, gws = make_core()
    j = gws["A"].ingress(sim, JobSpec("A", 2, "11"), "A0")
    assert j.label == Label.parse("{A/A:inf}")
    trace = sim.run_until(0)
    kinds = [r.kind for r in trace]
    assert kinds == [TraceKind.JOB_ARRIVE, TraceKind.MSG_SEND, TraceKind.MSG_RECV]
    assert core.slots["A"][0] is j


def test_ingress_gives_independent_labels():
    sim, _, core, gws = make_core()
    j1 = gws["A"].ingress(sim, JobSpec("A", 2, "11"), "A0")
    j2 = gws["A"].ingress(sim, JobSpec("A", 9, "00"), "A1")
    assert j1.label == j2.label and j1 is not j2


def test_egress_delivers_paced_label_with_cross_capability():
    sim = Engine()
    monitor = Monitor()
    gw = sim.add(Gateway("A", monitor,
                         CapabilitySet([Capability("B", F15)])))
    decision = gw.handle(sim, msg("A0", Label.parse("{A/A:1/5,B:1/5}")))
    assert decision.allowed
    trace = sim.run_until(0)
    recv = [r for r in trace if r.kind is TraceKind.MSG_RECV]
    assert len(recv) == 1
    assert recv[0].label == Label.parse("{A/A:1/5,B:1/5}")
    assert recv[0].detail["to"] == "A"


def test_egress_denies_unpaced_foreign_taint():
    sim = Engine()
    monitor = Monitor()
    gw = sim.add(Gateway("A", monitor,
                         CapabilitySet([Capability("B", F15)])))
    decision = gw.handle(sim, msg("A0", Label.parse("{A/A:inf,B:inf}")))
    assert not decision.allowed
    assert decision.residual == ("B:inf",)
    assert denials(sim.trace)[0].entity == "gw_A"


def test_egress_own_taint_delivered_without_caps():
    sim = Engine()
    monitor = Monitor()
    gw = sim.add(Gateway("A", monitor))
    assert gw.handle(sim, msg("A0", Label.parse("{A/A:inf}"))).allowed


# -- schedulers ------------------------------------------------------------------------


def control_users(trace):
    return [r.detail["user"] for r in trace
            if r.kind is TraceKind.MSG_SEND and r.entity == "sched"]


def test_reservation_rotation_ignores_demand():
    # only B has work; the rotation still grants A,B,A,B...
    cfg = ScenarioConfig(
        users=("A", "B"),
        scheduler=SchedulerSpec("reservation", ("A", "B")),
        jobs=(JobSpec("B", 2, "0110"),),
        horizon=3,  # ticks 0..3 inclusive
    )
    run = run_scenario(cfg)
    assert control_users(run.trace) == ["A", "B", "A", "B"]
    slices = [r.detail["owner"] for r in run.trace
              if r.kind is TraceKind.SLICE_START]
    assert slices == ["B", "B"]  # granted A-slots idle


def test_reservation_slice_owner_sequence_work_independent():
    # The clock sleeps once the core is idle, so how many ticks carry a
    # control message depends on the work; whom each one names does not.
    def owners(work):
        cfg = ScenarioConfig(
            users=("A", "B"),
            scheduler=SchedulerSpec("reservation", ("A", "B")),
            jobs=(JobSpec("A", 3, "1"), JobSpec("B", work, "0")),
            horizon=30,
        )
        return {r.t: r.detail["user"] for r in run_scenario(cfg).trace
                if r.kind is TraceKind.MSG_SEND and r.entity == "sched"}

    short, long = owners(2), owners(9)
    # last slices at t=4 (A) and t=17 (B's ninth, on odd ticks)
    assert sorted(short) == list(range(5)) and sorted(long) == list(range(18))
    assert all(long[t] == user for t, user in short.items())


def test_demand_driven_runs_only_user_with_work():
    cfg = ScenarioConfig(
        users=("A", "B"),
        scheduler=SchedulerSpec("demand", ("A", "B")),
        jobs=(JobSpec("B", 3, "0110"),),
        horizon=6,
    )
    run = run_scenario(cfg)
    assert control_users(run.trace) == ["B", "B", "B"]


def test_demand_driven_hand_enumerated_schedule():
    # A has 2 slices, B has 3, priority order (A, B):
    # t=0 A, t=1 A (done), t=2 B, t=3 B, t=4 B (done), t=5 idle
    cfg = ScenarioConfig(
        users=("A", "B"),
        scheduler=SchedulerSpec("demand", ("A", "B")),
        jobs=(JobSpec("A", 2, "1"), JobSpec("B", 3, "0")),
        horizon=6,
    )
    run = run_scenario(cfg)
    starts = [(r.t, r.detail["owner"]) for r in run.trace
              if r.kind is TraceKind.SLICE_START]
    assert starts == [(0, "A"), (1, "A"), (2, "B"), (3, "B"), (4, "B")]


def test_demand_feedback_denied_to_reservation_scheduler():
    cfg = build_scenario("reservation", horizon=3)
    engine, monitor = wire(cfg)
    engine.run_until(2)
    decision = offer_demand(engine, monitor, engine.entity("core"), engine.entity("sched"))
    assert not decision.allowed
    assert set(decision.residual) == {"A", "B", "A:inf", "B:inf"}
    assert denials(engine.trace)[-1].entity == "sched"


def test_demand_feedback_allowed_to_demand_scheduler():
    cfg = build_scenario("statmux", freq=F15, horizon=3)
    engine, monitor = wire(cfg)
    engine.run_until(2)
    decision = offer_demand(engine, monitor, engine.entity("core"), engine.entity("sched"))
    assert decision.allowed


def test_high_label_scheduler_cannot_message_customers():
    # the demand scheduler carries every tenant's content taint, so the
    # monitor bars it from sending anything to a single customer
    cfg = build_scenario("statmux", freq=F15, horizon=3)
    engine, monitor = wire(cfg)
    sched = engine.entity("sched")
    for gw_id in ("gw_A", "gw_B"):
        gw = engine.entity(gw_id)
        decision = monitor.decide(
            engine, at=gw.id, src=sched.id, dst=f"user_{gw.owner}",
            src_label=sched.clearance, caps=gw.caps, dst_label=gw.stamp, msg="m0",
        )
        assert not decision.allowed
    # while the trusted shared-core control logic may receive it
    core = engine.entity("core")
    from tifcsim.labels import EMPTY_CAPS
    from tifcsim.monitor import check_send
    assert check_send(sched.clearance, EMPTY_CAPS, core.clearance).allowed


def test_process_label_invariant_holds_across_statmux_trace():
    run = run_scenario(build_scenario("statmux", freq=F15, horizon=40))
    for r in run.trace:
        if r.kind in (TraceKind.SLICE_START, TraceKind.JOB_COMPLETE):
            assert r.label is not None
            for user in r.label.content:
                assert r.label.timing[user] == INFINITY
