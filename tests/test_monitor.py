import random

import pytest

from tifcsim.entities import (
    ComputeCore,
    Gateway,
    Job,
    JobSpec,
    Pacer,
    Scheduler,
    offer_demand,
)
from tifcsim.kernel import Engine, Entity, MonitorFault, TraceKind
from tifcsim.labels import (
    EMPTY_CAPS,
    EMPTY_LABEL,
    INFINITY,
    Capability,
    CapabilitySet,
    Frequency,
    Label,
)
from tifcsim.monitor import Monitor, MonitorMode, apply_receive, check_send

from reference import oracle_flow_allowed, oracle_residual, random_caps, random_label

F15 = Frequency(1, 5)


def test_check_send_allows_after_full_declassification():
    caps = CapabilitySet([Capability("A"), Capability("B", F15)])
    d = check_send(Label.parse("{A/A:inf,B:1/5}"), caps, EMPTY_LABEL)
    assert d.allowed
    assert d.effective == EMPTY_LABEL
    assert d.residual == ()


def test_check_send_denies_on_timing_residual():
    caps = CapabilitySet([Capability("A")])
    d = check_send(Label.parse("{A/A:inf,B:1/5}"), caps, EMPTY_LABEL)
    assert not d.allowed
    assert d.residual == ("B:1/5",)


def test_check_send_reflexive():
    rng = random.Random(3)
    for _ in range(100):
        lab = random_label(rng, "ABC")
        assert check_send(lab, EMPTY_CAPS, lab).allowed


def test_check_send_agrees_with_bruteforce_oracle():
    rng = random.Random(17)
    disagreements = 0
    for _ in range(2000):
        src = random_label(rng, "ABC")
        dst = random_label(rng, "ABC")
        caps = random_caps(rng, "ABC")
        mine = check_send(src, CapabilitySet(caps), dst).allowed
        if mine != oracle_flow_allowed(src, caps, dst):
            disagreements += 1
    assert disagreements == 0


def test_check_send_residual_and_effective_match_oracle():
    rng = random.Random(19)
    for _ in range(5000):
        src = random_label(rng, "ABC")
        dst = random_label(rng, "ABC")
        caps = random_caps(rng, "ABC")
        d = check_send(src, CapabilitySet(caps), dst)
        effective, residual = oracle_residual(src, caps, dst)
        assert (d.effective, d.residual) == (effective, residual), (src, caps, dst)
        assert d.allowed == (not residual) == oracle_flow_allowed(src, caps, dst)


def test_check_send_monotone_in_destination():
    rng = random.Random(23)
    for _ in range(300):
        src = random_label(rng, "ABC")
        dst = random_label(rng, "ABC")
        caps = CapabilitySet(random_caps(rng, "ABC"))
        wider = dst.join(random_label(rng, "ABC"))
        if check_send(src, caps, dst).allowed:
            assert check_send(src, caps, wider).allowed


def test_allowed_flow_never_carries_tag_absent_from_destination():
    rng = random.Random(31)
    for _ in range(300):
        src = random_label(rng, "ABC")
        dst = random_label(rng, "ABC")
        caps = CapabilitySet(random_caps(rng, "ABC"))
        d = check_send(src, caps, dst)
        if d.allowed:
            assert d.effective.content <= dst.content
            assert set(d.effective.timing) <= set(dst.timing)


def test_apply_receive_scheduler_taint_is_timing_only():
    receiver = Label.parse("{A/A:inf}")
    sched = Label.parse("{A,B/A:inf,B:inf}")
    assert apply_receive(receiver, sched) == Label.parse("{A/A:inf,B:inf}")


def test_apply_receive_channel_difference():
    # worked by hand from the definitions of join and lift: the message's
    # content tag arrives on the timing channel as unbounded taint, never as
    # content, and its timing taint keeps its bound
    msg = Label.parse("{A/B:1/5}")
    assert apply_receive(EMPTY_LABEL, msg) == Label.parse("{-/A:inf,B:1/5}")


def test_apply_receive_empty_message_is_identity():
    lab = Label.parse("{A,B/A:inf,B:1/5}")
    assert apply_receive(lab, EMPTY_LABEL) == lab


def _decide(monitor, sim, src_label, caps, dst_label):
    return monitor.decide(
        sim, at="gw_A", src="core", dst="user_A",
        src_label=src_label, caps=caps, dst_label=dst_label, msg="m0",
    )


def test_monitor_records_allow_and_deny():
    sim = Engine()
    monitor = Monitor()
    ok = _decide(monitor, sim, Label.parse("{A/A:inf}"), EMPTY_CAPS,
                 Label.parse("{A/A:inf}"))
    bad = _decide(monitor, sim, Label.parse("{A/A:inf,B:inf}"),
                  CapabilitySet([Capability("B", F15)]), Label.parse("{A/A:inf}"))
    assert ok.allowed and not bad.allowed
    log = sim.trace  # the trace is the audit log
    assert [r.kind for r in log] == [TraceKind.MSG_RECV, TraceKind.MONITOR_DENY]
    assert log[0].detail == {"msg": "m0"}  # the delivery is the allow
    assert log[1].detail == {
        "src": "core", "dst": "user_A", "dst_label": "{A/A:inf}",
        "effective": "{A/A:inf,B:inf}", "residual": "B:inf", "msg": "m0"}


def test_monitor_empty_audit_log():
    # nothing is recorded before a decision, and each allowed decision adds
    # one record: the delivery
    sim = Engine()
    monitor = Monitor()
    assert sim.trace == []
    for _ in range(3):
        _decide(monitor, sim, EMPTY_LABEL, EMPTY_CAPS, EMPTY_LABEL)
    assert [r.kind for r in sim.trace] == [TraceKind.MSG_RECV] * 3


def test_fatal_mode_raises_with_record():
    sim = Engine()
    monitor = Monitor(MonitorMode.FATAL)
    with pytest.raises(MonitorFault) as err:
        _decide(monitor, sim, Label.parse("{B/B:inf}"), EMPTY_CAPS, EMPTY_LABEL)
    assert err.value.record.kind is TraceKind.MONITOR_DENY
    assert "B" in err.value.record.detail["residual"]


def test_timing_infinite_capability_acts_like_content_in_flows():
    caps_inf = CapabilitySet([Capability("B", INFINITY)])
    caps_content = CapabilitySet([Capability("B")])
    src = Label.parse("{A,B/A:inf,B:inf}")
    dst = Label.parse("{A/A:inf}")
    assert check_send(src, caps_inf, dst) == check_send(src, caps_content, dst)


# -- the checked send ---------------------------------------------------------------


class Node(Entity):
    def __init__(self, entity_id, clearance):
        super().__init__(entity_id)
        self.clearance = clearance


def kinds_at(records):
    return [(r.kind, r.entity) for r in records]


def test_send_allowed_records_send_decision_receive():
    sim = Engine()
    src = sim.add(Node("src", EMPTY_LABEL))
    dst = sim.add(Node("dst", Label.parse("{A/A:inf}")))
    label = Label.parse("{A/A:inf}")
    d = Monitor().send(sim, src, dst, label, "m0", sent={"user": "A"},
                       received={"queued": "1"})
    assert d.allowed
    assert kinds_at(sim.trace) == [(TraceKind.MSG_SEND, "src"), (TraceKind.MSG_RECV, "dst")]
    send, recv = sim.trace
    assert send.detail == {"msg": "m0", "to": "dst", "user": "A"}
    assert recv.detail == {"msg": "m0", "queued": "1"}
    assert send.label == recv.label == label


def test_send_decides_without_capabilities():
    # a capability the sender's gateway holds does not help a checked send
    sim = Engine()
    src = sim.add(Node("src", EMPTY_LABEL))
    dst = sim.add(Node("dst", Label.parse("{A/A:inf}")))
    d = Monitor().send(sim, src, dst, Label.parse("{A/A:inf,B:1/5}"), "m0")
    assert not d.allowed and d.residual == ("B:1/5",)


def _core(users=("A", "B")):
    sim = Engine()
    monitor = Monitor()
    core = sim.add(ComputeCore("core", users, monitor))
    return sim, monitor, core


def _deny_ingress():
    sim, monitor, core = _core()
    core.clearance = Label.parse("{B/A:inf,B:inf}")  # not cleared for A's content
    gw = sim.add(Gateway("A", monitor))
    gw.core = core
    gw.ingress(sim, JobSpec("A", 2, "1"), "A0")
    return sim, ("gw_A", "core"), lambda: not any(core.slots.values())


def _deny_result_to_pacer():
    sim, monitor, core = _core()
    gw = sim.add(Gateway("A", monitor))
    pacer = sim.add(Pacer("A", Frequency(1, 5), ("A",), gw))  # B not cleared
    core.routes["A"] = pacer
    core.slots["A"].append(Job("A0", "A", 1, "1", Label.parse("{A/A:inf,B:inf}")))
    core.handle(sim, "A")
    return sim, ("core", "pacer_A"), lambda: not pacer.queue


def _deny_demand():
    sim, monitor, core = _core()
    sched = sim.add(Scheduler("sched", core, monitor, EMPTY_LABEL))
    offer_demand(sim, monitor, core, sched)
    return sim, ("core", "sched"), lambda: sched.clearance == EMPTY_LABEL


def _deny_control():
    sim, monitor, core = _core()
    job = Job("A0", "A", 2, "1", Label.parse("{A/A:inf}"))
    core.slots["A"].append(job)
    sched = sim.add(Scheduler("sched", core, monitor, Label.parse("{C/C:inf}")))
    sched.send_control(sim, "A")  # allowed, it would run A's slice at once
    return sim, ("sched", "core"), lambda: (
        job.label == Label.parse("{A/A:inf}") and job.remaining == 2)


@pytest.mark.parametrize("flow", [_deny_ingress, _deny_result_to_pacer,
                                  _deny_demand, _deny_control])
def test_send_denied_records_send_and_deny_and_delivers_nothing(flow):
    sim, (src, dst), unchanged = flow()
    sends = [i for i, r in enumerate(sim.trace) if r.kind is TraceKind.MSG_SEND]
    assert len(sends) == 1
    assert kinds_at(sim.trace[sends[0]:]) == [(TraceKind.MSG_SEND, src),
                                              (TraceKind.MONITOR_DENY, dst)]
    assert not any(r.kind is TraceKind.LABEL_CHANGE for r in sim.trace)
    assert unchanged()


def test_send_fatal_mode_raises_after_send_and_deny():
    sim = Engine()
    src = sim.add(Node("src", EMPTY_LABEL))
    dst = sim.add(Node("dst", EMPTY_LABEL))
    with pytest.raises(MonitorFault) as err:
        Monitor(MonitorMode.FATAL).send(sim, src, dst, Label.parse("{B/B:inf}"), "m0")
    assert kinds_at(sim.trace) == [(TraceKind.MSG_SEND, "src"),
                                   (TraceKind.MONITOR_DENY, "dst")]
    assert err.value.record is sim.trace[1]
