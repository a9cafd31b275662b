import dataclasses
import json
from pathlib import Path
from unittest import mock

import pytest

from tifcsim.kernel import ConfigError, TraceKind, trace_to_jsonl
from tifcsim.labels import INFINITY, Capability, Frequency, Label
from tifcsim.monitor import MonitorMode
from tifcsim.scenarios import (
    JobSpec,
    RecordSelector,
    ScenarioConfig,
    SchedulerSpec,
    assert_labels,
    boundary_records,
    build_scenario,
    default_label_expectations,
    render_schedule,
    run_paired,
    run_scenario,
)

DATA = Path(__file__).parent / "data"
DEMO_CONFIGS = Path(__file__).parent.parent / "demos" / "configs"
F15 = Frequency(1, 5)


def denials(trace):
    return [r for r in trace if r.kind is TraceKind.MONITOR_DENY]


# -- config building and validation -------------------------------------------


def test_dedicated_shape():
    cfg = build_scenario("dedicated")
    assert cfg.cores == "private"
    assert cfg.scheduler is None and cfg.pacer is None
    assert cfg.classify() == "dedicated"


def test_reservation_shape():
    cfg = build_scenario("reservation")
    assert cfg.cores == "shared"
    assert cfg.scheduler == SchedulerSpec("reservation", ("A", "B"))
    assert cfg.classify() == "reservation"


def test_statmux_shape():
    cfg = build_scenario("statmux", freq=F15)
    assert cfg.pacer == F15
    assert cfg.scheduler.kind == "demand"
    assert cfg.grants["A"] == (Capability("B", F15),)
    assert cfg.grants["B"] == (Capability("A", F15),)
    assert cfg.classify() == "statmux"


def test_statmux_requires_frequency():
    with pytest.raises(ConfigError):
        build_scenario("statmux")


def test_unknown_scenario_kind():
    with pytest.raises(ConfigError):
        build_scenario("mainframe")


@pytest.mark.parametrize(
    "mutation",
    [
        dict(users=()),
        dict(users=("A", "A")),
        dict(cores="quantum"),
        dict(cores="shared", scheduler=None),
        dict(scheduler=SchedulerSpec("lottery", ("A",))),
        dict(scheduler=SchedulerSpec("demand", ("Z",))),
        dict(scheduler=SchedulerSpec("demand", ("B",))),  # A's jobs would never run
        dict(scheduler=SchedulerSpec("reservation", ("A", "B", "A"))),
        dict(scheduler=SchedulerSpec("demand", ("A", "A"))),
        dict(pacer=Frequency(2, 3)),
        dict(jobs=(JobSpec("Z", 1),)),
        dict(jobs=(JobSpec("A", 0),)),
        dict(jobs=(JobSpec("A", 1, arrival=999),)),
        dict(jobs=(JobSpec("A", 1, payload="xyz"),)),
        dict(horizon=0),
        dict(grants={"Z": (Capability("A"),)}),
        dict(users=("A-B",), scheduler=SchedulerSpec("demand", ("A-B",)),
             jobs=()),  # not a label tag
        dict(pacer=Frequency(2)),  # faster than one release per tick
        dict(pacer=INFINITY),
        dict(jobs=(JobSpec("A", 2.5),)),  # would never complete
        dict(jobs=(JobSpec("A", True),)),
        dict(jobs=(JobSpec("A", 1, arrival=0.5),)),
        dict(horizon=50.0),
        dict(horizon=True),
    ],
)
def test_config_validation_rejects(mutation):
    base = dict(
        users=("A", "B"),
        cores="shared",
        scheduler=SchedulerSpec("demand", ("A", "B")),
        jobs=(JobSpec("A", 1, "1"),),
        horizon=50,
    )
    base.update(mutation)
    with pytest.raises(ConfigError):
        ScenarioConfig(**base)  # construction alone validates


def test_config_json_roundtrip():
    cfgs = [build_scenario("statmux", freq=F15, horizon=77, seed=9)]
    # what validate prints for each demo scenario reads back as the same config
    cfgs += [ScenarioConfig.from_json_obj(json.loads(p.read_text(encoding="utf-8")))
             for p in sorted(DEMO_CONFIGS.glob("*.json"))
             if not p.name.startswith("leakage")]
    assert len(cfgs) > 6
    for cfg in cfgs:
        assert ScenarioConfig.from_json_obj(cfg.to_json_obj()) == cfg
        assert ScenarioConfig.from_json_obj(json.loads(cfg.canonical_json())) == cfg


def test_shorthand_expands_to_build_scenario():
    obj = {"scenario": "statmux", "f": "1/5", "pacer": False, "users": ["A", "B", "C"],
           "horizon": 77, "seed": 9, "monitor_mode": "fatal"}
    assert ScenarioConfig.from_json_obj(obj) == build_scenario(
        "statmux", users=("A", "B", "C"), freq=F15, pacer_present=False,
        horizon=77, seed=9, monitor_mode=MonitorMode.FATAL)


def test_config_canonical_json_stable():
    cfg = build_scenario("reservation")
    assert cfg.canonical_json() == cfg.canonical_json()


# -- runs ------------------------------------------------------------------------


def test_runs_are_deterministic():
    for kind in ("dedicated", "reservation", "statmux"):
        cfg = build_scenario(kind, freq=F15)
        a = trace_to_jsonl(run_scenario(cfg).trace)
        b = trace_to_jsonl(run_scenario(cfg).trace)
        assert a == b, kind


@pytest.mark.parametrize("kind", ["dedicated", "reservation", "statmux"])
def test_trace_matches_golden_file(kind):
    cfg = build_scenario(kind, freq=F15)
    got = trace_to_jsonl(run_scenario(cfg).trace)
    assert got == (DATA / f"{kind}.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["dedicated", "reservation", "statmux"])
def test_every_receive_has_a_prior_send_or_release(kind):
    run = run_scenario(build_scenario(kind, freq=F15))
    seen = {}
    for r in run.trace:
        msg = r.detail.get("msg")
        if r.kind in (TraceKind.MSG_SEND, TraceKind.PACER_RELEASE):
            seen.setdefault(msg, r.t)
        elif r.kind is TraceKind.MSG_RECV:
            assert msg in seen and seen[msg] <= r.t, r.to_json()


def test_monitor_decisions_appear_in_trace():
    run = run_scenario(build_scenario("statmux", freq=F15, horizon=30))
    deliveries = [r for r in run.trace if r.kind is TraceKind.MSG_RECV]
    assert deliveries
    assert not denials(run.trace)  # paced path is clean


# -- paired runs --------------------------------------------------------------------


def test_dedicated_isolation_bit_identical():
    report = run_paired(build_scenario("dedicated"), 2, 7)
    assert report.alice_diff == []
    assert report.passed


def test_reservation_isolation_bit_identical():
    report = run_paired(build_scenario("reservation"), 2, 7)
    assert report.alice_diff == []
    assert report.passed


def test_statmux_deliveries_on_boundaries_with_paced_labels():
    report = run_paired(build_scenario("statmux", freq=F15), 2, 7)
    assert report.boundary_ok is True
    assert all(c.ok for c in report.label_checks)
    assert report.passed
    for run in (report.run_short, report.run_long):
        for r in boundary_records(run.trace, "A"):
            assert r.label == Label.parse("{A/A:1/5,B:1/5}")


def test_paced_delivery_hides_when_the_result_was_computed():
    # B has priority, so A's result completes at tick 1 or 3 with B's work
    # at 1 or 3 slices; the pacer releases both at tick 5 and nothing at
    # A's boundary may tell them apart
    cfg = dataclasses.replace(
        build_scenario("statmux", freq=F15, jobs=(JobSpec("A", 1), JobSpec("B", 1))),
        scheduler=SchedulerSpec("demand", ("B", "A")))
    report = run_paired(cfg, 1, 3)
    assert [r.t for r in boundary_records(report.run_short.trace, "A")] == [5]
    assert [r.t for r in boundary_records(report.run_long.trace, "A")] == [5]
    assert report.alice_diff == []


def test_statmux_without_pacer_denied_at_gateway():
    cfg = build_scenario("statmux", freq=F15, pacer_present=False)
    run = run_scenario(cfg)
    at_gw = [r for r in denials(run.trace) if r.entity == "gw_A"]
    assert len(at_gw) >= 1
    assert at_gw[0].detail["residual"] == "B:inf"
    assert boundary_records(run.trace, "A") == []


def test_paired_requires_distinct_works():
    with pytest.raises(ConfigError):
        run_paired(build_scenario("dedicated"), 3, 3)


def test_paired_report_serializes():
    report = run_paired(build_scenario("dedicated"), 2, 7)
    obj = report.to_json_obj()
    assert obj["passed"] is True
    assert obj["trace_short"][0]["kind"] == "JobArrive"
    text = report.to_text()
    assert "PASS" in text and "schedule" in text


# -- label assertions ------------------------------------------------------------------


def test_three_user_statmux_generalizes():
    cfg = build_scenario(
        "statmux",
        users=("A", "B", "C"),
        freq=F15,
        jobs=(JobSpec("A", 2, "1"), JobSpec("B", 3, "0"), JobSpec("C", 1, "1")),
        horizon=60,
    )
    assert cfg.grants["A"] == (Capability("B", F15), Capability("C", F15))
    run = run_scenario(cfg)
    pre_pacer = RecordSelector(TraceKind.MSG_SEND, "core", {"msg": "res_A0"})
    rec = pre_pacer.find(run.trace)
    assert rec.label == Label.parse("{A/A:inf,B:inf,C:inf}")
    for r in boundary_records(run.trace, "A"):
        assert r.label == Label.parse("{A/A:1/5,B:1/5,C:1/5}")
        assert r.t % 5 == 0
    assert not denials(run.trace)


def test_default_expectations_cover_statmux_path():
    cfg = build_scenario("statmux", freq=F15)
    run = run_scenario(cfg)
    checks = assert_labels(run.trace, default_label_expectations(cfg))
    assert [c.ok for c in checks] == [True, True, True]


def paced(kind):
    """A demand-blind topology with a pacer added: no canonical name."""
    return dataclasses.replace(build_scenario(kind), pacer=F15)


def at(kind, entity):
    return RecordSelector(kind, entity, {"msg": "res_A0"})


SEND, RELEASE, RECV = TraceKind.MSG_SEND, TraceKind.PACER_RELEASE, TraceKind.MSG_RECV


@pytest.mark.parametrize("cfg,expected", [
    pytest.param(build_scenario("dedicated"), [(at(RECV, "gw_A"), "{A/A:inf}")],
                 id="dedicated"),
    pytest.param(build_scenario("reservation"), [(at(RECV, "gw_A"), "{A/A:inf}")],
                 id="reservation"),
    pytest.param(build_scenario("statmux", freq=F15), [
        (at(SEND, "core"), "{A/A:inf,B:inf}"),
        (at(RELEASE, "pacer_A"), "{A/A:1/5,B:1/5}"),
        (at(RECV, "gw_A"), "{A/A:1/5,B:1/5}")], id="statmux"),
    pytest.param(build_scenario("statmux", freq=F15, pacer_present=False),
                 [(at(RECV, "gw_A"), "{A/A:inf,B:inf}")], id="statmux-unpaced"),
    pytest.param(paced("dedicated"), [
        (at(SEND, "core_A"), "{A/A:inf}"),
        (at(RELEASE, "pacer_A"), "{A/A:1/5}"),
        (at(RECV, "gw_A"), "{A/A:1/5}")], id="private-paced"),
    pytest.param(paced("reservation"), [
        (at(SEND, "core"), "{A/A:inf}"),
        (at(RELEASE, "pacer_A"), "{A/A:1/5}"),
        (at(RECV, "gw_A"), "{A/A:1/5}")], id="reservation-paced"),
])
def test_default_expectations_follow_the_topology(cfg, expected):
    assert [(sel, str(label)) for sel, label in default_label_expectations(cfg)] == expected


@pytest.mark.parametrize("kind", ["dedicated", "reservation"])
def test_paced_demand_blind_topology_is_checked_and_isolated(kind):
    report = run_paired(paced(kind), 2, 7)
    assert report.scenario == "custom"
    assert report.isolation_required
    assert len(report.label_checks) == 6 and report.passed  # three checks per run
    # a pacer that forgets to downgrade is caught by the expected paced label
    with mock.patch.object(Label, "pace_down", lambda label, limit: label):
        assert not run_paired(paced(kind), 2, 7).passed


def test_assert_labels_reports_missing_selector():
    cfg = build_scenario("dedicated")
    run = run_scenario(cfg)
    checks = assert_labels(run.trace, [
        (RecordSelector(TraceKind.PACER_RELEASE, "pacer_A"), Label.parse("{-/-}")),
    ])
    assert not checks[0].ok
    assert "no record matches" in checks[0].message


def test_assert_labels_reports_wrong_label():
    cfg = build_scenario("dedicated")
    run = run_scenario(cfg)
    checks = assert_labels(run.trace, [
        (RecordSelector(TraceKind.MSG_RECV, "gw_A"), Label.parse("{-/-}")),
    ])
    assert not checks[0].ok
    assert "expected {-/-}" in checks[0].message


# -- chart ---------------------------------------------------------------------------------


def test_render_dedicated_rows_disjoint():
    cfg = build_scenario("dedicated")
    chart = render_schedule(run_scenario(cfg).trace, cfg)
    rows = {l.split()[0] for l in chart.splitlines()[2:]}
    # each private core hosts exactly its own user, never the other's
    assert {"core_A/A", "core_B/B"} <= rows
    assert "core_A/B" not in rows and "core_B/A" not in rows


def test_render_shared_core_interleaves_users():
    cfg = build_scenario("reservation")
    chart = render_schedule(run_scenario(cfg).trace, cfg)
    lines = {l.split()[0]: l.split()[-1] for l in chart.splitlines()[2:]}
    a_row, b_row = lines["core/A"], lines["core/B"]
    # one core: never two users in the same timeslice
    assert not any(x == "#" and y == "#" for x, y in zip(a_row, b_row))


def test_render_marks_deliveries_and_denials():
    cfg = build_scenario("statmux", freq=F15)
    chart = render_schedule(run_scenario(cfg).trace, cfg)
    assert "R" in chart
    ablated = build_scenario("statmux", freq=F15, pacer_present=False)
    chart2 = render_schedule(run_scenario(ablated).trace, ablated)
    assert "X" in chart2


def test_render_draws_a_delivery_at_the_horizon():
    # run_until executes t = horizon, so the chart must show that column too
    cfg = ScenarioConfig(users=("A",), cores="private", horizon=10,
                         jobs=(JobSpec("A", 2, "01", arrival=9),))
    trace = run_scenario(cfg).trace
    assert [r.t for r in boundary_records(trace, "A")] == [10]
    rows = {l.split()[0]: l.split()[-1] for l in render_schedule(trace, cfg).splitlines()[2:]}
    assert rows["out:A"] == "." * 10 + "R"
    assert rows["core_A/A"] == "." * 9 + "##"
