"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values come from independent oracles in ``reference.py`` or are
exact by construction; comparisons on the leakage bound are exact
rationals with no tolerance.
"""

import dataclasses
import math
import random

from tifcsim.kernel import TraceKind
from tifcsim.labels import (
    Capability,
    CapabilitySet,
    Frequency,
    INFINITY,
    Label,
    ZERO,
)
from tifcsim.leakage import CovertExperiment, measure
from tifcsim.monitor import check_send
from tifcsim.scenarios import (
    JobSpec,
    ScenarioConfig,
    SchedulerSpec,
    boundary_records,
    build_scenario,
    run_paired,
    run_scenario,
)

from reference import (
    all_labels,
    lub_by_enumeration,
    oracle_flow_allowed,
    random_caps,
    random_label,
)

F15 = Frequency(1, 5)


def _report(num: int, name: str, ok: bool, note: str = "") -> None:
    suffix = f" ({note})" if note else ""
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_label_lattice_laws():
    violations = 0

    # exhaustive two-user lattice over frequencies {0, 1, inf}
    universe = all_labels(("A", "B"), (ZERO, Frequency(1), INFINITY))
    for a in universe:
        if not a.flows_to(a):
            violations += 1
    for a in universe:
        for b in universe:
            if a.flows_to(b) and b.flows_to(a) and a != b:
                violations += 1
            if a.join(b) != lub_by_enumeration(a, b, universe):
                violations += 1
    for a in universe:
        for b in universe:
            for c in universe:
                if a.flows_to(b) and b.flows_to(c) and not a.flows_to(c):
                    violations += 1

    # 10^4 random three-user labels: order laws, and join as the *least*
    # upper bound, certified coordinate-wise against the order alone:
    # dropping any content tag or lowering/removing any timing entry of the
    # join must break the upper-bound property.
    from reference import FREQ_POOL

    rng = random.Random(1001)
    for _ in range(10_000):
        a = random_label(rng, "ABC")
        b = random_label(rng, "ABC")
        c = random_label(rng, "ABC")
        j = a.join(b)

        def is_ub(cand):
            return a.flows_to(cand) and b.flows_to(cand)

        if not is_ub(j):
            violations += 1
        if j.join(a) != j or a.join(b) != b.join(a):
            violations += 1
        for tag in j.content:
            if is_ub(Label(j.content - {tag}, dict(j.timing))):
                violations += 1
        for user, freq in j.timing.items():
            without = {u: f for u, f in j.timing.items() if u != user}
            if is_ub(Label(j.content, without)):
                violations += 1
            for lower in FREQ_POOL:
                if lower < freq and is_ub(Label(j.content,
                                                {**without, user: lower})):
                    violations += 1
        if a.flows_to(b) and b.flows_to(c) and not a.flows_to(c):
            violations += 1
        if a.flows_to(b) and b.flows_to(a) and a != b:
            violations += 1

    _report(1, "label-lattice laws", violations == 0,
            f"{len(universe)} exhaustive labels + 10^4 random, "
            f"{violations} violations")


def test_criterion_2_monitor_matches_bruteforce_oracle():
    rng = random.Random(2002)
    disagreements = 0
    for _ in range(100_000):
        src = random_label(rng, "ABC")
        dst = random_label(rng, "ABC")
        caps = random_caps(rng, "ABC")
        mine = check_send(src, CapabilitySet(caps), dst).allowed
        if mine != oracle_flow_allowed(src, caps, dst):
            disagreements += 1
    _report(2, "monitor-oracle equivalence", disagreements == 0,
            f"10^5 triples, {disagreements} disagreements")


def test_criterion_3_max_strength_timing_equals_content_declassifier():
    rng = random.Random(3003)
    differences = 0
    for _ in range(10_000):
        lab = random_label(rng, "ABC")
        user = "ABC"[rng.randrange(3)]
        via_timing = lab.declassify(CapabilitySet([Capability(user, INFINITY)]))
        via_content = lab.declassify(CapabilitySet([Capability(user)]))
        if via_timing != via_content:
            differences += 1
    _report(3, "capability equivalence", differences == 0,
            f"10^4 labels, {differences} differences")


def test_criterion_4_pacing_downgrade_exact_and_release_grid():
    ok = Label.parse("{A/A:inf,B:inf}").pace_down(F15) == \
        Label.parse("{A/A:1/5,B:1/5}")

    cfg = build_scenario("statmux", freq=F15)
    run = run_scenario(cfg)
    period = F15.denominator
    for pacer in ("pacer_A", "pacer_B"):
        releases = [r for r in run.trace
                    if r.kind is TraceKind.PACER_RELEASE and r.entity == pacer]
        ok = ok and len(releases) <= math.ceil(cfg.horizon / period)
        ok = ok and all(r.t % period == 0 and r.t > 0 for r in releases)
    _report(4, "pacing downgrade", ok)


def test_criterion_5_scenario_isolation():
    notes = []
    ok = True

    for kind in ("dedicated", "reservation"):
        report = run_paired(build_scenario(kind), 2, 7)
        identical = report.alice_diff == []
        ok = ok and identical and report.passed
        notes.append(f"{kind} diff={len(report.alice_diff)}")

    statmux = run_paired(build_scenario("statmux", freq=F15), 2, 7)
    paced_label = Label.parse("{A/A:1/5,B:1/5}")
    for run in (statmux.run_short, statmux.run_long):
        deliveries = boundary_records(run.trace, "A")
        ok = ok and len(deliveries) > 0
        ok = ok and all(r.t % 5 == 0 for r in deliveries)
        ok = ok and all(r.label == paced_label for r in deliveries)
    notes.append(f"statmux boundary_ok={statmux.boundary_ok}")

    ablated = run_scenario(build_scenario("statmux", freq=F15, pacer_present=False))
    denials = [r for r in ablated.trace
               if r.kind is TraceKind.MONITOR_DENY and r.entity == "gw_A"]
    ok = ok and len(denials) >= 1
    notes.append(f"ablated denials={len(denials)}")

    _report(5, "scenario isolation", ok, "; ".join(notes))


def test_criterion_6_deterministic_computation_across_interleavings():
    jobs = (JobSpec("A", 4, "1011"), JobSpec("B", 7, "0110"))

    def interleavings():
        yield build_scenario("dedicated", jobs=jobs)
        for order in (("A", "B"), ("B", "A")):
            yield ScenarioConfig(
                users=("A", "B"), cores="shared",
                scheduler=SchedulerSpec("reservation", order),
                jobs=jobs, horizon=200,
            ).validate()
            yield ScenarioConfig(
                users=("A", "B"), cores="shared",
                scheduler=SchedulerSpec("demand", order),
                jobs=jobs, horizon=200,
            ).validate()

    payloads = []
    completions = []
    for cfg in interleavings():
        run = run_scenario(cfg)
        done = {r.detail["job"]: r.detail["result"] for r in run.trace
                if r.kind is TraceKind.JOB_COMPLETE}
        times = {r.detail["job"]: r.t for r in run.trace
                 if r.kind is TraceKind.JOB_COMPLETE}
        payloads.append(done)
        completions.append(times)

    ok = len(payloads) >= 5
    ok = ok and all(p == payloads[0] and set(p) == {"A0", "B0"} for p in payloads)
    timings_differ = len({tuple(sorted(t.items())) for t in completions}) > 1
    ok = ok and timings_differ
    _report(6, "deterministic computation", ok,
            f"{len(payloads)} interleavings, timings differ: {timings_differ}")


def test_criterion_7_leakage_bound():
    exp = CovertExperiment(trials=10, seed=7001, horizon=2048)
    assert exp.horizon >= 2000 and exp.trials >= 10
    assert len(exp.message_for(exp.seed)) >= 64

    paced = measure(exp)
    paced_ok = all(t.achieved_rate <= paced.bound for t in paced.trials)

    ablated = measure(dataclasses.replace(exp, paced=False))
    ablated_ok = all(t.achieved_rate > ablated.bound for t in ablated.trials)

    _report(
        7, "leakage bound", paced_ok and ablated_ok,
        f"paced max {paced.max_rate} <= {paced.bound}; "
        f"ablated min {min(t.achieved_rate for t in ablated.trials)} > "
        f"{ablated.bound}",
    )
