#!/usr/bin/env python3
"""The three multi-tenant topologies, run short-vs-long and charted.

Alice's job is fixed; Bob submits a short (2 slice) or long (7 slice) job.
Isolation means Alice's gateway sees byte-identical deliveries either way.
"""

from tifcsim import Frequency, TraceKind, build_scenario, run_paired, run_scenario
from tifcsim.scenarios import boundary_records, render_schedule

f = Frequency(1, 5)

for kind in ("dedicated", "reservation", "statmux"):
    cfg = build_scenario(kind, freq=f)
    report = run_paired(cfg, 2, 7)
    print("=" * 64)
    print(report.to_text())
    print()

# The ablation: same statistical multiplexing, pacer removed. Alice's
# results now carry Bob's unbounded timing taint and her gateway's rate-f
# declassifier cannot scrub it, so the monitor denies the delivery.
print("=" * 64)
ablated = build_scenario("statmux", freq=f, pacer_present=False)
run = run_scenario(ablated)
print("pacer removed:")
print(render_schedule(run.trace, ablated))
for r in run.trace:
    if r.kind is TraceKind.MONITOR_DENY:
        print("DENIED:", r.to_json())
print("deliveries to Alice:", len(boundary_records(run.trace, "A")))
