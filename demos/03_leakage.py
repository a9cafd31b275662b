#!/usr/bin/env python3
"""Covert-channel measurement: how much can Bob leak into Alice's timing?

Bob modulates his demand (short vs long jobs, one per frame); Alice decodes
from when her own probe results come back. Three regimes:

  paced, within-period symbols  - the pacer flattens both symbols onto the
                                  same release boundary; the channel closes.
  paced, boundary-straddling    - symbols land on different boundaries; the
                                  channel leaks, but at half a bit per
                                  period, below the bound f.
  enforcement off               - no pacer, full declassifiers; the channel
                                  runs wide open and beats f.

Each trial reports its bit error rate and achieved rate; the exact check
against f is a rational comparison with zero slack.
"""

import dataclasses

from tifcsim import CovertExperiment, Frequency, measure, straddle_experiment


def show(name, report):
    print(f"--- {name}")
    print(f"    bound f = {report.bound} bits/tick")
    for trial, ok in zip(report.trials, report.passes):
        print(f"    seed {trial.seed}: BER {trial.ber:.3f}  "
              f"rate {float(trial.achieved_rate):.5f}  within bound: {ok}")
    print(f"    all within bound: {report.all_pass}")


tight = CovertExperiment(trials=5, seed=11)
show("paced, symbols within one period (channel squeezed shut)", measure(tight))

show("paced, symbols straddling a period boundary (bounded leak)",
     measure(straddle_experiment(trials=5, seed=11)))

show("enforcement off (pacer removed, full declassifiers)",
     measure(dataclasses.replace(tight, paced=False)))

show("dedicated hardware (no shared core, no channel at all)",
     measure(dataclasses.replace(tight, topology="dedicated", paced=False)))

print("\nHalving the pacer frequency halves the bounded leak:")
for denom in (5, 10, 20):
    report = measure(straddle_experiment(freq=Frequency(1, denom), trials=2, seed=4))
    print(f"  f = 1/{denom}: max rate {float(report.max_rate):.5f}")
