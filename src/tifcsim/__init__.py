"""Deterministic simulator of rate-bounded timing-channel control in a
multi-tenant cloud: a content/timing label algebra, a reference monitor,
pacing queues, and an empirical covert-channel harness.

The package root exports the names the demos, the README and the benchmark
use; everything else is imported from its module (``tifcsim.monitor``...).
"""

from .kernel import TraceKind, trace_to_jsonl
from .labels import Capability, CapabilitySet, Frequency, Label
from .leakage import CovertExperiment, measure, straddle_experiment
from .scenarios import (
    ScenarioConfig,
    boundary_records,
    build_scenario,
    run_paired,
    run_scenario,
)

__version__ = "0.1.0"
