"""Empirical covert-channel harness for the shared-core timing channel.

Protocol: the colluding sender (second user, scheduled at higher priority)
transmits one bit per signaling frame by submitting a short or a long job;
the receiver (first user) submits a fixed probe job each frame and observes
only *when* its own result comes back. Frames are aligned to pacer periods.
The decoder thresholds the per-frame delivery latency; it is deliberately
simple, since the claim under test is an upper bound on the leak rate.

Rate accounting: achieved_rate = correct_bits * (1 - H2(BER)) / elapsed
ticks, where elapsed spans the experiment start to the last delivery. With
the pacer installed, deliveries happen only on period boundaries, so the
last delivery cannot come before frames*period ticks and the measured rate
cannot exceed the pacer frequency. The ablation removes the pacer and
raises the gateways' declassifiers to full strength (enforcement off), so
the same experiment then finishes strictly earlier than one period per bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .entities import pacer_period
from .kernel import ConfigError
from .labels import INFINITY, Capability, Frequency
from .scenarios import (
    BOOL,
    FREQ,
    INT,
    STR,
    JobSpec,
    ScenarioConfig,
    SchedulerSpec,
    boundary_records,
    json_object,
    optional,
    run_scenario,
)


PROBE_SLICES = 1  # work of the receiver's probe job in every frame
MESSAGE_BITS = 64  # bits per trial: enough frames for a rate estimate


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class CovertExperiment:
    """One covert-channel measurement campaign.

    Each trial uses seed ``seed + trial`` to draw a fresh random message of
    ``MESSAGE_BITS`` bits. The encoding maps bit 0 to a ``short_work`` job
    and bit 1 to ``long_work``.

    The defaults give frames of one period in which both symbols complete.
    Paced, the channel is squeezed to (near) nothing; unpaced, it decodes
    perfectly and beats the bound, which is what the ablation demonstrates.
    """

    freq: Frequency = Frequency(1, 5)
    short_work: int = 1
    long_work: int = 3
    frame_ticks: Optional[int] = None  # default: one pacer period
    paced: bool = True
    topology: str = "shared"  # "shared" | "dedicated"
    trials: int = 10
    horizon: int = 2048
    seed: int = 1

    def __post_init__(self) -> None:
        period = pacer_period(self.freq)
        if self.short_work >= self.long_work:
            raise ConfigError("short must be less than long")
        if self.short_work < 1:
            raise ConfigError("job lengths must be >= 1")
        if self.topology not in ("shared", "dedicated"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.frame < period or self.frame % period != 0:
            raise ConfigError("frame must be a positive whole number of pacer periods")
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.horizon < MESSAGE_BITS * self.frame + period:
            raise ConfigError(
                f"horizon {self.horizon} too short for {MESSAGE_BITS} frames of "
                f"{self.frame} ticks plus one period"
            )

    @property
    def period(self) -> int:
        return pacer_period(self.freq)

    @property
    def frame(self) -> int:
        return self.frame_ticks if self.frame_ticks is not None else self.period

    @property
    def bound(self) -> Fraction:
        return self.freq.as_fraction()

    def message_for(self, seed: int) -> str:
        rng = random.Random(seed)
        return "".join("1" if rng.random() < 0.5 else "0"
                       for _ in range(MESSAGE_BITS))

    @classmethod
    def from_json_obj(cls, obj: object) -> "CovertExperiment":
        return _read_experiment(obj, "config")


_read_experiment = json_object(
    CovertExperiment,
    {"f": FREQ, "short": INT, "long": INT, "frame": optional(INT),
     "paced": BOOL, "topology": STR, "trials": INT, "horizon": INT, "seed": INT},
    rename={"f": "freq", "short": "short_work", "long": "long_work",
            "frame": "frame_ticks"},
)


def straddle_experiment(freq: Frequency = Frequency(1, 5), **overrides) -> CovertExperiment:
    """Two-period frames with the long symbol crossing a period boundary.

    The paced channel then genuinely leaks about half a bit per period,
    sitting below the bound rather than at zero: the bounded-leak regime.
    """
    period = pacer_period(freq)
    params = dict(
        freq=freq,
        short_work=1,
        long_work=period + 1,
        frame_ticks=2 * period,
    )
    params.update(overrides)
    if params.get("horizon") is None:
        params["horizon"] = 2 * period * 70 + period + 1
    return CovertExperiment(**params)


def build_config(exp: CovertExperiment, bits: str) -> ScenarioConfig:
    """Scenario for one trial: in each frame the receiver's probe and the
    sender's job, whose length encodes the frame's bit."""
    users = ("A", "B")
    work = {"0": exp.short_work, "1": exp.long_work}
    jobs = tuple(
        job
        for i, bit in enumerate(bits)
        for job in (JobSpec("A", PROBE_SLICES, format(i % 256, "08b"), i * exp.frame),
                    JobSpec("B", work[bit], bit, i * exp.frame))
    )
    grant_limit = exp.freq if exp.paced else INFINITY
    shared = exp.topology == "shared"
    return ScenarioConfig(
        users=users,
        cores="shared" if shared else "private",
        scheduler=SchedulerSpec("demand", ("B", "A")) if shared else None,  # sender priority
        pacer=exp.freq if exp.paced else None,
        grants={
            u: tuple(Capability(o, grant_limit) for o in users if o != u)
            for u in users
        } if shared else {},
        jobs=jobs,
        horizon=exp.horizon,
    )


def model_latency(exp: CovertExperiment, sender_work: int) -> int:
    """Expected probe delivery latency within its frame, no backlog."""
    if exp.topology == "dedicated":
        completion = PROBE_SLICES - 1
    else:
        completion = sender_work + PROBE_SLICES - 1
    if not exp.paced:
        return completion
    return exp.period * (completion // exp.period + 1)


@dataclass(frozen=True)
class Framing:
    frame_ticks: int
    frames: int
    threshold: float
    max_latency: int


def decode_from_releases(release_ticks: Sequence[Optional[int]],
                         framing: Framing) -> Optional[str]:
    """Threshold each frame's delivery latency into a bit.

    A frame with no delivery, a delivery before its frame starts, or a
    latency beyond ``max_latency`` makes the decode invalid (``None``)
    rather than silently guessing.
    """
    if len(release_ticks) != framing.frames:
        return None
    bits = []
    for i, tick in enumerate(release_ticks):
        if tick is None:
            return None
        latency = tick - i * framing.frame_ticks
        if latency < 0 or latency > framing.max_latency:
            return None
        bits.append("1" if latency >= framing.threshold else "0")
    return "".join(bits)


def empirical_mi(pairs: Sequence[Tuple[str, int]]) -> float:
    """Plug-in mutual information (bits) between sent bit and observation."""
    n = len(pairs)
    if n == 0:
        return 0.0
    joint: Dict[Tuple[str, int], int] = {}
    px: Dict[str, int] = {}
    py: Dict[int, int] = {}
    for x, y in pairs:
        joint[(x, y)] = joint.get((x, y), 0) + 1
        px[x] = px.get(x, 0) + 1
        py[y] = py.get(y, 0) + 1
    mi = 0.0
    for (x, y), c in joint.items():
        p_xy = c / n
        mi += p_xy * math.log2(p_xy * n * n / (px[x] * py[y]))
    return max(mi, 0.0)


@dataclass(frozen=True)
class TrialResult:
    seed: int
    sent: str
    decoded: str
    valid: bool
    ber: float
    elapsed: int
    achieved_rate: Fraction
    mi_rate: float


@dataclass
class LeakageReport:
    experiment: CovertExperiment
    bound: Fraction
    trials: List[TrialResult]

    @property
    def passes(self) -> List[bool]:
        return [t.achieved_rate <= self.bound for t in self.trials]

    @property
    def all_pass(self) -> bool:
        return all(self.passes)

    @property
    def max_rate(self) -> Fraction:
        return max((t.achieved_rate for t in self.trials), default=Fraction(0))

    @property
    def mean_ber(self) -> float:
        return sum(t.ber for t in self.trials) / len(self.trials)

    def csv_text(self) -> str:
        lines = ["seed,ber,achieved_rate,bound,pass"]
        for t, ok in zip(self.trials, self.passes):
            lines.append(
                f"{t.seed},{t.ber:.6f},{float(t.achieved_rate):.10g},"
                f"{float(self.bound):.10g},{ok}"
            )
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "bound": str(self.bound),
            "paced": self.experiment.paced,
            "topology": self.experiment.topology,
            "frame_ticks": self.experiment.frame,
            "trials": [
                {
                    "seed": t.seed,
                    "ber": t.ber,
                    "achieved_rate": str(t.achieved_rate),
                    "achieved_rate_float": float(t.achieved_rate),
                    "mi_rate": t.mi_rate,
                    "elapsed": t.elapsed,
                    "valid": t.valid,
                    "pass": ok,
                }
                for t, ok in zip(self.trials, self.passes)
            ],
            "all_pass": self.all_pass,
            "max_rate": str(self.max_rate),
            "mean_ber": self.mean_ber,
        }


def run_trial(exp: CovertExperiment, seed: int) -> TrialResult:
    bits = exp.message_for(seed)
    run = run_scenario(build_config(exp, bits))

    deliveries = {
        r.detail["msg"]: r.t for r in boundary_records(run.trace, "A")
    }
    release_ticks: List[Optional[int]] = [
        deliveries.get(f"res_A{i}") for i in range(len(bits))
    ]

    lo = model_latency(exp, exp.short_work)
    hi = model_latency(exp, exp.long_work)
    framing = Framing(
        frame_ticks=exp.frame,
        frames=len(bits),
        threshold=(lo + hi) / 2,
        max_latency=exp.frame + 2 * exp.period,
    )
    decoded = decode_from_releases(release_ticks, framing)

    if decoded is None:
        return TrialResult(seed, bits, "", False, 0.5, 0, Fraction(0), 0.0)

    errors = sum(a != b for a, b in zip(bits, decoded))
    ber = errors / len(bits)
    correct = len(bits) - errors
    elapsed = max(t for t in release_ticks if t is not None)
    h2c = Fraction(1) if errors == 0 else Fraction(1.0 - binary_entropy(ber))
    rate = Fraction(correct) * h2c / elapsed if elapsed > 0 else Fraction(0)

    latencies = [t - i * exp.frame for i, t in enumerate(release_ticks)]
    mi = empirical_mi(list(zip(bits, latencies))) / exp.frame

    return TrialResult(
        seed=seed,
        sent=bits,
        decoded=decoded,
        valid=True,
        ber=ber,
        elapsed=elapsed,
        achieved_rate=max(rate, Fraction(0)),
        mi_rate=mi,
    )


def measure(exp: CovertExperiment) -> LeakageReport:
    """Run every trial with its own seed and compare against the bound."""
    trials = [run_trial(exp, exp.seed + k) for k in range(exp.trials)]
    return LeakageReport(experiment=exp, bound=exp.bound, trials=trials)
