"""Builders and assertions for the three multi-tenant labeling scenarios.

* dedicated   - private per-customer cores; isolation by partitioning.
* reservation - one shared core under a demand-blind fixed rotation with an
                empty-labeled scheduler.
* statmux     - one shared core under a demand-driven scheduler carrying all
                users' taint, with per-customer pacers and cross-gateway
                timing declassifiers bounding the resulting leak.

``run_paired`` runs the same scenario with a short and a long second-user
job and diffs what the first user can observe at their gateway.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .entities import (
    ComputeCore,
    DemandScheduler,
    Gateway,
    JobSpec,
    Pacer,
    ReservationScheduler,
    Scheduler,
    check_bits,
    pacer_period,
)
from .kernel import ConfigError, Engine, Phase, TraceKind, TraceRecord
from .labels import INFINITY, TAG_RE, Capability, CapabilitySet, Frequency, Label
from .monitor import Monitor, MonitorMode


@dataclass(frozen=True)
class SchedulerSpec:
    kind: str  # "reservation" | "demand"
    users: Tuple[str, ...]  # rotation or priority order


@dataclass(frozen=True)
class ScenarioConfig:
    users: Tuple[str, ...] = ("A", "B")
    cores: str = "shared"  # "shared" | "private"
    scheduler: Optional[SchedulerSpec] = None
    pacer: Optional[Frequency] = None  # one pacer per user at this frequency
    grants: Mapping[str, Tuple[Capability, ...]] = field(default_factory=dict)
    jobs: Tuple[JobSpec, ...] = ()
    horizon: int = 200
    seed: int = 0
    monitor_mode: MonitorMode = MonitorMode.RECORD_AND_DROP

    def __post_init__(self) -> None:
        self.validate()  # valid by construction, ``dataclasses.replace`` too

    def validate(self) -> "ScenarioConfig":
        _check_users(self.users)
        if self.cores not in ("shared", "private"):
            raise ConfigError(f"cores must be 'shared' or 'private', got {self.cores!r}")
        if self.cores == "shared" and self.scheduler is None:
            raise ConfigError("a shared core needs a scheduler")
        if self.cores == "private" and self.scheduler is not None:
            raise ConfigError("private cores take no scheduler")
        if self.scheduler is not None:
            if self.scheduler.kind not in ("reservation", "demand"):
                raise ConfigError(f"unknown scheduler kind {self.scheduler.kind!r}")
            if not self.scheduler.users or not set(self.scheduler.users) <= set(self.users):
                raise ConfigError("scheduler users must be a non-empty subset of users")
        if self.pacer is not None:
            pacer_period(self.pacer)
        for u, caps in self.grants.items():
            if u not in self.users:
                raise ConfigError(f"grant for unknown user {u!r}")
            for cap in caps:
                if cap.user not in self.users:
                    raise ConfigError(f"capability over unknown user {cap.user!r}")
        if not _whole(self.horizon, 1):
            raise ConfigError("horizon must be an integer >= 1")
        for i, spec in enumerate(self.jobs):
            if spec.owner not in self.users:
                raise ConfigError(f"jobs[{i}].owner {spec.owner!r} is not in users")
            if not _whole(spec.work, 1):
                raise ConfigError(f"jobs[{i}].work must be an integer >= 1")
            if not (_whole(spec.arrival, 0) and spec.arrival < self.horizon):
                raise ConfigError(
                    f"jobs[{i}].arrival must be an integer within the horizon")
            check_bits(spec.payload, f"jobs[{i}].payload")
        return self

    def classify(self) -> str:
        """Name the topology this config realizes."""
        if self.cores == "private" and self.pacer is None:
            return "dedicated"
        if self.cores == "shared" and self.scheduler is not None:
            if self.scheduler.kind == "reservation" and self.pacer is None:
                return "reservation"
            if self.scheduler.kind == "demand" and self.pacer is not None:
                return "statmux"
        return "custom"

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "users": list(self.users),
            "cores": self.cores,
            "scheduler": (
                None
                if self.scheduler is None
                else {"kind": self.scheduler.kind, "users": list(self.scheduler.users)}
            ),
            "pacer": None if self.pacer is None else {"f": str(self.pacer)},
            "grants": {
                u: [str(c) for c in caps] for u, caps in sorted(self.grants.items())
            },
            "jobs": [dataclasses.asdict(j) for j in self.jobs],  # keys are JobSpec's fields
            "horizon": self.horizon,
            "seed": self.seed,
            "monitor_mode": self.monitor_mode.value,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)

    @classmethod
    def from_json_obj(cls, obj: object) -> "ScenarioConfig":
        """Read the full form, or the shorthand
        ``{"scenario": kind, "f": ..., "pacer": bool, ...}`` that
        ``build_scenario`` expands."""
        if isinstance(obj, dict) and "scenario" in obj:
            return _read_shorthand(obj, "config")
        return _read_full(obj, "config")


def _whole(value: object, least: int) -> bool:
    """An int (never a bool or a float) of at least ``least``."""
    return type(value) is int and value >= least


def _check_users(users: Sequence[str]) -> None:
    if not users or len(set(users)) != len(users):
        raise ConfigError("users must be non-empty and unique")
    for u in users:
        if not isinstance(u, str) or not TAG_RE.match(u):
            raise ConfigError(f"users: {u!r} is not a user id ([A-Za-z0-9_]+)")


# -- typed JSON reading ---------------------------------------------------------
# Every config file is read by composing these readers. A reader takes a JSON
# value and its key path and returns the Python value, or raises ConfigError
# naming the path.

Reader = Callable[[object, str], object]


def typed(kind: type, what: str) -> Reader:
    """Exactly ``kind``: a bool is not an int and a float is not an int."""
    def read(value: object, path: str) -> object:
        if type(value) is not kind:
            raise ConfigError(f"{path}: expected {what}, got {value!r:.40}")
        return value
    return read


INT = typed(int, "an integer")
BOOL = typed(bool, "true or false")
STR = typed(str, "a string")
LIST = typed(list, "a list")
OBJECT = typed(dict, "an object")


def parsed(parse: Callable[[str], object]) -> Reader:
    """A string turned into a value by ``parse``."""
    def read(value: object, path: str) -> object:
        try:
            return parse(STR(value, path))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return read


FREQ = parsed(Frequency.parse)


def optional(inner: Reader) -> Reader:
    return lambda value, path: None if value is None else inner(value, path)


def list_of(item: Reader) -> Reader:
    return lambda value, path: tuple(
        item(v, f"{path}[{i}]") for i, v in enumerate(LIST(value, path)))


def map_of(item: Reader) -> Reader:
    """An object with any keys and ``item`` values."""
    return lambda value, path: {
        k: item(v, f"{path}.{k}") for k, v in OBJECT(value, path).items()}


def json_object(build: Callable[..., object], fields: Mapping[str, Reader],
                required: Sequence[str] = (),
                rename: Optional[Mapping[str, str]] = None) -> Reader:
    """An object with keys from ``fields``, passed to ``build`` as keyword
    arguments named by ``rename`` or else by key; absent keys take
    ``build``'s defaults."""
    def read(value: object, path: str) -> object:
        for key in OBJECT(value, path):
            if key not in fields:
                raise ConfigError(f"{path}.{key}: unknown key")
        for key in required:
            if key not in value:
                raise ConfigError(f"{path}.{key}: required key missing")
        return build(**{(rename or {}).get(k, k): fields[k](v, f"{path}.{k}")
                        for k, v in value.items()})
    return read


DEFAULT_JOBS = (JobSpec("A", 4, "1011"), JobSpec("B", 2, "0110"))


def mutual_grants(users: Sequence[str], limit: Frequency) -> Dict[str, Tuple[Capability, ...]]:
    """Each user's gateway declassifies every other user's timing at ``limit``."""
    return {u: tuple(Capability(o, limit) for o in users if o != u) for u in users}


def build_scenario(
    kind: str,
    users: Sequence[str] = ("A", "B"),
    freq: Optional[Frequency] = None,
    jobs: Optional[Sequence[JobSpec]] = None,
    horizon: int = 200,
    seed: int = 0,
    monitor_mode: MonitorMode = MonitorMode.RECORD_AND_DROP,
    pacer_present: bool = True,
) -> ScenarioConfig:
    """Construct one of the three canonical topologies.

    ``statmux`` requires a pacer frequency; ``pacer_present=False`` builds
    the ablated variant (demand scheduler, rate-f grants, but no pacer on
    the result path) used to show the monitor catching the unpaced flow.
    """
    users = tuple(users)
    _check_users(users)  # before any Capability is built from them
    if kind == "dedicated":
        topology: dict = dict(cores="private")
    elif kind == "reservation":
        topology = dict(scheduler=SchedulerSpec("reservation", users))
    elif kind == "statmux":
        if freq is None:
            raise ConfigError("statmux requires a pacer frequency")
        topology = dict(
            scheduler=SchedulerSpec("demand", users),
            pacer=freq if pacer_present else None,
            grants=mutual_grants(users, freq),
        )
    else:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    if jobs is None:
        jobs = tuple(j for j in DEFAULT_JOBS if j.owner in users)
    return ScenarioConfig(users=users, jobs=tuple(jobs), horizon=horizon, seed=seed,
                          monitor_mode=monitor_mode, **topology)


_USERS = list_of(STR)
_COMMON = {"users": _USERS, "horizon": INT, "seed": INT,
           "monitor_mode": parsed(MonitorMode)}
_read_full = json_object(ScenarioConfig, {
    "cores": STR,
    "scheduler": optional(json_object(
        SchedulerSpec, {"kind": STR, "users": _USERS}, required=("kind", "users"))),
    "pacer": optional(json_object(lambda f: f, {"f": FREQ}, required=("f",))),
    "grants": map_of(list_of(parsed(Capability.parse))),
    "jobs": list_of(json_object(
        JobSpec,
        {"owner": STR, "work": INT, "payload": STR, "arrival": INT},
        required=("owner", "work"))),
    **_COMMON,
}, required=("users",))
_read_shorthand = json_object(
    build_scenario, {"scenario": STR, "f": FREQ, "pacer": BOOL, **_COMMON},
    required=("scenario",),
    rename={"scenario": "kind", "f": "freq", "pacer": "pacer_present"})


@dataclass
class ScenarioRun:
    config: ScenarioConfig
    trace: List[TraceRecord]


def wire(cfg: ScenarioConfig) -> Tuple[Engine, Monitor]:
    """Instantiate entities for a config and schedule the initial events
    (arrivals, scheduler/core ticks, pacer clock)."""
    engine = Engine()
    monitor = Monitor(cfg.monitor_mode)

    gateways = {
        u: engine.add(Gateway(u, monitor, CapabilitySet(cfg.grants.get(u, ()))))
        for u in cfg.users
    }

    cores: Dict[str, ComputeCore] = {}
    if cfg.cores == "shared":
        cores = dict.fromkeys(cfg.users, engine.add(ComputeCore("core", cfg.users, monitor)))
    else:
        for u in cfg.users:
            cores[u] = engine.add(ComputeCore(f"core_{u}", (u,), monitor, fixed_user=u))
            engine.schedule(0, cores[u].handle, u)

    for u in cfg.users:
        gateways[u].core = cores[u]
        if cfg.pacer is None:
            cores[u].routes[u] = gateways[u]
        else:
            pacer = engine.add(Pacer(u, cfg.pacer, cfg.users, gateways[u]))
            cores[u].routes[u] = pacer
            engine.schedule(pacer.period, pacer.handle)

    if cfg.scheduler is not None:
        shared = cores[cfg.users[0]]
        if cfg.scheduler.kind == "reservation":
            sched: Scheduler = ReservationScheduler(shared, monitor, cfg.scheduler.users)
        else:
            sched = DemandScheduler(shared, monitor, cfg.scheduler.users)
        engine.add(sched)
        engine.schedule(0, sched.handle)

    counters = {u: 0 for u in cfg.users}
    for spec in cfg.jobs:
        job_id = f"{spec.owner}{counters[spec.owner]}"
        counters[spec.owner] += 1
        engine.schedule(spec.arrival, gateways[spec.owner].ingress, spec, job_id,
                        phase=Phase.ARRIVAL)
    return engine, monitor


def run_scenario(cfg: ScenarioConfig) -> ScenarioRun:
    engine, _ = wire(cfg)
    trace = engine.run_until(cfg.horizon)
    return ScenarioRun(config=cfg, trace=trace)


# -- trace queries ----------------------------------------------------------


def boundary_records(trace: Sequence[TraceRecord], user: str) -> List[TraceRecord]:
    """Deliveries visible to ``user`` at their gateway."""
    return [
        r
        for r in trace
        if r.kind is TraceKind.MSG_RECV and r.entity == f"gw_{user}"
    ]


@dataclass(frozen=True)
class RecordSelector:
    """Picks the ``occurrence``-th record matching kind/entity/detail."""

    kind: Optional[TraceKind] = None
    entity: Optional[str] = None
    detail: Mapping[str, str] = field(default_factory=dict)
    occurrence: int = 0

    def __post_init__(self) -> None:
        if not _whole(self.occurrence, 0):
            raise ConfigError("occurrence must be an integer >= 0")

    def matches(self, record: TraceRecord) -> bool:
        if self.kind is not None and record.kind is not self.kind:
            return False
        if self.entity is not None and record.entity != self.entity:
            return False
        return all(record.detail.get(k) == v for k, v in self.detail.items())

    def find(self, trace: Sequence[TraceRecord]) -> Optional[TraceRecord]:
        hits = [r for r in trace if self.matches(r)]
        if self.occurrence < len(hits):
            return hits[self.occurrence]
        return None

    def describe(self) -> str:
        parts = []
        if self.kind is not None:
            parts.append(self.kind.value)
        if self.entity is not None:
            parts.append(f"at {self.entity}")
        if self.detail:
            parts.append(",".join(f"{k}={v}" for k, v in sorted(self.detail.items())))
        parts.append(f"#{self.occurrence}")
        return " ".join(parts)


@dataclass(frozen=True)
class LabelCheck:
    selector: RecordSelector
    expected: Label
    record: Optional[TraceRecord]

    @property
    def actual(self) -> Optional[Label]:
        return None if self.record is None else self.record.label

    @property
    def ok(self) -> bool:
        return self.actual == self.expected

    @property
    def message(self) -> str:
        if self.record is None:
            return f"no record matches {self.selector.describe()}"
        if not self.ok:
            return f"{self.selector.describe()}: expected {self.expected}, got {self.actual}"
        return "ok"

    def __str__(self) -> str:
        """One report line: the expected label, or why the check failed."""
        if self.ok:
            return f"ok   {self.selector.describe()} = {self.expected}"
        return f"FAIL {self.message}"


def assert_labels(
    trace: Sequence[TraceRecord],
    expectations: Sequence[Tuple[RecordSelector, Label]],
) -> List[LabelCheck]:
    """Exact label equality per selector; a missing record is a failure."""
    return [LabelCheck(selector, expected, selector.find(trace))
            for selector, expected in expectations]


# The --expect file of check-labels, as (selector, label) pairs.
read_expectations = list_of(json_object(
    lambda label, **selector: (RecordSelector(**selector), label),
    {"kind": optional(parsed(TraceKind)), "entity": optional(STR),
     "detail": map_of(STR), "occurrence": INT, "label": parsed(Label.parse)},
    required=("label",),
))


def default_label_expectations(cfg: ScenarioConfig) -> List[Tuple[RecordSelector, Label]]:
    """The labels each canonical topology promises on the first user's
    first result."""
    first = cfg.users[0]
    job = f"{first}0"
    kind = cfg.classify()
    own_only = Label((first,), {first: INFINITY})
    if kind in ("dedicated", "reservation"):
        return [
            (RecordSelector(TraceKind.MSG_RECV, f"gw_{first}",
                            {"msg": f"res_{job}"}), own_only),
        ]
    if kind == "statmux":
        full = Label((first,), {u: INFINITY for u in cfg.users})
        paced = full.pace_down(cfg.pacer)
        return [
            (RecordSelector(TraceKind.MSG_SEND, "core", {"msg": f"res_{job}"}), full),
            (RecordSelector(TraceKind.PACER_RELEASE, f"pacer_{first}",
                            {"msg": f"res_{job}"}), paced),
            (RecordSelector(TraceKind.MSG_RECV, f"gw_{first}",
                            {"msg": f"res_{job}"}), paced),
        ]
    if (cfg.cores == "shared" and cfg.scheduler is not None
            and cfg.scheduler.kind == "demand" and cfg.pacer is None):
        # Pacer-removed multiplexing: still expect the delivery, carrying
        # every user's unbounded taint. The monitor denying it is exactly
        # what this expectation is meant to surface.
        full = Label((first,), {u: INFINITY for u in cfg.users})
        return [
            (RecordSelector(TraceKind.MSG_RECV, f"gw_{first}",
                            {"msg": f"res_{job}"}), full),
        ]
    return []


# -- paired runs -------------------------------------------------------------


@dataclass
class PairedRunReport:
    """Short-vs-long comparison at the first user's boundary."""

    scenario: str
    vary_user: str
    short_work: int
    long_work: int
    run_short: ScenarioRun
    run_long: ScenarioRun
    alice_diff: List[dict]
    label_checks: List[LabelCheck]
    boundary_ok: Optional[bool]

    @property
    def isolation_required(self) -> bool:
        return self.scenario in ("dedicated", "reservation")

    @property
    def passed(self) -> bool:
        if any(not c.ok for c in self.label_checks):
            return False
        if self.isolation_required and self.alice_diff:
            return False
        if self.boundary_ok is False:
            return False
        return True

    def to_json_obj(self) -> dict:
        return {
            "scenario": self.scenario,
            "vary_user": self.vary_user,
            "short_work": self.short_work,
            "long_work": self.long_work,
            "isolation_required": self.isolation_required,
            "alice_diff": self.alice_diff,
            "boundary_ok": self.boundary_ok,
            "label_checks": [
                {
                    "selector": c.selector.describe(),
                    "expected": str(c.expected),
                    "actual": None if c.actual is None else str(c.actual),
                    "ok": c.ok,
                    "message": c.message,
                }
                for c in self.label_checks
            ],
            "passed": self.passed,
            "trace_short": [json.loads(r.to_json()) for r in self.run_short.trace],
            "trace_long": [json.loads(r.to_json()) for r in self.run_long.trace],
        }

    def to_text(self) -> str:
        lines = [
            f"scenario {self.scenario}: vary {self.vary_user} work "
            f"{self.short_work} vs {self.long_work}",
            f"isolation required: {self.isolation_required}; "
            f"boundary-visible diffs: {len(self.alice_diff)}",
        ]
        if self.boundary_ok is not None:
            lines.append(f"deliveries on pacer boundaries: {self.boundary_ok}")
        lines += [f"label {c}" for c in self.label_checks]
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        lines.append("")
        lines.append(f"-- schedule, {self.vary_user} short ({self.short_work}) --")
        lines.append(render_schedule(self.run_short.trace, self.run_short.config))
        lines.append(f"-- schedule, {self.vary_user} long ({self.long_work}) --")
        lines.append(render_schedule(self.run_long.trace, self.run_long.config))
        return "\n".join(lines)


def run_paired(cfg: ScenarioConfig, short_work: int, long_work: int) -> PairedRunReport:
    """Run with the second user's jobs at ``short_work`` then ``long_work``
    slices and diff the first user's gateway deliveries."""
    if short_work == long_work:
        raise ConfigError("paired runs need distinct short and long work")
    if len(cfg.users) < 2:
        raise ConfigError("paired runs need a second user to vary")
    observer, vary = cfg.users[:2]
    if not any(j.owner == vary for j in cfg.jobs):
        raise ConfigError(f"paired runs vary user {vary}, who has no jobs")
    if not any(j.owner == observer for j in cfg.jobs):
        raise ConfigError(f"paired runs observe user {observer}, who has no jobs")

    def with_work(work: int) -> ScenarioConfig:
        jobs = tuple(
            dataclasses.replace(j, work=work) if j.owner == vary else j
            for j in cfg.jobs
        )
        return dataclasses.replace(cfg, jobs=jobs)

    cfg_short, cfg_long = with_work(short_work), with_work(long_work)
    run_short = run_scenario(cfg_short)
    run_long = run_scenario(cfg_long)

    seen = [boundary_records(run.trace, observer) for run in (run_short, run_long)]
    short_view, long_view = ([r.to_json() for r in recs] for recs in seen)
    diff = []
    for i in range(max(len(short_view), len(long_view))):
        s = short_view[i] if i < len(short_view) else None
        l = long_view[i] if i < len(long_view) else None
        if s != l:
            diff.append({"index": i, "short": s, "long": l})

    kind = cfg.classify()
    expectations = default_label_expectations(cfg)  # independent of job work
    checks = assert_labels(run_short.trace, expectations)
    checks += assert_labels(run_long.trace, expectations)

    boundary_ok: Optional[bool] = None
    if cfg.pacer is not None:
        period = pacer_period(cfg.pacer)
        boundary_ok = all(r.t % period == 0 for recs in seen for r in recs)

    return PairedRunReport(
        scenario=kind,
        vary_user=vary,
        short_work=short_work,
        long_work=long_work,
        run_short=run_short,
        run_long=run_long,
        alice_diff=diff,
        label_checks=checks,
        boundary_ok=boundary_ok,
    )


# -- ASCII schedule chart -----------------------------------------------------


def render_schedule(trace: Sequence[TraceRecord], cfg: ScenarioConfig) -> str:
    """Rows of core occupancy per user plus delivery marks per gateway.

    '#'-cells are executed slices, 'R' marks a delivery reaching the
    customer, 'X' a denied delivery attempt.
    """
    slices: Dict[Tuple[str, str], List[int]] = {}
    outs: Dict[str, Dict[int, str]] = {f"gw_{u}": {} for u in cfg.users}
    for r in trace:
        if r.kind is TraceKind.SLICE_START:
            slices.setdefault((r.entity, r.detail["owner"]), []).append(r.t)
        elif r.entity in outs:
            if r.kind is TraceKind.MSG_RECV:
                outs[r.entity].setdefault(r.t, "R")
            elif r.kind is TraceKind.MONITOR_DENY:
                outs[r.entity][r.t] = "X"  # a denial outranks a delivery

    drawn = [t for ts in slices.values() for t in ts]
    drawn += [t for marks in outs.values() for t in marks]
    last = max(drawn, default=0)
    width = min(cfg.horizon + 1, last + 2)  # the run includes t = horizon

    def row(marks: Mapping[int, str]) -> str:
        return "".join(marks.get(t, ".") for t in range(width))

    name_w = max(
        [len(f"{c}/{u}") for c, u in slices] + [len(f"out:{u}") for u in cfg.users] + [5]
    )
    tens = "".join(str((t // 10) % 10) if t % 10 == 0 else " " for t in range(width))
    ones = "".join(str(t % 10) for t in range(width))
    lines = [f"{'tick':<{name_w}} {tens}", f"{'':<{name_w}} {ones}"]
    for (core, user) in sorted(slices):
        lines.append(f"{f'{core}/{user}':<{name_w}} "
                     + row({t: "#" for t in slices[(core, user)]}))
    for u in cfg.users:
        lines.append(f"{f'out:{u}':<{name_w}} " + row(outs[f"gw_{u}"]))
    return "\n".join(lines)
