"""Seeded inputs and the four workloads of the tifcsim benchmark.

Every input is drawn from ``random.Random(f"{workload}:{seed}")``, so the
same seed gives byte-identical configs. The program sees only the configs
(and, for ``trace_replay``, the trace generated from one). Each job stream
has a fixed multiset of work sizes (1..6 slices, cycled) and a fixed count
per owner, so offered load is the same for every seed and only arrival
ticks, owner order and payload bits vary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import oracle
from tracer import patched

PACER_F = "1/5"
KINDS = ("dedicated", "reservation", "statmux")
SHORT_WORK, LONG_WORK = 2, 7  # the paired-run defaults of ``tifc-sim paired``

# Horizons in ticks and trial counts. "tiny" exists for the benchmark's own
# tests only.
SIZES = {
    "full": {"busy": 400, "sparse": 800, "trials": 1, "replay": 300},
    "tiny": {"busy": 120, "sparse": 200, "trials": 1, "replay": 60},
}

# (name, module, qualname) of the calls counted while capturing statistics.
HANDLERS = (
    ("gateway", "entities", "Gateway.handle"),
    ("core", "entities", "ComputeCore.handle"),
    ("scheduler", "entities", "Scheduler.handle"),
    ("pacer", "entities", "Pacer.handle"),
)
RUNS = (("run_scenario", "scenarios", "run_scenario"),)


def job_stream(rng: random.Random, users: Sequence[str], horizon: int,
               load: float) -> List[dict]:
    """Jobs whose total work is ``load`` of one core over ``horizon``."""
    n = max(len(users), round(load * horizon / 3.5))
    works = [1 + i % 6 for i in range(n)]
    owners = [users[i % len(users)] for i in range(n)]
    rng.shuffle(works)
    rng.shuffle(owners)
    arrivals = sorted(rng.randrange(horizon * 9 // 10) for _ in range(n))
    return [
        {"owner": o, "work": w, "payload": format(rng.getrandbits(8), "08b"),
         "arrival": a}
        for o, w, a in zip(owners, works, arrivals)
    ]


def scenario_obj(kind: str, users: Sequence[str], jobs: List[dict],
                 horizon: int, seed: int) -> dict:
    """Full JSON form of one of the three canonical topologies."""
    obj = {"users": list(users), "jobs": jobs, "horizon": horizon, "seed": seed}
    if kind == "dedicated":
        obj["cores"] = "private"
    elif kind == "reservation":
        obj.update(cores="shared", scheduler={"kind": "reservation", "users": list(users)})
    else:
        obj.update(
            cores="shared",
            scheduler={"kind": "demand", "users": list(users)},
            pacer={"f": PACER_F},
            grants={u: [f"{o}-:{PACER_F}" for o in users if o != u] for u in users},
        )
    return obj


def delivered(records) -> Dict[str, List[tuple]]:
    """Gateway deliveries ``(t, msg, label, payload)`` by user."""
    out: Dict[str, List[tuple]] = {}
    for r in records:
        if r.kind.value == "MsgRecv" and r.entity.startswith("gw_"):
            out.setdefault(r.entity[3:], []).append(
                (r.t, r.detail["msg"], str(r.label), r.detail["payload"]))
    return out


def _delivery(r: dict) -> tuple:
    """A delivery from one decoded JSON trace line."""
    return (r["t"], r["detail"]["msg"], r["label"], r["detail"]["payload"])


def trace_stats(runs: Sequence[Tuple[int, int, Sequence]], events: int) -> dict:
    """Simulated statistics over ``(horizon, cores, records)`` runs. These
    are deterministic for a given program and input."""
    kinds: Counter = Counter()
    records = polling = slices = core_ticks = backlog = 0
    digest = hashlib.sha256()
    for horizon, cores, trace in runs:
        core_ticks += cores * (horizon + 1)
        for r in trace:
            kinds[r.kind.value] += 1
            msg = r.detail.get("msg", "")
            polling += msg.startswith(("demand@", "ctl@"))
            if r.kind.value == "SliceStart":
                slices += 1
            elif r.kind.value == "MsgRecv" and r.entity.startswith("pacer_"):
                backlog = max(backlog, int(r.detail["queued"]))
            digest.update(r.to_json().encode() + b"\n")
        records += len(trace)
    return {
        "records": records,
        "records_by_kind": dict(sorted(kinds.items())),
        "events_dispatched": events,
        "monitor_allows": kinds["MonitorAllow"],
        "monitor_denies": kinds["MonitorDeny"],
        "core_busy_ratio": slices / core_ticks if core_ticks else 0.0,
        "pacer_backlog_max": backlog,
        "polling_ratio": polling / records if records else 0.0,
        "trace_sha256": digest.hexdigest(),
    }


def _cores(cfg) -> int:
    return len(cfg.users) if cfg.cores == "private" else 1


class Workload:
    """One workload: seeded configs, a timed operation and its pinned
    verdict. Subclasses set ``name`` and fill ``files`` (config path ->
    loader name for the set-up probe)."""

    name = ""
    tenants = 0
    load = 0.0  # offered load: job slices per core tick
    ticks = 0  # simulated ticks covered by one operation

    def __init__(self, seed: int, workdir: Path, size: str = "full"):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.size = SIZES[size]
        self.workdir = workdir
        self.files: Dict[str, str] = {}

    def write(self, stem: str, obj: dict, loader: str) -> Path:
        path = self.workdir / f"{stem}.json"
        path.write_text(json.dumps(obj, sort_keys=True, indent=1), encoding="utf-8")
        self.files[str(path)] = loader
        return path

    def prepare(self, tifcsim) -> None:
        """Parse and validate the configs with the program (set-up)."""
        raise NotImplementedError

    def generate(self) -> None:
        """Input generation that needs the program; not part of set-up."""

    def op(self):
        raise NotImplementedError

    def verdict(self, result):
        raise NotImplementedError

    def pin(self):
        """The verdict the reference model expects."""
        raise NotImplementedError

    def capture(self) -> Tuple[object, dict]:
        """Run one operation while counting event dispatches and capturing
        every scenario run, and return its result and statistics."""
        calls = Counter()
        runs = []

        def count(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def keep(name, fn):
            def kept(cfg, *args, **kwargs):
                run = fn(cfg, *args, **kwargs)
                runs.append((cfg.horizon, _cores(cfg), run.trace))
                return run
            return kept

        with patched(HANDLERS, count), patched(RUNS, keep):
            result = self.op()
        return result, trace_stats(self.runs_for_stats(result, runs), sum(calls.values()))

    def runs_for_stats(self, result, runs):
        return runs


class StatmuxBusy(Workload):
    """``tifc-sim run`` on a 4-tenant statmux config at offered load 0.9."""

    name = "statmux_busy"
    tenants = 4
    load = 0.9

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        users = ("A", "B", "C", "D")
        horizon = self.size["busy"]
        self.obj = scenario_obj("statmux", users,
                                job_stream(self.rng, users, horizon, self.load),
                                horizon, seed)
        self.path = self.write("busy", self.obj, "cli")
        self.out = self.workdir / "run_out"
        self.ticks = horizon

    def prepare(self, tifcsim):
        self.cli = tifcsim.cli
        self.cli.load_scenario(str(self.path), None)

    def op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["run", "--config", str(self.path), "--out", str(self.out)])
        return code

    def verdict(self, code):
        out: Dict[str, List[tuple]] = {}
        with open(self.out / "trace.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if '"kind":"MsgRecv"' in line and '"entity":"gw_' in line:
                    r = json.loads(line)
                    out.setdefault(r["entity"][3:], []).append(_delivery(r))
        return {"exit": code, "deliveries": out,
                "chart": (self.out / "chart.txt").stat().st_size > 0}

    def pin(self):
        return {"exit": 0, "deliveries": oracle.deliveries(self.obj), "chart": True}


class StatmuxSparse(Workload):
    """``run_paired`` over dedicated, reservation and statmux, 2 tenants at
    offered load 0.02: almost every record is per-tick polling."""

    name = "statmux_sparse"
    tenants = 2
    load = 0.02

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        users = ("A", "B")
        horizon = self.size["sparse"]
        jobs = job_stream(self.rng, users, horizon, self.load)
        self.objs = [scenario_obj(kind, users, jobs, horizon, seed) for kind in KINDS]
        for obj, kind in zip(self.objs, KINDS):
            self.write(f"sparse_{kind}", obj, "scenario")
        self.ticks = 2 * horizon * len(self.objs)

    def prepare(self, tifcsim):
        self.run_paired = lambda cfg: tifcsim.scenarios.run_paired(cfg, SHORT_WORK, LONG_WORK)
        self.cfgs = [tifcsim.ScenarioConfig.from_json_obj(o) for o in self.objs]

    def op(self):
        reports = [self.run_paired(cfg) for cfg in self.cfgs]
        return reports, [r.to_text() for r in reports]

    def verdict(self, result):
        out = []
        for report in result[0]:
            diff = []
            for d in report.alice_diff:
                short, long_ = (None if s is None else _delivery(json.loads(s))
                                for s in (d["short"], d["long"]))
                if short != long_:
                    diff.append((d["index"], short, long_))
            out.append({
                "short": delivered(report.run_short.trace),
                "long": delivered(report.run_long.trace),
                "diff": diff,
                "passed": report.passed,
            })
        return out

    def pin(self):
        return [oracle.paired(obj, SHORT_WORK, LONG_WORK) for obj in self.objs]


class LeakageCampaign(Workload):
    """``measure()`` on the paced default experiment, the straddle
    experiment and the unpaced ablation: many short runs."""

    name = "leakage_campaign"
    tenants = 2

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        trials = self.size["trials"]
        # Shortest horizons that fit 64 one-period frames (default) or 64
        # two-period frames (straddle) plus one period.
        short_h, long_h = 64 * 5 + 5, 64 * 10 + 5
        self.objs = [
            {"f": PACER_F, "short": 1, "long": 3, "paced": True,
             "horizon": short_h, "trials": trials},
            {"f": PACER_F, "short": 1, "long": 6, "frame": 10, "paced": True,
             "horizon": long_h, "trials": trials},
            {"f": PACER_F, "short": 1, "long": 3, "paced": False,
             "horizon": short_h, "trials": trials},
        ]
        for obj, stem in zip(self.objs, ("default", "straddle", "unpaced")):
            obj["seed"] = self.rng.randrange(1, 2**31)
            self.write(f"leakage_{stem}", obj, "experiment")
        self.ticks = sum(o["horizon"] * o["trials"] for o in self.objs)
        # Mean over the experiments of one trial's work: 64 frames, each a
        # one-slice probe and a sender job of mean length, over the horizon.
        self.load = sum(64 * (1 + (o["short"] + o["long"]) / 2) / o["horizon"]
                        for o in self.objs) / len(self.objs)

    def prepare(self, tifcsim):
        self.measure = tifcsim.leakage.measure
        self.exps = [tifcsim.CovertExperiment.from_json_obj(o) for o in self.objs]

    def op(self):
        return [self.measure(exp) for exp in self.exps]

    def verdict(self, reports):
        return [{"trials": [(t.decoded, t.elapsed, t.valid) for t in r.trials],
                 "all_pass": r.all_pass} for r in reports]

    def pin(self):
        return [oracle.leakage(o) for o in self.objs]


class TraceReplay(Workload):
    """Decode a statmux_busy-shaped JSONL trace, query every user's
    boundary view, chart it and re-encode it. No engine runs."""

    name = "trace_replay"
    tenants = 4
    load = 0.9

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        users = ("A", "B", "C", "D")
        horizon = self.size["replay"]
        self.obj = scenario_obj("statmux", users,
                                job_stream(self.rng, users, horizon, self.load),
                                horizon, seed)
        self.write("replay", self.obj, "scenario")
        self.ticks = horizon

    def prepare(self, tifcsim):
        self.kernel, self.scenarios = tifcsim.kernel, tifcsim.scenarios
        self.cfg = tifcsim.ScenarioConfig.from_json_obj(self.obj)

    def generate(self) -> None:
        trace = self.scenarios.run_scenario(self.cfg).trace
        self.text = self.kernel.trace_to_jsonl(trace)
        self.chart = self.scenarios.render_schedule(trace, self.cfg)

    def op(self):
        records = self.kernel.trace_from_jsonl(self.text)
        views = {u: self.scenarios.boundary_records(records, u) for u in self.cfg.users}
        chart = self.scenarios.render_schedule(records, self.cfg)
        return records, views, chart, self.kernel.trace_to_jsonl(records)

    def verdict(self, result):
        _, views, chart, text = result
        return {"deliveries": delivered(r for view in views.values() for r in view),
                "chart": chart == self.chart, "reencoded": text == self.text}

    def pin(self):
        return {"deliveries": oracle.deliveries(self.obj), "chart": True, "reencoded": True}

    def runs_for_stats(self, result, runs):
        return [(self.cfg.horizon, _cores(self.cfg), result[0])]


WORKLOADS = {w.name: w for w in (StatmuxBusy, StatmuxSparse, LeakageCampaign, TraceReplay)}
