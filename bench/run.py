"""Benchmark of tifcsim: one workload, one seed, one measured run.

Run from the repository root:

    python3 bench/run.py --workload statmux_busy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` first runs up to 3 operations (at most half the time) with
the public functions of every ``tifcsim`` layer wrapped from outside, then
untraced for the rest, and reports per-layer calls and self time per
operation (``tracer.py``). ``all`` runs every
workload both ways, each in its own process, and prints a table.

Load is one process, one thread, one client in a closed loop: each
operation starts when the previous one has finished. Before timing, the
run regenerates the three golden traces and compares them with
``tests/data``, computes the pinned verdicts with the reference model
(``oracle.py``), and runs two untimed warm-up operations whose simulated
statistics must match each other and any earlier run of the same code.
Every timed operation's verdict must equal the pin.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Files go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "data"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

from tracer import KEYED, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
MAX_TRACED_OPS = 3

END_TO_END = {
    "ticks_per_s": "ticks/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {}
for _name, _, _ in TARGETS:
    PER_LAYER[f"{_name}.calls"] = "calls/op"
    PER_LAYER[f"{_name}.self_ms"] = "ms/op"
for _name in KEYED:
    PER_LAYER[f"{_name}.repeat_ratio"] = "ratio"
PER_LAYER.update({
    "monitor.deny_ratio": "ratio",
    "kernel.events_per_tick": "events/tick",
    "kernel.records_per_tick": "records/tick",
    "kernel.records_per_s": "records/s",
    "entities.polling_ratio": "ratio",
    "entities.core.busy_ratio": "ratio",
    "entities.pacer.backlog_max": "count",
    "trace_overhead": "ratio",
})


def git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_hash() -> str:
    """Identity of the program and benchmark code, for cross-run checks."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tifcsim").glob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail(durations):
    """The highest whole percentile with at least ten samples beyond it,
    by nearest rank: ``(percentile, value, samples beyond)``. With ten or
    fewer samples there is none, and the median is given instead."""
    ordered = sorted(durations)
    n = len(ordered)
    pct = 100 * (n - 10) // n if n > 10 else 50
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def preflight(tifcsim) -> list:
    """Kinds whose regenerated golden trace differs from ``tests/data``."""
    bad = []
    for kind in ("dedicated", "reservation", "statmux"):
        cfg = tifcsim.build_scenario(kind, freq=tifcsim.Frequency(1, 5))
        got = tifcsim.trace_to_jsonl(tifcsim.run_scenario(cfg).trace)
        if got != (GOLDENS / f"{kind}.jsonl").read_text(encoding="utf-8"):
            bad.append(kind)
    return bad


def setup_seconds(files) -> list:
    """Cold set-up times, each in a fresh interpreter."""
    args = [sys.executable, str(BENCH / "setup_probe.py")]
    args += [f"{loader}={path}" for path, loader in files.items()]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Loop:
    """Closed loop with one client; every operation's verdict is checked."""

    def __init__(self, workload, pin):
        self.workload, self.pin = workload, pin
        self.durations, self.failed = [], 0

    def run(self, seconds, max_ops=None, around=None):
        end = time.perf_counter() + seconds
        ops = 0
        while ops == 0 or (time.perf_counter() < end and ops != max_ops):
            ok = self.once(around, ops)
            self.failed += not ok
            ops += 1
        return self

    def once(self, around, index) -> bool:
        start = time.perf_counter()
        try:
            if around is None:
                result = self.workload.op()
            else:
                with around(index):
                    result = self.workload.op()
        except Exception:
            self.durations.append(time.perf_counter() - start)
            traceback.print_exc(file=sys.stderr)
            return False
        self.durations.append(time.perf_counter() - start)
        try:
            return self.workload.verdict(result) == self.pin
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False

    def ticks_per_s(self) -> float:
        return self.workload.ticks * len(self.durations) / sum(self.durations)


def check_stats(workload, seed: int, size: str, stats: list, report: dict) -> bool:
    """Simulated statistics repeat exactly: across the two warm-up
    operations and across runs of the same code on the same input."""
    same = stats[0] == stats[1]
    path = OUT / f"stats-{workload.name}-seed{seed}-{size}-{code_hash()[:16]}.json"
    if path.is_file():
        same = same and json.loads(path.read_text(encoding="utf-8")) == stats[0]
    else:
        path.write_text(json.dumps(stats[0], indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    report["stats"] = stats[0]
    report["stats_repeat"] = same
    return same


def bench(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One run; returns the result object printed as the last line."""
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "git_rev": git_rev(), "loadavg_start": os.getloadavg(),
                "code_sha256": code_hash()},
    }
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[name](seed, workdir, size)
        report["workload_record"] = {"loop": "closed, 1 client", "tenants": workload.tenants,
                                     "offered_load": workload.load,
                                     "ticks_per_op": workload.ticks}
        if not trace:
            samples = setup_seconds(workload.files)
            report["setup_samples_s"] = samples

        import tifcsim
        import tifcsim.cli  # noqa: F401  (the traced layers include the CLI)

        report["env"]["tifcsim_path"] = tifcsim.__file__
        if Path(tifcsim.__file__).resolve().parent != (SRC / "tifcsim").resolve():
            raise SystemExit(f"tifcsim imported from {tifcsim.__file__}, not {SRC}")
        bad_goldens = preflight(tifcsim)
        report["golden_mismatch"] = bad_goldens

        workload.prepare(tifcsim)
        workload.generate()
        pin = report["pin"] = workload.pin()
        warm = [workload.capture() for _ in range(2)]
        warm_ok = all(workload.verdict(result) == pin for result, _ in warm)
        stats_ok = check_stats(workload, seed, size, [s for _, s in warm], report)
        del warm

        if not trace:
            loops = [Loop(workload, pin).run(seconds)]
            durations = loops[0].durations
            pct, worst, beyond = tail(durations)
            metrics = {
                "ticks_per_s": loops[0].ticks_per_s(),
                "op_ms_p50": statistics.median(durations) * 1e3,
                "op_ms_tail": worst * 1e3,
                "setup_s": statistics.median(samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            report["op_ms_tail_percentile"] = pct
            report["op_ms_tail_beyond"] = beyond
        else:
            tracer = Tracer()

            def around(index):
                tracer.op = index
                return tracer.active()

            start = time.perf_counter()
            traced = Loop(workload, pin).run(seconds / 2, MAX_TRACED_OPS, around)
            plain = Loop(workload, pin).run(seconds - (time.perf_counter() - start))
            loops = [plain, traced]
            tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl")
            metrics = layer_metrics(workload, tracer, report["stats"], plain, traced)
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop.durations) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    report["durations_s"] = [loop.durations for loop in loops]
    report["fail_ratio"] = failed / attempted
    result = {
        "correct": not bad_goldens and warm_ok and stats_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    report["result"] = result
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def layer_metrics(workload, tracer, stats, plain, traced) -> dict:
    metrics = tracer.per_op(len(traced.durations))
    ticks = workload.ticks
    decisions = stats["monitor_allows"] + stats["monitor_denies"]
    metrics.update({
        "monitor.deny_ratio": stats["monitor_denies"] / decisions if decisions else 0.0,
        "kernel.events_per_tick": stats["events_dispatched"] / ticks,
        "kernel.records_per_tick": stats["records"] / ticks,
        "kernel.records_per_s": stats["records"] * len(plain.durations) / sum(plain.durations),
        "entities.polling_ratio": stats["polling_ratio"],
        "entities.core.busy_ratio": stats["core_busy_ratio"],
        "entities.pacer.backlog_max": stats["pacer_backlog_max"],
        "trace_overhead": traced.ticks_per_s() / plain.ticks_per_s(),
    })
    return metrics


def print_result(name: str, result: dict, report_path: Path) -> None:
    for key, m in result["metrics"].items():
        print(f"{name:<17} {key:<36} {m['value']:<14.6g} {m['unit']}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{name:<17} {'fail_ratio':<36} {fail_ratio:<14.6g} failed/attempted")
    if report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if "op_ms_tail_percentile" in report:
            print(f"{name:<17} op_ms_tail is p{report['op_ms_tail_percentile']} of "
                  f"{result['attempted']} operations, {report['op_ms_tail_beyond']} beyond it")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print_result(name, result, OUT / f"{name}-seed{seed}-trace{trace}.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tifcsim" / "__init__.py").is_file() or not GOLDENS.is_dir():
        print(f"run from a tifcsim checkout: {SRC / 'tifcsim'} or {GOLDENS} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result,
                 OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
