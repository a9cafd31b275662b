"""The benchmark under ``bench/`` reaches into tifcsim by name: the calls its
tracer wraps, the handlers it counts and the attributes it reads from the
package. Deleting or renaming one of them breaks ``bench/run.py`` while every
other test here still passes, so these tests hold that contract. They only
read ``bench/``."""

import ast
import importlib
import json
import sys
from functools import reduce
from pathlib import Path

import pytest

import tifcsim
import tifcsim.cli  # noqa: F401  (bench/ reads tifcsim.cli)

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDENS = Path(__file__).resolve().parent / "data"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def wrappable(module, qualname):
    """Whether the tracer can find ``qualname`` in ``tifcsim.<module>``."""
    owner = importlib.import_module(f"tifcsim.{module}")
    cls_name, _, attr = qualname.rpartition(".")
    if cls_name:
        # the tracer wraps what the class itself defines, not what it inherits
        cls = getattr(owner, cls_name, None)
        return cls is not None and attr in vars(cls)
    return hasattr(owner, attr)


def test_traced_and_counted_calls_resolve():
    tracer, workloads = bench_module("tracer"), bench_module("workloads")
    targets = [t[1:] for t in tracer.TARGETS + workloads.HANDLERS + workloads.RUNS]
    assert [f"tifcsim.{m}.{q}" for m, q in targets if not wrappable(m, q)] == []


def tifcsim_reads(tree):
    """Dotted names read from ``tifcsim`` (``tifcsim.labels.Label``) and
    names imported from the package root."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tifcsim":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "tifcsim":
                yield ".".join(reversed(parts))


def resolves(dotted):
    try:
        reduce(getattr, dotted.split("."), tifcsim)
    except AttributeError:
        return False
    return True


def test_names_bench_reads_from_the_package_exist():
    reads = {(path.name, name) for path in sorted(BENCH.glob("*.py"))
             for name in tifcsim_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert ("run.py", "trace_to_jsonl") in reads  # the scan sees the benchmark
    assert sorted(r for r in reads if not resolves(r[1])) == []


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# The loaders the benchmark's set-up probe names in ``Workload.files``.
LOADERS = {
    "cli": lambda path: tifcsim.cli.load_scenario(path, None),
    "scenario": lambda path: tifcsim.ScenarioConfig.from_json_obj(read_json(path)),
    "experiment": lambda path: tifcsim.CovertExperiment.from_json_obj(read_json(path)),
}


def test_every_config_the_bench_writes_loads(tmp_path):
    # a config key the benchmark writes cannot be removed from the program
    workloads = bench_module("workloads")
    used = set()
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for path, loader in workload(1, workdir, "tiny").files.items():
            LOADERS[loader](path)
            used.add(loader)
    assert used == set(LOADERS)


# The calls the benchmark makes and what it reads off their results, made the
# way it makes them: pre-flight builds each kind at f = 1/5 and compares its
# run with the golden, the set-up probe loads files with no seed, the sparse
# workload pairs 2 against 7 and the campaign reads each trial's verdict.


@pytest.mark.parametrize("kind", ["dedicated", "reservation", "statmux"])
def test_paired_run_as_the_bench_calls_it(kind, tmp_path):
    cfg = tifcsim.build_scenario(kind, freq=tifcsim.Frequency(1, 5))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.canonical_json(), encoding="utf-8")
    assert tifcsim.cli.load_scenario(str(path), None) == cfg
    report = tifcsim.scenarios.run_paired(cfg, 2, 7)
    assert report.passed and report.alice_diff == []
    # the short run keeps the second user's default work, so it is the golden run
    assert tifcsim.trace_to_jsonl(report.run_short.trace) == \
        (GOLDENS / f"{kind}.jsonl").read_text(encoding="utf-8")
    assert report.to_text().startswith(f"scenario {kind}: vary B work 2 vs 7\n")


def test_measure_trial_as_the_bench_reads_it():
    exp = tifcsim.CovertExperiment.from_json_obj(
        {"f": "1/5", "short": 1, "long": 3, "paced": True, "horizon": 325, "trials": 1})
    (trial,) = tifcsim.leakage.measure(exp).trials
    assert trial.valid
    assert len(trial.decoded) == 64 and set(trial.decoded) <= {"0", "1"}
    assert trial.elapsed == 320  # the 64th frame's probe, released on its period boundary
