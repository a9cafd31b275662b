"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tifcsim  # noqa: E402
import tifcsim.cli  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def make(name, seed, tmp_path):
    workload = WORKLOADS[name](seed, tmp_path, "tiny")
    workload.prepare(tifcsim)
    workload.generate()
    return workload


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    def files(seed, sub):
        (tmp_path / sub).mkdir()
        WORKLOADS[name](seed, tmp_path / sub, "full")
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_matches_reference_model(name, seed, tmp_path):
    workload = make(name, seed, tmp_path)
    pin = workload.pin()
    result, stats = workload.capture()
    assert workload.verdict(result) == pin
    assert workload.verdict(workload.op()) == pin
    assert workload.capture()[1] == stats


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_bench_run_reports_every_metric(name, trace):
    result = run.bench(name, 3, 0.05, trace, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(names)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_broken_pacer_fails_the_verdict(tmp_path, monkeypatch):
    workload = make("statmux_busy", 1, tmp_path)
    monkeypatch.setattr(tifcsim.labels.Label, "pace_down", lambda self, limit: self)
    assert workload.verdict(workload.op()) != workload.pin()


def test_reference_model_matches_the_goldens():
    for kind in ("dedicated", "reservation", "statmux"):
        cfg = tifcsim.build_scenario(kind, freq=tifcsim.Frequency(1, 5))
        records = tifcsim.run_scenario(cfg).trace
        want = oracle.deliveries(cfg.to_json_obj())
        for user in cfg.users:
            got = [(r.t, r.detail["msg"], str(r.label), r.detail["payload"])
                   for r in tifcsim.boundary_records(records, user)]
            assert got == want.get(user, []), (kind, user)


def test_tracer_restores_originals_and_nests_spans(tmp_path):
    workload = make("statmux_sparse", 1, tmp_path)
    before = {m: dict(vars(m)) for m in (tifcsim.labels.Label, tifcsim.monitor,
                                          tifcsim.entities, tifcsim.scenarios)}
    tracer = Tracer()
    tracer.op = 0
    with tracer.active():
        workload.op()
    assert {m: dict(vars(m)) for m in before} == before
    per = tracer.per_op(1)
    assert per["scenarios.run_paired.calls"] == 3
    assert per["kernel.dispatch.calls"] == 6
    for name, _, _ in TARGETS:
        assert per[f"{name}.self_ms"] >= 0
    for span in tracer.spans:
        if span[1] >= 0:
            parent = tracer.spans[span[1]]
            assert parent[3] <= span[3] <= span[4] <= parent[4]


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer, inner = tracer.names.index("cli.main"), tracer.names.index("kernel.emit")
    tracer.spans = [[0, -1, outer, 0, 10_000_000], [0, 0, inner, 2_000_000, 5_000_000]]
    per = tracer.per_op(1)
    assert per["cli.main.self_ms"] == pytest.approx(7.0)
    assert per["kernel.emit.self_ms"] == pytest.approx(3.0)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([i / 1000 for i in range(100)]) == (90, 0.089, 10)
    pct, _, beyond = run.tail(list(range(137)))
    assert pct == 92 and beyond >= 10


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
