"""Command-line front end.

Subcommands: validate, run, paired, leakage, check-labels. Exit codes:
0 success, 1 assertion/leakage failure, 2 configuration error (an output
file that cannot be written included), 3 denied flow under fatal monitor
mode. Only validate and leakage take --seed: validate prints it in place
of the config's seed field, and leakage draws its trials from it. run
writes trace.jsonl and chart.txt into --out.

paired requires the first user's view to be identical in both runs unless
the config has a demand scheduler. paired, and check-labels without
--expect, check the labels the topology promises on the first user's first
result, whatever the topology.

A config file is one JSON object: a full scenario (users, cores, scheduler
{kind, users}, pacer {f}, grants, jobs [{owner, work, payload, arrival}],
horizon, seed, monitor_mode; the scheduler's users list each of the
users exactly once), a shorthand scenario (scenario, f, pacer,
users, horizon, seed, monitor_mode; f and pacer only for statmux) or, for
leakage, an experiment (f, short, long, frame, paced, topology, trials,
horizon, seed). The --expect file is a list of {kind, entity, detail,
occurrence, label}. An unknown key, a missing required key or a value of
the wrong type is a configuration error naming its key path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from .kernel import ConfigError, MonitorFault, trace_to_jsonl
from .leakage import CovertExperiment, measure
from .scenarios import (
    ScenarioConfig,
    assert_labels,
    default_label_expectations,
    read_expectations,
    render_schedule,
    run_paired,
    run_scenario,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_FATAL = 3


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bad UTF-8, an over-long integer or too-deep nesting
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_scenario(path: str, seed: Optional[int]) -> ScenarioConfig:
    cfg = ScenarioConfig.from_json_obj(_load_json(path))
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _out_dir(path: str) -> Path:
    """Make the output directory before any run, so a bad --out costs none."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc}") from exc
    return Path(path)


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_validate(args) -> int:
    cfg = load_scenario(args.config, args.seed)
    print(cfg.canonical_json())
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_scenario(args.config, None)
    out = _out_dir(args.out)
    run = run_scenario(cfg)
    trace_path = out / "trace.jsonl"
    _write(trace_path, trace_to_jsonl(run.trace))
    chart_path = out / "chart.txt"
    _write(chart_path, render_schedule(run.trace, cfg) + "\n")
    print(f"wrote {trace_path} and {chart_path} ({len(run.trace)} records)")
    return EXIT_OK


def cmd_paired(args) -> int:
    cfg = load_scenario(args.config, None)
    out = _out_dir(args.out)
    report = run_paired(cfg, args.short, args.long)
    _write(out / "report.json",
           json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n")
    _write(out / "report.txt", report.to_text() + "\n")
    print(f"paired {report.scenario}: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.alice_diff)} boundary diffs)")
    return EXIT_OK if report.passed else EXIT_ASSERTION


def cmd_leakage(args) -> int:
    exp = CovertExperiment.from_json_obj(_load_json(args.config))
    if args.seed is not None:
        exp = dataclasses.replace(exp, seed=args.seed)
    out = _out_dir(args.out)
    report = measure(exp)
    _write(out / "report.csv", report.csv_text())
    _write(out / "report.json",
           json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n")
    invalid = sum(not t.valid for t in report.trials)
    note = f" ({invalid} of {len(report.trials)} trials undecodable)" if invalid else ""
    print(f"leakage: max rate {float(report.max_rate):.6g} vs bound "
          f"{float(report.bound):.6g} -> {'PASS' if report.all_pass else 'FAIL'}{note}")
    return EXIT_OK if report.all_pass else EXIT_ASSERTION


def cmd_check_labels(args) -> int:
    cfg = load_scenario(args.config, None)
    if args.expect:
        expectations = read_expectations(_load_json(args.expect), "expect")
    else:
        expectations = default_label_expectations(cfg)
    checks = assert_labels(run_scenario(cfg).trace, expectations)
    for c in checks:
        print(c)
    return EXIT_OK if all(c.ok for c in checks) else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tifc-sim",
        description="Deterministic multi-tenant timing-channel simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True, seed=False):
        p.add_argument("--config", required=True, help="scenario config JSON")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if out:
            p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("validate", help="validate a config and print it canonically")
    common(p, out=False, seed=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run one scenario; write trace and chart")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("paired", help="short-vs-long comparison run")
    common(p)
    p.add_argument("--short", type=int, default=2)
    p.add_argument("--long", type=int, default=7)
    p.set_defaults(func=cmd_paired)

    p = sub.add_parser("leakage", help="covert-channel rate measurement")
    common(p, seed=True)
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("check-labels", help="assert label expectations on a run")
    common(p, out=False)
    p.add_argument("--expect", default=None, help="expectations JSON file")
    p.set_defaults(func=cmd_check_labels)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MonitorFault as exc:
        print(f"fatal monitor denial: {exc}", file=sys.stderr)
        print(exc.record.to_json(), file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
