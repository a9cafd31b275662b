import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tifcsim.cli import main
from tifcsim.leakage import LeakageReport, TrialResult


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def statmux_cfg(tmp_path):
    return write(tmp_path / "statmux.json", {"scenario": "statmux", "f": "1/5"})


def test_validate_prints_canonical_config(statmux_cfg, capsys):
    assert main(["validate", "--config", statmux_cfg]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pacer"]["f"] == "1/5"
    assert obj["grants"] == {"A": ["B-:1/5"], "B": ["A-:1/5"]}


def test_run_writes_trace_and_chart(statmux_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", statmux_cfg, "--out", str(out)]) == 0
    trace = (out / "trace.jsonl").read_text()
    assert '"kind":"PacerRelease"' in trace
    assert "#" in (out / "chart.txt").read_text()


def test_run_dedicated_chart_has_disjoint_core_rows(tmp_path):
    cfg = write(tmp_path / "ded.json", {"scenario": "dedicated"})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    chart = (out / "chart.txt").read_text()
    rows = {line.split()[0] for line in chart.splitlines()[2:] if line.strip()}
    assert {"core_A/A", "core_B/B"} <= rows
    assert not {"core_A/B", "core_B/A"} & rows


def test_run_same_invocation_byte_identical(statmux_cfg, tmp_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["run", "--config", statmux_cfg, "--out", str(out)]) == 0
        outs.append((out / "trace.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_paired_pass_and_report_files(statmux_cfg, tmp_path):
    out = tmp_path / "paired"
    assert main(["paired", "--config", statmux_cfg, "--short", "2",
                 "--long", "7", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert (out / "report.txt").read_text()


def test_paired_detects_broken_isolation(tmp_path):
    cfg = write(tmp_path / "res.json", {"scenario": "reservation"})
    rc = main(["paired", "--config", cfg, "--short", "2", "--long", "7",
               "--out", str(tmp_path / "res_out")])
    assert rc == 0  # baseline sanity: reservation isolates

    # pacer removed: the monitor denies the delivery the default
    # expectations still require, so the run must exit 1
    broken = write(tmp_path / "broken.json",
                   {"scenario": "statmux", "f": "1/5", "pacer": False})
    out = tmp_path / "broken_out"
    rc = main(["paired", "--config", broken, "--short", "2", "--long", "7",
               "--out", str(out)])
    assert rc == 1


def test_leakage_pass_and_fail(tmp_path):
    ok = write(tmp_path / "ok.json", {"f": "1/5", "trials": 2, "seed": 9})
    out = tmp_path / "leak"
    assert main(["leakage", "--config", ok, "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text()
    assert rows.count("True") == 2

    bad = write(tmp_path / "bad.json",
                {"f": "1/5", "trials": 2, "seed": 9, "paced": False})
    assert main(["leakage", "--config", bad, "--out", str(out)]) == 1


def test_check_labels_defaults_and_custom(statmux_cfg, tmp_path, capsys):
    assert main(["check-labels", "--config", statmux_cfg]) == 0
    expect = write(tmp_path / "expect.json", [
        {"kind": "PacerRelease", "entity": "pacer_A",
         "detail": {"msg": "res_A0"}, "label": "{A/A:1/5,B:1/5}"},
    ])
    assert main(["check-labels", "--config", statmux_cfg,
                 "--expect", expect]) == 0
    wrong = write(tmp_path / "wrong.json", [
        {"kind": "PacerRelease", "entity": "pacer_A", "label": "{-/-}"},
    ])
    capsys.readouterr()
    assert main(["check-labels", "--config", statmux_cfg,
                 "--expect", wrong]) == 1
    # the failure names its selector once
    assert capsys.readouterr().out == (
        "FAIL PacerRelease at pacer_A #0: expected {-/-}, got {A/A:1/5,B:1/5}\n")


FULL = {
    "users": ["A", "B"],
    "cores": "shared",
    "scheduler": {"kind": "demand", "users": ["A", "B"]},
    "pacer": {"f": "1/5"},
    "jobs": [{"owner": "A", "work": 2, "payload": "01", "arrival": 0}],
    "horizon": 20,
}
SHORT = {"scenario": "statmux", "f": "1/5"}
LEAK = {"f": "1/5", "trials": 1}


def edit(base, path, value):
    """A deep copy of ``base`` with the value at key ``path`` replaced."""
    obj = json.loads(json.dumps(base))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


# Raw bytes that are not JSON the decoder can return: not UTF-8, an integer
# over Python's digit limit, nesting deeper than the recursion limit.
NOT_JSON = {
    "not-utf8": b'{"users": ["A\xff"]}',
    "long-int": b'{"horizon": ' + b"9" * 5000 + b"}",
    "deep-array": b"[" * 100_000 + b"]" * 100_000,
}

# (command, file content, text naming the offending key on stderr); bytes are
# written raw. After the first three rows, each input once exited 1 (a
# traceback or a false verdict) or was silently accepted.
CONFIG_ERRORS = [
    pytest.param("run", None, "cannot read", id="missing-file"),
    pytest.param("run", b"{not json", "not valid JSON", id="bad-json"),
    pytest.param("run", {"scenario": "statmux"}, "frequency", id="shorthand-no-f"),
    *(pytest.param(command, raw, "not valid JSON", id=f"{prefix}-{name}")
      for name, raw in NOT_JSON.items()
      for command, prefix in (("validate", "config"), ("expect", "expect"))),
    pytest.param("run", [1, 2], "config: expected an object", id="top-list"),
    pytest.param("run", "hello", "config: expected an object", id="top-string"),
    pytest.param("run", edit(FULL, ["jobs", 0, "payload"], 5), "jobs[0].payload",
                 id="payload-int"),
    pytest.param("run", edit(FULL, ["horizon"], "10"), "horizon", id="horizon-str"),
    pytest.param("run", edit(SHORT, ["horizon"], "10"), "horizon",
                 id="shorthand-horizon-str"),
    pytest.param("run", edit(SHORT, ["f"], 5), "f:", id="f-int"),
    pytest.param("run", {"users": ["A-B"], "scheduler": {"kind": "demand",
                                                          "users": ["A-B"]}},
                 "users", id="user-A-B"),
    pytest.param("run", edit(SHORT, ["users"], ["A-B"]), "users",
                 id="shorthand-user-A-B"),
    pytest.param("run", edit(FULL, ["users"], [1, 2]), "users[0]", id="users-ints"),
    pytest.param("run", edit(FULL, ["horizon"], True), "horizon", id="horizon-bool"),
    pytest.param("run", edit(FULL, ["horizon"], 20.5), "horizon", id="horizon-float"),
    pytest.param("run", edit(FULL, ["users"], "AB"), "users", id="users-str"),
    pytest.param("run", edit(FULL, ["jobs", 0, "work"], 2.5), "jobs[0].work",
                 id="work-float"),
    pytest.param("run", edit(FULL, ["jobs", 0, "arrival"], 0.5), "jobs[0].arrival",
                 id="arrival-float"),
    pytest.param("run", edit(FULL, ["pacer", "first_tick"], 2.5),
                 "config.pacer.first_tick: unknown key", id="first-tick-float"),
    pytest.param("validate", edit(FULL, ["pacer", "first_tick"], -1),
                 "config.pacer.first_tick: unknown key", id="first-tick-negative"),
    pytest.param("run", edit(FULL, ["jobs", 0, "demand_visible"], "no"),
                 "config.jobs[0].demand_visible: unknown key", id="demand-visible-str"),
    pytest.param("run", edit(FULL, ["pacre"], {"f": "1/5"}), "pacre",
                 id="unknown-key"),
    pytest.param("run", edit(SHORT, ["pacer"], "no"), "pacer", id="shorthand-pacer-str"),
    pytest.param("run", edit(SHORT, ["jobs"], []), "jobs", id="shorthand-jobs"),
    pytest.param("paired", {"scenario": "dedicated", "users": ["A"]}, "second user",
                 id="paired-one-user"),
    pytest.param("paired", FULL, "user B, who has no jobs", id="paired-vary-no-jobs"),
    pytest.param("paired", edit(SHORT, ["users"], ["C", "B"]), "user C, who has no jobs",
                 id="paired-observer-no-jobs"),
    pytest.param("check-labels", edit(SHORT, ["users"], ["C", "D"]),
                 "C has no jobs; pass --expect", id="check-labels-first-user-no-jobs"),
    pytest.param("leakage", [1], "config: expected an object", id="leakage-list"),
    pytest.param("leakage", edit(LEAK, ["seed"], "a"), "seed", id="leakage-seed-str"),
    pytest.param("leakage", edit(LEAK, ["paced"], "no"), "paced",
                 id="leakage-paced-str"),
    pytest.param("leakage", edit(LEAK, ["short"], 1.5), "short",
                 id="leakage-short-float"),
    pytest.param("leakage", edit(LEAK, ["bogus"], 3), "bogus", id="leakage-unknown-key"),
    pytest.param("leakage", {**LEAK, "short": 3, "long": 1},
                 "short must be less than long", id="leakage-short-above-long"),
    pytest.param("leakage", edit(LEAK, ["bitstring"], "01" * 40),
                 "config.bitstring: unknown key", id="leakage-bitstring"),
    pytest.param("leakage", edit(LEAK, ["frame"], 0), "frame", id="leakage-frame-0"),
    pytest.param("leakage", edit(LEAK, ["probe"], 1), "config.probe: unknown key",
                 id="leakage-probe"),
    pytest.param("leakage", edit(LEAK, ["message_len"], 64),
                 "config.message_len: unknown key", id="leakage-message-len"),
    pytest.param("expect", [1], "[0]", id="expect-item-int"),
    pytest.param("expect", [{"occurrence": "x", "label": "{-/-}"}], "[0].occurrence",
                 id="expect-occurrence-str"),
    pytest.param("expect", [{"detail": [1], "label": "{-/-}"}], "[0].detail",
                 id="expect-detail-list"),
]


@pytest.mark.parametrize("command,content,key", CONFIG_ERRORS)
def test_config_errors_exit_2(command, content, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        write(path, content)
    if command == "expect":
        argv = ["check-labels", "--config", write(tmp_path / "s.json", SHORT),
                "--expect", str(path)]
    else:
        argv = [command, "--config", str(path)]
        if command in ("run", "paired", "leakage"):
            argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert key in capsys.readouterr().err


def test_fatal_monitor_exit_3(tmp_path):
    cfg = write(tmp_path / "fatal.json",
                {"scenario": "statmux", "f": "1/5", "pacer": False,
                 "monitor_mode": "fatal"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("command", ["run", "paired", "leakage"])
def test_out_naming_a_file_exits_2_before_any_run(command, tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", LEAK if command == "leakage" else SHORT)
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    never = mock.Mock(side_effect=AssertionError("ran before making --out"))
    with mock.patch("tifcsim.cli.run_scenario", never), \
            mock.patch("tifcsim.cli.run_paired", never), \
            mock.patch("tifcsim.cli.measure", never):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "cannot make output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command,taken", [
    ("run", "trace.jsonl"), ("paired", "report.txt"), ("leakage", "report.json")])
def test_output_file_that_is_a_directory_exits_2(command, taken, tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", LEAK if command == "leakage" else SHORT)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"cannot write {out / taken}" in capsys.readouterr().err


def test_seed_flag_beats_env(statmux_cfg, capsys, monkeypatch):
    # no environment variable sets the seed; only --seed replaces the config's
    monkeypatch.setenv("TIFC_SIM_SEED", "777")
    assert main(["validate", "--config", statmux_cfg, "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert main(["validate", "--config", statmux_cfg]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_unknown_flags_rejected(statmux_cfg):
    with pytest.raises(SystemExit) as err:
        main(["run", "--config", statmux_cfg, "--warp-speed"])
    assert err.value.code == 2


# Any JSON value, or a valid config of each form with up to three of its
# values replaced by any JSON value or removed: the latter reach the type and
# range checks behind the unknown-key check.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats()
    | st.sampled_from(["A", "A-B", "statmux", "shared", "demand", "1/5", "2/3",
                       "inf", "01", "B-:1/5", "{-/-}", "MsgRecv"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
SMALL = {"scenario": "statmux", "f": "1/5", "horizon": 12}
VALID = {
    "run": [FULL, SMALL],
    "leakage": [{"f": "1/5", "short": 1, "long": 3, "frame": 5, "paced": True,
                 "topology": "shared", "trials": 1, "horizon": 400, "seed": 3}],
    "check-labels": [[{"kind": "PacerRelease", "entity": "pacer_A",
                       "detail": {"msg": "res_A0"}, "occurrence": 0,
                       "label": "{A/A:1/5,B:1/5}"}]],
}


@st.composite
def mutated(draw, bases):
    obj = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for _ in range(draw(st.integers(1, 3))):
        slots, todo = [], [obj]
        while todo:
            node = todo.pop()
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    todo.append(node[key])
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON)
    return obj


def passing_report(exp):
    """A one-trial passing report, in place of a real campaign."""
    trial = TrialResult(exp.seed, "", "", True, 0.0, 0, Fraction(0), 0.0)
    return LeakageReport(exp, exp.bound, [trial])


@pytest.mark.parametrize("command", ["run", "leakage", "check-labels"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_json_exits_0_or_2(command, data):
    value = data.draw(JSON | mutated(VALID[command]))
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "cfg.json", value)
        out = ["--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                contextlib.redirect_stderr(io.StringIO()):
            if command == "run":
                # run accepts exactly what validate accepts
                code = main(["validate", "--config", path])
                assert code in (0, 2)
                assert main(["run", "--config", path] + out) == code
            elif command == "leakage":
                with mock.patch("tifcsim.cli.measure", passing_report):
                    assert main(["leakage", "--config", path] + out) in (0, 2)
            else:
                cfg = write(Path(tmp) / "s.json", SMALL)
                code = main(["check-labels", "--config", cfg, "--expect", path])
                # 1 only for a label mismatch that was reported as such
                assert code in (0, 2) or (code == 1 and "FAIL" in stdout.getvalue())
