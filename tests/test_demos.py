"""Smoke tests for demos/: every script runs and every config parses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tifcsim.cli import main
from tifcsim.leakage import CovertExperiment

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
CONFIGS = DEMOS / "configs"
LEAKAGE_CONFIGS = sorted(CONFIGS.glob("leakage*.json"))
SCENARIO_CONFIGS = sorted(set(CONFIGS.glob("*.json")) - set(LEAKAGE_CONFIGS))


def test_demo_configs_present():
    assert len(LEAKAGE_CONFIGS) == 2 and SCENARIO_CONFIGS


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("config", SCENARIO_CONFIGS, ids=lambda p: p.name)
def test_demo_scenario_config_validates(config, capsys):
    assert main(["validate", "--config", str(config)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("config", LEAKAGE_CONFIGS, ids=lambda p: p.name)
def test_demo_leakage_config_parses(config):
    obj = json.loads(config.read_text(encoding="utf-8"))
    assert CovertExperiment.from_json_obj(obj).trials == obj["trials"]
