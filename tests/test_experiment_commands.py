"""Each ``risim`` command is built from its config type in
``harness.EXPERIMENTS``: it takes ``--config`` and exactly the options the
type declares, as the README's command table lists them, and refuses a
config of any other experiment."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from risim.cli import main
from risim.harness import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
OPTIONS = ("--seed", "--out", "--threads")   # the README table's columns, in order


def readme_options() -> dict:
    """experiment -> the options its row of the README command table marks."""
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        if match := re.fullmatch(r"\| `risim (\w+)` \|(.*)\|", line.strip()):
            marks = [cell.strip() for cell in match[2].split("|")]
            assert len(marks) == len(OPTIONS) and set(marks) <= {"yes", "no"}, line
            rows[match[1]] = {o for o, mark in zip(OPTIONS, marks) if mark == "yes"}
    return rows


def help_options(capsys, experiment) -> set:
    assert main([experiment, "--help"]) == 0
    return set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE))


def shipped_config(experiment) -> Path:
    return next(path for path in sorted(CONFIGS.glob("*.json"))
                if json.loads(path.read_text())["experiment"] == experiment)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_command_takes_its_declared_options(experiment, capsys):
    declared = set(EXPERIMENTS[experiment].options)
    assert declared <= set(OPTIONS)
    assert help_options(capsys, experiment) == declared | {"--config", "--help"}
    assert readme_options()[experiment] == declared


def test_readme_table_lists_every_command():
    assert set(readme_options()) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_config_of_another_experiment_exits_2_naming_both(experiment, tmp_path, capsys):
    other = next(name for name in EXPERIMENTS if name != experiment)
    code = main([experiment, "--config", str(shipped_config(other)), "--out", str(tmp_path)]
                if "--out" in EXPERIMENTS[experiment].options
                else [experiment, "--config", str(shipped_config(other))])
    err = capsys.readouterr().err
    assert code == 2
    assert f"'{other}'" in err and f"'{experiment}'" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("geometry, angle, period_cells, key", [
    # k dx itself overflows: at 0 deg the steering range would be inf * 0, nan
    ({"dx_mm": 1e300, "fc_ghz": 1e290}, 0.0, 4, "geometry"),
    # k dx is finite, but the range over 2^53 cells overflows
    ({"dx_mm": 1e300, "fc_ghz": 48.0}, 30.0, 1 << 53, "scan_angles_deg"),
], ids=["k_dx", "range"])
def test_steering_overflow_exits_2_without_a_warning(geometry, angle, period_cells, key,
                                                     tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "experiment": "pattern", "scan_angles_deg": [angle], "period_cells": period_cells,
        "geometry": {"rows": 4, "cols": 4, "dy_mm": 5.0, **geometry}}))
    run = subprocess.run([sys.executable, "-m", "risim.cli", "pattern", "--config", str(path),
                          "--out", str(tmp_path / "out")], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert run.returncode == 2
    assert run.stderr.startswith(f"config error: {key}")
    assert len(run.stderr.splitlines()) == 1, run.stderr
    assert not (tmp_path / "out").exists()
