"""The runs and the per-metric summary of tools/bench_pair.py."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
DECLARED = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair(parent_wall, change_wall):
    def side(wall):
        return {"result": {"metrics": {"wall_s": {"value": wall},
                                       "trials_per_s": {"value": 1.0 / wall}}}}
    return {"parent": side(parent_wall), "change": side(change_wall)}


def test_wins_count_in_the_better_direction_and_ties_count_for_neither():
    pairs = [pair(1.0, 0.9), pair(1.0, 1.0), pair(1.0, 1.1), pair(2.0, 1.0)]
    summary = load_tool().summarize(pairs, DECLARED)
    assert summary["wall_s"]["change_wins"] == 2
    assert summary["trials_per_s"]["change_wins"] == 2
    assert summary["wall_s"]["pairs"] == 4


def test_medians_quartiles_and_bound():
    pairs = [pair(1.0 + i / 10, 1.2 + i / 10) for i in range(5)]
    summary = load_tool().summarize(pairs, DECLARED)["wall_s"]
    assert summary["parent"]["median"] == pytest.approx(1.2)
    assert summary["change"]["median"] == pytest.approx(1.4)
    assert summary["parent"]["q1"] < 1.2 < summary["parent"]["q3"]
    assert summary["parent"]["iqr"] == pytest.approx(
        summary["parent"]["q3"] - summary["parent"]["q1"])
    assert not summary["worse_than_bound"]          # 1.4 <= 1.2 * 1.25
    slower = load_tool().summarize([pair(1.0, 1.3)], DECLARED)["wall_s"]
    assert slower["worse_than_bound"] and slower["parent"]["iqr"] == 0.0


def test_gain_shown_needs_nine_wins_in_ten_and_a_median_gap_past_the_parent_iqr():
    tool = load_tool()
    # parent 1.00..1.09 (IQR 0.05); the change wins 9 of 10 pairs
    wins_nine = [pair(1.0 + i / 100, 0.9 + i / 100) for i in range(9)] + [pair(1.09, 1.2)]
    shown = tool.summarize(wins_nine, DECLARED)
    assert shown["wall_s"]["change_wins"] == 9 and shown["wall_s"]["gain_shown"]
    assert shown["trials_per_s"]["gain_shown"]           # the higher-is-better mirror
    wins_eight = wins_nine[:8] + [pair(1.08, 1.2), pair(1.09, 1.2)]
    assert not tool.summarize(wins_eight, DECLARED)["wall_s"]["gain_shown"]
    # every pair won, by less than the parent's spread
    close = [pair(1.0 + i / 10, 0.99 + i / 10) for i in range(10)]
    summary = tool.summarize(close, DECLARED)["wall_s"]
    assert summary["change_wins"] == 10 and not summary["gain_shown"]
    # a change that is worse shows no gain
    assert not tool.summarize([pair(1.0, 0.5 + i) for i in range(10)], DECLARED)["wall_s"][
        "gain_shown"]


def test_unresolved_when_the_parent_spreads_past_the_bound_and_the_sides_overlap():
    tool = load_tool()
    # parent IQR 0.5 against a bound of 0.25 x median 1.0
    wide = [1.0, 0.5, 1.5, 0.6, 1.4]
    overlapping = tool.summarize([pair(p, 1.0) for p in wide], DECLARED)["wall_s"]
    assert overlapping["parent"]["iqr"] > 0.25 * overlapping["parent"]["median"]
    assert overlapping["unresolved"]
    # every change run beats every parent run: resolved however wide
    assert not tool.summarize([pair(p, 0.4) for p in wide], DECLARED)["wall_s"]["unresolved"]
    # a narrow parent is resolved even where the sides overlap
    narrow = [pair(1.0 + i / 100, 1.0) for i in range(5)]
    assert not tool.summarize(narrow, DECLARED)["wall_s"]["unresolved"]


def test_both_sides_run_from_fresh_exports_that_write_no_bytecode(tmp_path, monkeypatch):
    # a __pycache__ in this checkout would favour the change side
    tool = load_tool()
    exported, envs = [], []
    monkeypatch.setattr(tool, "export", lambda rev, into: exported.append((rev, into)))
    for stash, change_rev in (("abc123", "abc123"), ("", "HEAD")):   # "" for a clean tree
        monkeypatch.setattr(tool, "git", lambda *args: stash if args == ("stash", "create")
                            else pytest.fail(f"git {args}"))
        sides = tool.checkouts("HEAD~1", tmp_path)
        assert exported[-2:] == [("HEAD~1", sides["parent"]), (change_rev, sides["change"])]
        assert tool.ROOT not in sides.values() and sides["parent"] != sides["change"]

    def fake_run(cmd, cwd, env, **kwargs):
        envs.append((cwd, env["PYTHONDONTWRITEBYTECODE"]))
        return subprocess.CompletedProcess(cmd, 0, 'env {"commit": "x"}\n{"metrics": {}}\n', "")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    for side in tool.SIDES:
        run = tool.run_once(sides[side], "pattern_export", 1, 1.0)
        assert run == {"result": {"metrics": {}}, "env": {"commit": "x"}}
    assert envs == [(sides[side], "1") for side in tool.SIDES]
