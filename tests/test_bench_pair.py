"""The per-metric summary of tools/bench_pair.py."""

import importlib.util
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
