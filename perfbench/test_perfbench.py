"""Tests of the benchmark itself: python3 -m pytest perfbench

They start worker processes on the real workloads, so they take about a
minute on two cores.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Counts that describe the experiment rather than how the program computes it.
EXACT = ("harness.batches_computed", "channel.normal_samples", "detection.hypotheses",
         "aperture.directions", "aperture.csv_bytes", "metaatom.lookups")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_and_match_the_untraced_run(workload):
    bench = run.Run(workload, workloads.DEFAULT_SEED)
    threads = bench.spec["threads"]
    try:
        plain = bench.launch(bench.config, threads, False)
        traced = [bench.launch(bench.config, threads, True) for _ in range(2)]
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
    assert bench.problems == []
    assert all(bench.check(r) for r in [plain, *traced])

    # tracing touches no random stream: the CSV bytes are identical
    assert {r["digest"] for r in traced} == {plain["digest"]}
    first, second = (r["layers"] for r in traced)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["im_schemes.codewords"] == second["im_schemes.codewords"]
    expected = workloads.expected_counts(workload, bench.config, plain["outputs"], plain["facts"])
    assert {k: first[k] for k in expected if k in first} == {
        k: v for k, v in expected.items() if k in first}
    folded = run.per_layer(bench, [plain], traced)["harness.batches_folded"]
    assert folded == expected.get("harness.batches_folded", 0)
    assert traced[0]["absent"] == {}


def test_single_thread_fold_has_no_waste():
    bench = run.Run("ber_sm_detect", workloads.DEFAULT_SEED)
    try:
        traced = [bench.launch(bench.config, 1, True)]
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
    layers = run.per_layer(bench, traced, traced)
    assert layers["harness.batch_useful_ratio"] == 1.0
    assert layers["harness.wave_idle_s"] == 0.0


def test_timed_generator_draws_the_same_stream():
    plain = np.random.default_rng([3, 1, 4])
    timed = tracing.TimedGenerator(np.random.default_rng([3, 1, 4]), tracing.Tracer(), (3, 1, 4))
    assert np.array_equal(plain.integers(0, 16, 100), timed.integers(0, 16, 100))
    assert np.array_equal(plain.standard_normal((5, 7)), timed.standard_normal((5, 7)))
    assert timed.random() == plain.random()
    assert timed._tracer.counts["channel.normal_samples"] == 35


def test_missing_target_is_reported_absent():
    tracer = tracing.Tracer()
    owner = types.SimpleNamespace(__name__="gone")
    tracer.wrap(owner, "detect", "detection.ml")
    tracer.wrap(None, "lookup", "metaatom.lookup")
    assert tracer.absent == {"gone.detect": "not found", "missing owner.lookup": "not found"}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ber_ofdm_im_threads",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ber_sm_detect",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
