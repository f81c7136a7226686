"""One channel draw and one Gram matrix per block for a whole SNR grid."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from risim import channel, detection
from risim.detection import (CAPACITY_BATCH, CapacityEstimate, capacity_batch_bytes,
                             ergodic_capacity)
from risim.harness import parse_config, run_capacity
from risim.util import db_to_linear

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GRID_DB = [0.0, 5.0, 10.0, 15.0, 20.0]


def hex_rows(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def scalar_rows(config):
    """run_capacity's rows from one scalar ergodic_capacity call per SNR."""
    rows = []
    for n_tx, n_rx in config.antennas:
        for snr_db in config.snr_db:
            est = ergodic_capacity(n_tx, n_rx, db_to_linear(snr_db),
                                   config.capacity_trials, config.seed)
            assert isinstance(est, CapacityEstimate)
            rows.append((n_tx, n_rx, snr_db, est.mean, est.std_err, est.trials))
    return rows


@pytest.mark.parametrize("name", ["capacity_rayleigh.json", "capacity_asym.json"])
def test_shipped_rows_are_bitwise_the_scalar_calls(name):
    config = parse_config(CONFIGS / name)
    assert hex_rows(run_capacity(config)) == hex_rows(scalar_rows(config))


@pytest.mark.parametrize("snr_db", [[10], [0, 7.5, 20]])
@pytest.mark.parametrize("trials", [2, 4097, 8193])
def test_grid_rows_are_bitwise_the_scalar_calls(snr_db, trials):
    config = parse_config({"experiment": "capacity", "antennas": [[2, 3], [16, 16], [17, 5]],
                           "snr_db": snr_db, "trials": trials, "seed": 4})
    rows = run_capacity(config)
    assert len(rows) == 3 * len(snr_db)
    assert hex_rows(rows) == hex_rows(scalar_rows(config))


def single_snr_reference(n_tx, n_rx, snr, trials, seed):
    """Mean and standard error from one Gram matrix per SNR, scaled in place:
    the arithmetic of the engine before it shared the Gram matrix over a grid."""
    rng = channel.stream_rng(seed, n_tx, n_rx)
    block = max(1, detection._CAPACITY_BLOCK // (n_rx * n_tx))
    d = np.arange(n_rx)
    values = np.empty(trials)
    for done in range(0, trials, CAPACITY_BATCH):
        planes = rng.standard_normal((2, min(CAPACITY_BATCH, trials - done), n_rx, n_tx))
        for lo in range(0, planes.shape[1], block):
            part = planes[:, lo:lo + block]
            h = np.empty(part.shape[1:], dtype=complex)
            h.real, h.imag = part[0] * (1 / np.sqrt(2.0)), part[1] * (1 / np.sqrt(2.0))
            gram = h @ np.conj(np.swapaxes(h, -1, -2))
            gram *= snr / n_tx
            gram[..., d, d] += 1.0
            diag = np.linalg.cholesky(gram)[..., d, d].real
            values[done + lo:done + lo + len(h)] = 2.0 * np.log2(diag).sum(axis=-1)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(trials))


@pytest.mark.parametrize("n_tx, n_rx", [(1, 1), (16, 16), (5, 17), (17, 5)])
def test_grid_estimates_are_bitwise_the_single_snr_reference(n_tx, n_rx):
    trials = 4097
    estimates = ergodic_capacity(n_tx, n_rx, db_to_linear(GRID_DB), trials, seed=6)
    for snr_db, est in zip(GRID_DB, estimates):
        mean, std_err = single_snr_reference(n_tx, n_rx, db_to_linear(snr_db), trials, seed=6)
        assert (est.mean.hex(), est.std_err.hex()) == (mean.hex(), std_err.hex())


class RecordingGenerator:
    def __init__(self, generator, calls):
        self._generator = generator
        self._calls = calls

    def standard_normal(self, size):
        self._calls.append(tuple(size))
        return self._generator.standard_normal(size)

    def __getattr__(self, name):
        raise AssertionError(f"capacity drew through Generator.{name}")


def draw_calls(n_tx, n_rx, trials):
    """Per batch: one draw of its real parts, then one draw of each block's
    imaginary parts."""
    block = max(1, detection._CAPACITY_BLOCK // (n_tx * n_rx))
    calls = []
    for done in range(0, trials, CAPACITY_BATCH):
        n = min(CAPACITY_BATCH, trials - done)
        calls.append((n, n_rx, n_tx))
        calls += [(min(block, n - lo), n_rx, n_tx) for lo in range(0, n, block)]
    return calls


def test_one_stream_and_one_draw_per_batch_for_the_whole_grid(monkeypatch):
    keys, calls = [], []
    original = channel.stream_rng

    def recording(*key):
        keys.append(key)
        return RecordingGenerator(original(*key), calls)

    monkeypatch.setattr(channel, "stream_rng", recording)
    pairs, trials = [(16, 16), (5, 17), (1, 1)], 8193
    config = parse_config({"experiment": "capacity", "antennas": [list(p) for p in pairs],
                           "snr_db": GRID_DB, "trials": trials, "seed": 2})
    assert len(run_capacity(config)) == len(pairs) * len(GRID_DB)
    assert keys == [(2, n_tx, n_rx) for n_tx, n_rx in pairs]
    assert calls == [call for n_tx, n_rx in pairs for call in draw_calls(n_tx, n_rx, trials)]


@pytest.mark.parametrize("n_tx, n_rx", [(16, 16), (5, 17), (1, 1)])
def test_one_gram_call_per_block_for_the_whole_grid(monkeypatch, n_tx, n_rx):
    calls = []
    original = detection._log2_det_gram

    def recording(h, snr):
        calls.append((h.shape[0], len(snr)))
        return original(h, snr)

    monkeypatch.setattr(detection, "_log2_det_gram", recording)
    trials = 4097
    estimates = ergodic_capacity(n_tx, n_rx, db_to_linear(GRID_DB), trials, seed=1)
    assert len(estimates) == len(GRID_DB)
    block = max(1, detection._CAPACITY_BLOCK // (n_tx * n_rx))
    expected = [min(block, n - lo)
                for done in range(0, trials, CAPACITY_BATCH)
                for n in [min(CAPACITY_BATCH, trials - done)]
                for lo in range(0, n, block)]
    assert calls == [(k, len(GRID_DB)) for k in expected]


@pytest.mark.parametrize("n_tx, n_rx", [(16, 16), (5, 17), (17, 5)])
def test_traced_grid_peak_stays_within_the_batch_estimate(n_tx, n_rx):
    trials, snrs = 8193, db_to_linear(GRID_DB)
    tracemalloc.start()
    try:
        ergodic_capacity(n_tx, n_rx, snrs, trials, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-trial values grow to one row of 8-byte values per SNR point
    assert peak <= capacity_batch_bytes(n_tx, n_rx, trials) + 8 * len(snrs) * trials


@pytest.mark.parametrize("snr_db", [[10.0], GRID_DB])
def test_traced_1x1_peak_leaves_no_trial_sized_temporary(snr_db):
    # 1x1 keeps the batch small, so the per-trial values dominate the peak
    # and a second trial-sized array (as row.std makes) would exceed it
    trials, snrs = 1 << 18, db_to_linear(snr_db)
    tracemalloc.start()
    try:
        ergodic_capacity(1, 1, snrs, trials, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= capacity_batch_bytes(1, 1, trials, len(snrs)) + 8 * len(snrs) * trials


def test_grid_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        ergodic_capacity(2, 2, [[1.0, 10.0]], 10, seed=1)


# the capacity_sweep benchmark's pairs and those of the shipped asymmetric config
SWEEP_PAIRS = [[1, 1], [2, 2], [4, 4], [8, 8], [16, 16]]
ASYM_PAIRS = [[1, 4], [4, 1], [3, 2], [5, 17], [20, 12]]


@pytest.mark.parametrize("pairs", [SWEEP_PAIRS, ASYM_PAIRS])
def test_rows_are_bitwise_the_same_at_every_block_size(monkeypatch, pairs):
    config = parse_config({"experiment": "capacity", "antennas": pairs,
                           "snr_db": [0, 10, 20], "trials": 4097, "seed": 8})
    rows = {}
    for block in (1 << 8, 1 << 13, 1 << 16):
        monkeypatch.setattr(detection, "_CAPACITY_BLOCK", block)
        rows[block] = hex_rows(run_capacity(config))
    assert rows[1 << 8] == rows[1 << 13] == rows[1 << 16]
    assert [row[:2] for row in rows[1 << 13]] == [tuple(p) for p in pairs for _ in range(3)]


@pytest.mark.parametrize("pairs, order", [
    (SWEEP_PAIRS, [[16, 16], [8, 8], [4, 4], [2, 2], [1, 1]]),
    # the tied 1x4 and 4x1 keep their config order
    (ASYM_PAIRS, [[20, 12], [5, 17], [3, 2], [1, 4], [4, 1]]),
    # a repeated pair runs once and fills each of its rows
    ([[2, 2], [4, 4], [2, 2]], [[4, 4], [2, 2]]),
])
def test_pairs_run_largest_first(monkeypatch, pairs, order):
    calls = []
    original = detection.ergodic_capacity

    def recording(n_tx, n_rx, *args):
        calls.append([n_tx, n_rx])
        return original(n_tx, n_rx, *args)

    monkeypatch.setattr(detection, "ergodic_capacity", recording)
    config = parse_config({"experiment": "capacity", "antennas": pairs,
                           "snr_db": [10], "trials": 2, "seed": 8})
    assert [row[:2] for row in run_capacity(config)] == [tuple(p) for p in pairs]
    assert calls == order


def test_traced_16x16_sweep_peak_stays_under_10_5_mb():
    # 7.6 MB of batch real parts and per-trial values; 2^16-entry blocks
    # held 13.5 MB, 2^13-entry blocks hold about 9.7 MB
    tracemalloc.start()
    try:
        ergodic_capacity(16, 16, db_to_linear(GRID_DB), 20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.5e6
