"""The blocked capacity engine against a whole-batch slogdet reference."""

import tracemalloc

import numpy as np
import pytest

from risim import channel, detection
from risim.channel import complex_normal, stream_rng
from risim.detection import CAPACITY_BATCH, capacity_batch_bytes, ergodic_capacity


def slogdet_reference(n_tx, n_rx, snr, trials, seed):
    """Mean and standard error from whole-batch draws and np.linalg.slogdet."""
    rng = stream_rng(seed, n_tx, n_rx)
    values = []
    for done in range(0, trials, 4096):
        h = complex_normal(rng, (min(4096, trials - done), n_rx, n_tx))
        gram = np.eye(n_rx) + (snr / n_tx) * (h @ np.conj(np.swapaxes(h, 1, 2)))
        values.append(np.linalg.slogdet(gram)[1] / np.log(2.0))
    values = np.concatenate(values)
    return values.mean(), values.std(ddof=1) / np.sqrt(trials)


@pytest.mark.parametrize("shape", [(4096, 16, 16), (4097, 5, 17), (3, 2, 3), (1, 1, 1)])
@pytest.mark.parametrize("block", [1, 255, 256, 4096])
def test_block_assembly_is_bitwise_complex_normal(shape, block):
    # the engine's order: all real parts, then each block's imaginary parts
    rng = np.random.default_rng(4)
    real = rng.standard_normal(shape)
    parts = [detection._block_channel(rng, real[lo:lo + block])
             for lo in range(0, shape[0], block)]
    # against the complex channel of one (2, n, n_rx, n_tx) draw
    whole_rng = np.random.default_rng(4)
    planes = whole_rng.standard_normal((2, *shape))
    whole = np.empty(shape, dtype=complex)
    whole.real, whole.imag = planes[0] * (1 / np.sqrt(2.0)), planes[1] * (1 / np.sqrt(2.0))
    assert np.array_equal(np.concatenate(parts).view(np.float64), whole.view(np.float64))
    assert np.array_equal(whole.view(np.float64),
                          complex_normal(np.random.default_rng(4), shape).view(np.float64))
    assert rng.standard_normal() == whole_rng.standard_normal()


@pytest.mark.parametrize("n_tx, n_rx", [(1, 1), (2, 3), (3, 2), (16, 16), (5, 17)])
@pytest.mark.parametrize("trials", [2, 4095, 4096, 4097, 8193])
def test_ergodic_capacity_matches_slogdet_reference(n_tx, n_rx, trials):
    est = ergodic_capacity(n_tx, n_rx, 10.0, trials, seed=5)
    mean, std_err = slogdet_reference(n_tx, n_rx, 10.0, trials, seed=5)
    assert est.trials == trials
    assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
    assert est.std_err == pytest.approx(std_err, rel=1e-12, abs=0)


class RecordingGenerator:
    def __init__(self, generator, calls):
        self._generator = generator
        self._calls = calls

    def standard_normal(self, size):
        self._calls.append(tuple(size))
        return self._generator.standard_normal(size)

    def __getattr__(self, name):
        raise AssertionError(f"capacity drew through Generator.{name}")


@pytest.mark.parametrize("n_tx, n_rx, trials", [(16, 16, 8193), (5, 17, 4096), (2, 3, 2)])
def test_one_gaussian_draw_per_batch(monkeypatch, n_tx, n_rx, trials):
    calls = []
    original = channel.stream_rng
    monkeypatch.setattr(channel, "stream_rng",
                        lambda *key: RecordingGenerator(original(*key), calls))
    ergodic_capacity(n_tx, n_rx, 10.0, trials, seed=1)
    assert calls == draw_calls(n_tx, n_rx, trials)


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


@pytest.mark.parametrize("n_tx, n_rx", [(16, 16), (5, 17), (1, 1), (300, 300)])
def test_log_determinants_run_on_cache_sized_blocks(monkeypatch, n_tx, n_rx):
    shapes = []
    original = detection._log2_det_gram

    def recording(h, snr):
        shapes.append(h.shape)
        return original(h, snr)

    monkeypatch.setattr(detection, "_log2_det_gram", recording)
    trials = 4097 if n_tx * n_rx <= 256 else 3
    ergodic_capacity(n_tx, n_rx, 10.0, trials, seed=1)
    assert sum(s[0] for s in shapes) == trials
    assert all(s[1:] == (n_rx, n_tx) for s in shapes)
    # one matrix per block once a single matrix exceeds the block
    limit = max(detection._CAPACITY_BLOCK, n_tx * n_rx)
    assert all(np.prod(s) <= limit for s in shapes)


@pytest.mark.parametrize("n_rx, n_tx", [(1, 1), (3, 2), (2, 3), (8, 8)])
def test_log2_det_gram_matches_slogdet(n_rx, n_tx):
    h = complex_normal(np.random.default_rng(n_rx * 10 + n_tx), (n_rx, n_tx))
    gram = np.eye(n_rx) + (7.0 / n_tx) * (h @ h.conj().T)
    expected = np.linalg.slogdet(gram)[1] / np.log(2.0)
    assert detection._log2_det_gram(h[None], 7.0)[0] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n_tx, n_rx", [(16, 16), (5, 17), (17, 5)])
def test_traced_peak_stays_within_the_batch_estimate(n_tx, n_rx):
    # two batches: the first draw must be gone before the second is made
    trials = 8193
    tracemalloc.start()
    try:
        ergodic_capacity(n_tx, n_rx, 10.0, trials, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the estimate counts everything but the 8-byte per-trial values
    assert peak <= capacity_batch_bytes(n_tx, n_rx, trials) + 8 * trials
