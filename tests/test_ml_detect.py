"""Exactness guard: the sufficient-statistic detector against brute force.

For every transmit-model family the batched detector must pick the same
codeword as an exhaustive search of ||y - amp A(h) x_c||^2 written out
here, over 10^5 noisy trials at a low and a high SNR.
"""

import numpy as np
import pytest

from risim.channel import stream_rng
from risim.detection import MetricTable, matched_filter, ml_detect
from risim.im_schemes import (
    GeneralizedSM,
    MediaBasedModulation,
    OfdmIm,
    QuadratureSM,
    SisoModulation,
    SpaceShiftKeying,
    SpaceTimeShiftKeying,
    SpatialModulation,
)

TRIALS = 100_000
CHUNK = 10_000

# name -> (scheme, n_rx, how A(h) acts: "dense" H, "slots" I (x) H, "diagonal")
FAMILIES = {
    "siso_16qam": (SisoModulation(16, "qam"), 1, "dense"),
    "sm_8psk": (SpatialModulation(4, 8, "psk"), 2, "dense"),
    "ssk": (SpaceShiftKeying(8), 2, "dense"),
    "gsm": (GeneralizedSM(4, 2, 4, "psk"), 2, "dense"),
    "qsm": (QuadratureSM(4, 4, "qam"), 2, "dense"),
    "stsk": (SpaceTimeShiftKeying(4, 2, 4, n_tx=2, n_slots=2), 2, "slots"),
    "mbm": (MediaBasedModulation(8, 4), 2, "dense"),
    "ofdm_im": (OfdmIm(4, 2, 4), 1, "diagonal"),
}


def cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def draw(scheme, n_rx, kind, rng, batch, amp):
    """Channels and received signals of one batch of random codewords."""
    x = scheme.codebook().vectors
    words = rng.integers(0, x.shape[1], batch)
    if kind == "diagonal":
        h = cn(rng, (batch, x.shape[0]))
        return h, amp * h * x[:, words].T + cn(rng, h.shape)
    slots = scheme.n_slots if kind == "slots" else 1
    tx = x[:, words].T.reshape(batch, -1, slots)
    h = cn(rng, (batch, n_rx, tx.shape[1]))
    y = amp * np.einsum("bri,bit->brt", h, tx) + cn(rng, (batch, n_rx, slots))
    return h, (y if kind == "slots" else y[:, :, 0])


def brute_force(scheme, kind, h, y, amp):
    """argmin over c of ||y - amp A(h) x_c||^2 with every hypothesis formed."""
    x = scheme.codebook().vectors
    if kind == "diagonal":
        mus = amp * h[:, :, None] * x[None]
        return np.argmin(np.sum(np.abs(y[:, :, None] - mus) ** 2, axis=1), axis=1)
    slots = scheme.n_slots if kind == "slots" else 1
    mus = amp * np.einsum("bri,itc->brtc", h, x.reshape(-1, slots, x.shape[1]))
    y = y.reshape(y.shape[0], y.shape[1], slots)
    return np.argmin(np.sum(np.abs(y[..., None] - mus) ** 2, axis=(1, 2)), axis=1)


def detect(table, kind, h, y, snr):
    if kind == "diagonal":
        return ml_detect(np.conj(y) * h, np.abs(h) ** 2, table, snr)
    return ml_detect(*matched_filter(y, h, table), table, snr)


@pytest.mark.parametrize("snr_db", [0.0, 25.0], ids=["low_snr", "high_snr"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_decisions_match_exhaustive_search(family, snr_db):
    scheme, n_rx, kind = FAMILIES[family]
    table = MetricTable(scheme.codebook().vectors,
                        slots=scheme.n_slots if kind == "slots" else 1,
                        diagonal=kind == "diagonal")
    snr = 10.0 ** (snr_db / 10.0)
    amp = np.sqrt(snr)
    mismatches = 0
    for chunk in range(TRIALS // CHUNK):
        rng = stream_rng(101, int(snr_db), chunk)
        h, y = draw(scheme, n_rx, kind, rng, CHUNK, amp)
        mismatches += int(np.sum(detect(table, kind, h, y, snr) != brute_force(scheme, kind, h, y, amp)))
    assert mismatches == 0


@pytest.mark.parametrize("family", ["siso_16qam", "sm_8psk", "ssk", "mbm", "ofdm_im"])
def test_one_hot_and_diagonal_models_need_column_energies_only(family):
    scheme, _, kind = FAMILIES[family]
    table = MetricTable(scheme.codebook().vectors, diagonal=kind == "diagonal")
    assert len(table.pairs) == 0
    assert table.weights.shape == scheme.codebook().vectors.shape


def test_cross_terms_kept_where_codewords_share_resources():
    assert len(MetricTable(GeneralizedSM(4, 2, 4).codebook().vectors).pairs) > 0
    assert len(MetricTable(QuadratureSM(4, 4).codebook().vectors).pairs) > 0


def test_exact_tie_resolves_to_lowest_label():
    # SSK over an identity channel, y halfway between antennas 1 and 2:
    # codewords 1 and 2 have equal metrics, in floating point too.
    scheme = SpaceShiftKeying(4)
    table = MetricTable(scheme.codebook().vectors)
    snr = 4.0
    h = np.eye(4, dtype=complex)[None]
    y = np.sqrt(snr) * np.array([[0.0, 0.5, 0.5, 0.0]], dtype=complex)
    zh, gram = matched_filter(y, h, table)
    metric = snr * (gram @ table.weights) - 2.0 * np.sqrt(snr) * (zh @ table.x).real
    assert metric[0, 1] == metric[0, 2] < metric[0, 0]
    assert ml_detect(zh, gram, table, snr)[0] == 1
    assert brute_force(scheme, "dense", h, y, np.sqrt(snr))[0] == 1


def test_decisions_do_not_depend_on_chunking(monkeypatch):
    from risim import detection

    scheme, n_rx, kind = FAMILIES["qsm"]
    table = MetricTable(scheme.codebook().vectors)
    h, y = draw(scheme, n_rx, kind, stream_rng(103), 5_000, np.sqrt(10.0))
    decisions = []
    for budget in (1 << 30, 3 * table.x.shape[1] + 1):   # one pass; chunks of 3 trials
        monkeypatch.setattr(detection, "_HYPOTHESIS_BUDGET", budget)
        decisions.append(ml_detect(*matched_filter(y, h, table), table, 10.0))
    assert np.array_equal(*decisions)


@pytest.mark.parametrize("extra", [1, 2])
def test_chunked_metric_bitwise_equals_one_evaluation(monkeypatch, extra):
    # a dense random codebook makes the Gram side a real matrix product,
    # whose one-row (matrix-vector) evaluation rounds differently
    from risim import detection

    rng = stream_rng(104)
    table = MetricTable(cn(rng, (4, 16)))
    h, y = cn(rng, (4 * 7 + extra, 3, 4)), cn(rng, (4 * 7 + extra, 3))
    zh, gram = matched_filter(y, h, table)
    whole = detection._metric(zh, gram, table, 10.0)

    chunks = []
    metric = detection._metric

    def recording(*args):
        chunks.append(metric(*args))
        return chunks[-1]

    monkeypatch.setattr(detection, "_metric", recording)
    monkeypatch.setattr(detection, "_HYPOTHESIS_BUDGET", 4 * table.x.shape[1])  # 4 trials
    decisions = ml_detect(zh, gram, table, 10.0)
    assert min(len(c) for c in chunks) >= 2
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    assert np.array_equal(decisions, np.argmin(whole, axis=1))
