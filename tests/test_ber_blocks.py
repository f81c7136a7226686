"""The BER batch pipeline: whole-batch draws, then blocks of one detector chunk.

Bit errors must not depend on the block size, every block must stay a
matrix-matrix product (two rows or more), and the fused real-GEMM metric
must agree with the two-product form it replaced.
"""

import tracemalloc

import numpy as np
import pytest

from risim import detection
from risim.channel import complex_normal, rician, stream_rng
from risim.detection import MetricTable, chunk_edges, matched_filter
from risim.harness import ChannelSpec, _BerModel
from risim.im_schemes import build_scheme

# name -> (scheme, channel, n_rx); one per transmit model plus Rician and AWGN
CASES = {
    "sm_rayleigh": ({"type": "sm", "n_tx": 4, "order": 4, "constellation": "psk"},
                    ChannelSpec("rayleigh"), 2),
    "qsm_rician": ({"type": "qsm", "n_tx": 4, "order": 4}, ChannelSpec("rician", 1.0), 2),
    "psk_awgn": ({"type": "psk", "order": 4}, ChannelSpec("awgn"), 1),
    "ofdm_im_rayleigh": ({"type": "ofdm_im", "n": 4, "k": 2, "order": 2},
                         ChannelSpec("rayleigh"), 1),
    "ofdm_im_rician": ({"type": "ofdm_im", "n": 4, "k": 2, "order": 4},
                       ChannelSpec("rician", 2.0), 1),
    "ofdm_im_awgn": ({"type": "ofdm_im", "n": 4, "k": 2, "order": 2}, ChannelSpec("awgn"), 1),
    "stsk_rayleigh": ({"type": "stsk", "q_matrices": 4, "p_active": 2, "order": 4,
                       "n_tx": 2, "n_slots": 2}, ChannelSpec("rayleigh"), 2),
    "stsk_rician": ({"type": "stsk", "q_matrices": 4, "p_active": 1, "order": 2,
                     "n_tx": 2, "n_slots": 2}, ChannelSpec("rician", 1.0, "ones"), 2),
    "mbm_rayleigh": ({"type": "mbm", "num_states": 8, "order": 2}, ChannelSpec("rayleigh"), 2),
}
SNR = 10.0 ** 0.8   # 8 dB: a few hundred errors per case


def model_of(case):
    scheme, channel, n_rx = CASES[case]
    return _BerModel(build_scheme(dict(scheme)), channel, n_rx)


def reference_errors(model, rng, batch, snr):
    """Bit errors of the same draws with the whole batch propagated at once
    and every hypothesis amp A(h) x_c formed for an exhaustive search."""
    x = model.x
    words = rng.integers(0, model.count, batch)
    h = model._draw_channel(rng, (batch, *model.h_shape))
    noise = complex_normal(rng, (batch, *model.noise_shape))
    amp = np.sqrt(snr)
    if model.scheme.model == "subcarrier":
        y = amp * h * x[:, words].T + noise
        mus = amp * h[:, :, None] * x[None]
        distance = np.sum(np.abs(y[:, :, None] - mus) ** 2, axis=1)
    else:
        slots = getattr(model.scheme, "n_slots", 1)
        book = x.reshape(-1, slots, model.count)                 # (dim, slots, C)
        y = amp * np.einsum("bri,itb->brt", h, book[:, :, words])
        y += noise.reshape(y.shape)
        mus = amp * np.einsum("bri,itc->brtc", h, book)
        distance = np.sum(np.abs(y[..., None] - mus) ** 2, axis=(1, 2))
    detected = np.argmin(distance, axis=1)
    return int(np.bitwise_count((words ^ detected).astype(np.uint64)).sum())


def block_budget(model, block):
    """A hypothesis budget that makes the detector chunks ``block`` trials."""
    return block * model.count if block else 1 << 40


@pytest.mark.parametrize("batch", [1000, 1001])
@pytest.mark.parametrize("block", [2, 3, None], ids=["block2", "block3", "whole"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bit_errors_do_not_depend_on_the_block_size(monkeypatch, case, block, batch):
    # block 3: 1000 trials leave one trial over (folded into a block of 4),
    # 1001 leave two; block 2: 1000 divide evenly, 1001 leave one
    model = model_of(case)
    default = model.simulate(stream_rng(21, 0, batch), batch, SNR)
    monkeypatch.setattr(detection, "_HYPOTHESIS_BUDGET", block_budget(model, block))
    assert model.simulate(stream_rng(21, 0, batch), batch, SNR) == default
    assert default == reference_errors(model, stream_rng(21, 0, batch), batch, SNR)


@pytest.mark.parametrize("case", ["sm_rayleigh", "ofdm_im_rayleigh", "stsk_rayleigh",
                                  "mbm_rayleigh"])
@pytest.mark.parametrize("batch", [1, 2, 5, 7])
def test_one_metric_evaluation_per_block_of_two_rows_or_more(monkeypatch, case, batch):
    model = model_of(case)
    rows = []
    metric = detection._metric

    def recording(zh, gram, table, snr):
        rows.append(len(zh))
        return metric(zh, gram, table, snr)

    monkeypatch.setattr(detection, "_metric", recording)
    monkeypatch.setattr(detection, "_HYPOTHESIS_BUDGET", 2 * model.count)
    model.simulate(stream_rng(22), batch, SNR)
    assert sum(rows) == batch
    assert rows == [1] if batch == 1 else min(rows) >= 2
    assert len(rows) == max(1, batch // 2)


@pytest.mark.parametrize("rows", [1, 2, 3, 4095, 4096, 4097, 4098, 65536, 65537])
@pytest.mark.parametrize("count", [1, 16, 64, 1 << 16, 1 << 17])
def test_chunk_edges_cover_the_rows_without_one_row_chunks(rows, count):
    edges = chunk_edges(rows, count)
    sizes = np.diff(edges)
    step = max(2, detection._HYPOTHESIS_BUDGET // count)
    assert edges[0] == 0 and edges[-1] == rows
    assert np.all(sizes >= min(2, rows)) and np.all(sizes <= step + 1)
    assert np.all(sizes[:-1] == step)


def two_product_metric(zh, gram, table, snr):
    return snr * (gram @ table.weights) - 2.0 * np.sqrt(snr) * (zh @ table.x).real


@pytest.mark.parametrize("kind", ["dense", "cross_terms", "slots", "diagonal"])
@pytest.mark.parametrize("snr", [0.1, 10.0, 1e4])
def test_fused_metric_matches_the_two_products(kind, snr):
    rng = stream_rng(23)
    if kind == "diagonal":
        table = MetricTable(build_scheme({"type": "ofdm_im", "n": 4, "k": 2, "order": 4})
                            .codebook().vectors, diagonal=True)
        h, y = complex_normal(rng, (501, 4)), complex_normal(rng, (501, 4))
        zh, gram = np.conj(y) * h, np.abs(h) ** 2
    else:
        vectors = {"dense": complex_normal(rng, (4, 16)),
                   "cross_terms": build_scheme({"type": "qsm", "n_tx": 4, "order": 16})
                   .codebook().vectors,
                   "slots": complex_normal(rng, (6, 16))}[kind]
        slots = 2 if kind == "slots" else 1
        table = MetricTable(vectors, slots)
        h = complex_normal(rng, (501, 3, vectors.shape[0] // slots))
        y = complex_normal(rng, (501, 3, slots) if slots > 1 else (501, 3))
        zh, gram = matched_filter(y, h, table)
    fused = detection._metric(zh, gram, table, snr)
    reference = two_product_metric(zh, gram, table, snr)
    scale = snr * np.abs(gram) @ np.abs(table.weights) + 2.0 * np.sqrt(snr) * (
        np.abs(zh) @ np.abs(table.x))
    assert fused.shape == reference.shape == (501, table.x.shape[1])
    assert np.all(np.abs(fused - reference) <= 1e-12 * scale)


@pytest.mark.parametrize("shape", [(64, 1, 1), (64, 2, 4), (64, 3, 5), (64, 8, 16), (64, 16, 3)])
def test_column_energies_bitwise_equal_two_strided_einsums(shape):
    h = complex_normal(stream_rng(24), shape)
    table = MetricTable(np.eye(shape[2], dtype=complex))
    _, energy = matched_filter(complex_normal(stream_rng(25), shape[:2]), h, table)
    old = (np.einsum("bri,bri->bi", h.real, h.real)
           + np.einsum("bri,bri->bi", h.imag, h.imag))
    assert energy.tobytes() == old.tobytes()


@pytest.mark.parametrize("case", ["sm_rayleigh", "ofdm_im_rayleigh", "stsk_rayleigh",
                                  "mbm_rayleigh"])
def test_batch_holds_its_draws_plus_one_block(case):
    # whole-batch temporaries past the draws (tx, y, conj(y), matched filter,
    # energies) would each add 16 bytes per trial and entry on top of this
    model = model_of(case)
    batch = 1 << 16
    model.simulate(stream_rng(26), batch, SNR)
    h_entries, noise_entries = np.prod(model.h_shape), np.prod(model.noise_shape)
    # the channel and the noise, the two planes of the larger Gaussian draw,
    # the words and the decisions
    draws = batch * (16 * (h_entries + noise_entries + max(h_entries, noise_entries)) + 16)
    tracemalloc.start()
    try:
        model.simulate(stream_rng(26), batch, SNR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= draws + (2 << 20)


def all_pairs_table(vectors, slots, diagonal):
    """Pairs and weights from Q formed over every pair of columns (dim x dim x C)."""
    blocks = vectors.reshape(-1, slots, vectors.shape[1])
    q = np.einsum("itc,jtc->ijc", blocks.conj(), blocks)
    pairs = np.argwhere(np.triu(np.any(q != 0, axis=2), k=1) & (not diagonal))
    off = q[pairs[:, 0], pairs[:, 1]]
    return pairs, np.concatenate([(np.abs(blocks) ** 2).sum(axis=1), 2.0 * off.real,
                                  -2.0 * off.imag])


@pytest.mark.parametrize("case", sorted(CASES) + ["gsm", "dense_slots"])
def test_table_equals_the_all_pairs_search_and_keeps_one_copy(case):
    if case in CASES:
        scheme = model_of(case).scheme
        vectors, slots = scheme.codebook().vectors, getattr(scheme, "n_slots", 1)
        diagonal = scheme.model == "subcarrier"
    elif case == "gsm":
        vectors = build_scheme({"type": "gsm", "n_tx": 5, "n_active": 2, "order": 4}) \
            .codebook().vectors
        slots, diagonal = 1, False
    else:
        vectors, slots, diagonal = complex_normal(stream_rng(27), (6, 16)), 2, False
    table = MetricTable(vectors, slots, diagonal)
    pairs, weights = all_pairs_table(vectors, slots, diagonal)
    assert np.array_equal(table.pairs, pairs)
    assert table.weights.tobytes() == weights.tobytes()
    assert table.x.tobytes() == vectors.tobytes()
    assert table.codewords.tobytes() == vectors.T.tobytes()
    for view in (table.weights, table.x, table.codewords):
        assert np.shares_memory(view, table.rows)
    assert table.rows.nbytes == 8 * vectors.shape[1] * (len(weights) + 2 * len(vectors))


def test_matched_filter_accepts_a_strided_channel():
    h = complex_normal(stream_rng(28), (64, 3, 8))[:, :, ::2]    # last axis not contiguous
    y = complex_normal(stream_rng(29), (64, 3))
    table = MetricTable(build_scheme({"type": "qsm", "n_tx": 4, "order": 4}).codebook().vectors)
    for got, want in zip(matched_filter(y, h, table), matched_filter(y, h.copy(), table)):
        assert got.tobytes() == want.tobytes()


# codebooks far past the shipped ones: many entries per codeword, 2^12
# codewords, and 2^16 codewords (detector blocks of two trials)
LARGE = {"sm256_qpsk": {"type": "sm", "n_tx": 256, "order": 4},
         "sm16_256": {"type": "sm", "n_tx": 16, "order": 256},
         "psk_65536": {"type": "psk", "order": 1 << 16}}


@pytest.mark.parametrize("case", sorted(LARGE))
def test_large_codebook_detects_exactly_within_its_draws(case):
    model = _BerModel(build_scheme(dict(LARGE[case])), ChannelSpec("rayleigh"), 1)
    check = 16 if model.count > 4096 else 256
    assert (model.simulate(stream_rng(30, 0, check), check, SNR)
            == reference_errors(model, stream_rng(30, 0, check), check, SNR))
    batch = 4096
    model.simulate(stream_rng(31), batch, SNR)
    h_entries, noise_entries = np.prod(model.h_shape), np.prod(model.noise_shape)
    draws = batch * (16 * (h_entries + noise_entries + max(h_entries, noise_entries)) + 16)
    tracemalloc.start()
    try:
        model.simulate(stream_rng(31), batch, SNR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a codebook-sized matrix per block (SNR-scaled weights, say) breaks this
    assert peak <= draws + (2 << 20)


def test_large_codebook_table_stays_a_few_codebooks_while_built():
    # Q over every pair of columns would be 256 x 256 x 1024 complex (1 GiB)
    scheme = build_scheme(dict(LARGE["sm256_qpsk"]))
    codebook_bytes = 16 * 256 * 1024
    tracemalloc.start()
    try:
        model = _BerModel(scheme, ChannelSpec("rayleigh"), 1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * codebook_bytes
    assert kept <= model.table.rows.nbytes + (2 << 20)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def held_draws(model, batch):
    """The channel, the noise's real plane and the words of one batch."""
    h_entries, noise_entries = np.prod(model.h_shape), np.prod(model.noise_shape)
    return batch * (16 * h_entries + 8 * noise_entries + 8)


@pytest.mark.parametrize("case", ["sm_rayleigh", "ofdm_im_rayleigh", "stsk_rayleigh",
                                  "mbm_rayleigh", "qsm_rician", "ofdm_im_rician",
                                  "stsk_rician"])
def test_batch_holds_each_draw_once(case):
    # a second copy of the channel draw, a whole-batch complex noise or
    # whole-batch decisions each add at least 4 MB here
    model = model_of(case)
    batch = 1 << 16
    model.simulate(stream_rng(26), batch, SNR)
    peak = traced_peak(lambda: model.simulate(stream_rng(26), batch, SNR))
    assert peak <= held_draws(model, batch) + (3 << 20)


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_holds_its_draws_plus_one_small_chunk(case):
    # words held as int64, a noise draw or the propagated chunk scaled out of
    # place, or chunks of the whole hypothesis budget (up to 32,768 trials for
    # these small tables) each add enough to break this
    model = model_of(case)
    batch = 1 << 16
    model.simulate(stream_rng(26), batch, SNR)
    peak = traced_peak(lambda: model.simulate(stream_rng(26), batch, SNR))
    h_entries, noise_entries = np.prod(model.h_shape), np.prod(model.noise_shape)
    word_bytes = np.min_scalar_type(model.count - 1).itemsize
    draws = batch * (16 * h_entries + 8 * noise_entries + word_bytes)
    assert peak <= draws + (5 << 18)   # 1.25 MiB


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_draws_the_stream_of_whole_batch_draws(case):
    # words, channel, then one complex_normal draw of the whole noise: the
    # per-block imaginary parts must leave the generator where it leaves it
    model = model_of(case)
    ours, theirs = stream_rng(32), stream_rng(32)
    model.simulate(ours, 1001, SNR)
    theirs.integers(0, model.count, 1001)
    model._draw_channel(theirs, (1001, *model.h_shape))
    complex_normal(theirs, (1001, *model.noise_shape))
    assert ours.standard_normal(3).tobytes() == theirs.standard_normal(3).tobytes()


# the K values of the shipped Rician configs, and one above them
@pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("structure", ["dft", "ones"])
def test_rician_mixing_in_place_is_channel_rician(k, structure):
    model = _BerModel(build_scheme({"type": "sm", "n_tx": 4, "order": 4}),
                      ChannelSpec("rician", k, structure), 4)
    shape = (1 << 16, *model.h_shape)
    h = model._draw_channel(stream_rng(33), shape)
    want = rician(k, np.broadcast_to(model.los, shape), complex_normal(stream_rng(33), shape))
    assert h.tobytes() == want.tobytes()
    model.simulate(stream_rng(34), shape[0], SNR)
    peak = traced_peak(lambda: model.simulate(stream_rng(34), shape[0], SNR))
    assert peak <= held_draws(model, shape[0]) + (3 << 20)


def concatenated_metric(zh, gram, table, snr):
    scaled = np.multiply(np.conj(zh), -2.0 * np.sqrt(snr), dtype=complex)
    return np.concatenate([snr * gram, scaled.view(np.float64)], axis=1) @ table.rows.T


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("snr", [0.1, SNR, 1e4])
def test_metric_bitwise_equals_the_concatenated_product(case, snr):
    model = model_of(case)
    rng = stream_rng(35)
    h = model._draw_channel(rng, (999, *model.h_shape))
    y = complex_normal(rng, (999, *model.noise_shape))
    if model.scheme.model == "subcarrier":
        zh, gram = np.conj(y) * h, np.abs(h) ** 2
    else:
        zh, gram = matched_filter(y, h, model.table)
    got = detection._metric(zh, gram, model.table, snr)
    assert got.tobytes() == concatenated_metric(zh, gram, model.table, snr).tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_left_matrix_stays_within_the_hypothesis_budget(monkeypatch, case):
    # blocks sized by the codeword count alone give the narrow-codebook cases
    # (stsk_rician: 8 codewords, table width 12) left matrices over the budget
    model = model_of(case)
    entries = []
    metric = detection._metric

    def recording(zh, gram, table, snr):
        entries.append(len(zh) * (gram.shape[1] + 2 * zh.shape[1]))
        return metric(zh, gram, table, snr)

    monkeypatch.setattr(detection, "_metric", recording)
    model.simulate(stream_rng(36), 1 << 16, SNR)
    assert entries and max(entries) <= detection._HYPOTHESIS_BUDGET


@pytest.mark.parametrize("case", ["sm_rayleigh", "stsk_rician", "mbm_rayleigh"])
def test_dense_propagation_equals_the_per_model_products(case):
    # the products of the vector, matrix and state models before they shared
    # one dense branch
    model = model_of(case)
    rng = stream_rng(37)
    words = rng.integers(0, model.count, 999)
    h = model._draw_channel(rng, (999, *model.h_shape))
    amp = np.sqrt(SNR)
    xt = model.table.codewords
    got = model._propagate(h, words, amp)
    assert got.shape == (999, *model.noise_shape)
    if model.scheme.model == "vector":
        assert got.tobytes() == (amp * np.einsum("bri,bi->br", h, xt[words])).tobytes()
    elif model.scheme.model == "matrix":
        mats = xt.reshape(model.count, model.scheme.n_tx, model.scheme.n_slots)
        assert got.tobytes() == (amp * np.einsum("bri,bit->brt", h, mats[words])).tobytes()
    else:
        state_of = np.argmax(model.x != 0, axis=0)               # codewords are one-hot
        sym_of = model.x[state_of, np.arange(model.count)]
        picked = h[np.arange(999), :, state_of[words]]
        # the one-hot product is the picked channel times the symbol; the
        # state model scaled the channel before the symbol (BPSK's -1 has an
        # imaginary part of 1.2e-16), which moves some entries by an ulp
        dense = amp * (picked * sym_of[words][:, None])
        assert got[..., 0].tobytes() == dense.tobytes()
        indexed = amp * picked * sym_of[words][:, None]
        np.testing.assert_allclose(got[..., 0], indexed, rtol=1e-15, atol=0)
