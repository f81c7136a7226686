import numpy as np
import pytest
from scipy.special import exp1

from risim.channel import rayleigh, stream_rng
from risim.detection import (
    CandidateSet,
    CapacityEstimate,
    detect_ofdm_im,
    ergodic_capacity,
    instantaneous_capacity,
    mld,
)
from risim.im_schemes import OfdmIm, SpatialModulation, SpaceShiftKeying, SisoModulation
from risim.modulation import int_to_bits


def naive_mld(y, h, candidates):
    """Independent oracle: plain double loop over antennas and candidates."""
    best_label, best_metric = None, None
    for c in range(candidates.count):
        metric = 0.0
        for l in range(len(y)):
            acc = 0.0 + 0.0j
            for i in range(h.shape[1]):
                acc += h[l, i] * candidates.vectors[i, c]
            metric += abs(y[l] - acc) ** 2
        if best_metric is None or metric < best_metric:
            best_metric = metric
            best_label = int(candidates.labels[c])
    return best_label


class TestMld:
    def test_identity_channel_sm_bpsk(self):
        scheme = SpatialModulation(2, 2)
        book = scheme.codebook()
        y = np.array([1.0 + 0j, 0.0 + 0j])
        label = mld(y, np.eye(2), book)
        assert label == 0  # antenna 0, symbol +1

    @pytest.mark.parametrize("scheme", [
        SisoModulation(4),
        SpatialModulation(4, 4),
        SpaceShiftKeying(8),
    ], ids=["qpsk", "sm44", "ssk8"])
    def test_noiseless_exactness_every_codeword(self, scheme):
        book = scheme.codebook()
        rng = stream_rng(17)
        h = rayleigh(4, book.vectors.shape[0], rng)
        for word in range(book.count):
            y = h @ book.vectors[:, word]
            assert mld(y, h, book) == word

    def test_agreement_with_naive_double_loop(self):
        scheme = SpatialModulation(4, 4)
        book = scheme.codebook()
        for trial in range(500):
            rng = stream_rng(23, trial)
            h = rayleigh(2, 4, rng)
            y = (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert mld(y, h, book) == naive_mld(y, h, book)

    def test_scale_invariance_of_decision(self):
        scheme = SpatialModulation(4, 4)
        book = scheme.codebook()
        rng = stream_rng(31)
        h = rayleigh(2, 4, rng)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for alpha in (0.25, 1.0, 7.5):
            assert mld(alpha * y, alpha * h, book) == mld(y, h, book)

    def test_tie_breaks_to_lowest_label(self):
        cands = CandidateSet(np.array([3, 5]), np.array([[1.0], [1.0]], complex).T)
        y = np.array([0.0 + 0j])  # equidistant from both
        assert mld(y, np.eye(1), cands) == 3

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            CandidateSet(np.array([]), np.zeros((2, 0)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CandidateSet(np.array([1, 1]), np.ones((2, 2), complex))

    def test_dimension_mismatch(self):
        scheme = SisoModulation(2)
        with pytest.raises(ValueError):
            mld(np.ones(2), np.ones((3, 1)), scheme.codebook())


class TestDetectOfdmIm:
    def test_noiseless_loopback(self):
        scheme = OfdmIm(4, 2, 2)
        book = scheme.codebook()
        rng = stream_rng(41)
        h = rayleigh(1, 4, rng)[0]
        for word in range(book.count):
            y = h * book.vectors[:, word]
            bits = detect_ofdm_im(y, h, scheme)
            assert np.array_equal(bits, int_to_bits(word, 4))

    def test_agreement_with_exhaustive_search(self):
        scheme = OfdmIm(4, 2, 2)
        book = scheme.codebook()
        for trial in range(200):
            rng = stream_rng(43, trial)
            h = rayleigh(1, 4, rng)[0]
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            bits = detect_ofdm_im(y, h, scheme)
            metrics = np.sum(np.abs(y[:, None] - h[:, None] * book.vectors) ** 2, axis=0)
            assert np.array_equal(bits, int_to_bits(int(np.argmin(metrics)), 4))

    def test_all_active_equals_per_subcarrier_slicing(self):
        scheme = OfdmIm(4, 4, 2)
        rng = stream_rng(47)
        h = rayleigh(1, 4, rng)[0]
        word = 0b1011
        y = h * scheme.codebook().vectors[:, word]
        bits = detect_ofdm_im(y, h, scheme)
        sliced = (np.real(y / h) < 0).astype(np.int8)  # BPSK per subcarrier
        mapped = scheme.map_word(word)
        assert np.array_equal(bits, int_to_bits(word, 4))
        assert np.array_equal(sliced, int_to_bits(word, 4))

    def test_multiple_blocks(self):
        scheme = OfdmIm(4, 2, 2)
        book = scheme.codebook()
        rng = stream_rng(53)
        h = rayleigh(2, 4, rng)
        words = [3, 11]
        y = np.stack([h[i] * book.vectors[:, w] for i, w in enumerate(words)])
        bits = detect_ofdm_im(y, h, scheme)
        expected = np.concatenate([int_to_bits(w, 4) for w in words])
        assert np.array_equal(bits, expected)

    def test_invalid_sets_never_returned(self):
        scheme = OfdmIm(4, 2, 2)
        rng = stream_rng(59)
        for trial in range(100):
            gen = stream_rng(59, trial)
            h = rayleigh(1, 4, gen)[0]
            y = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            bits = detect_ofdm_im(y, h, scheme)
            word = int("".join(map(str, bits)), 2)
            assert scheme.map_word(word).indices in {(0, 1), (0, 2), (0, 3), (1, 2)}


class TestCapacity:
    def test_fixed_identity_siso(self):
        assert instantaneous_capacity(np.eye(1), 1.0) == pytest.approx(1.0)

    def test_fixed_identity_2x2(self):
        assert instantaneous_capacity(np.eye(2), 2.0) == pytest.approx(2.0)

    def test_siso_rayleigh_matches_exponential_integral(self):
        # closed form e^{1/g} E1(1/g) / ln 2 evaluated numerically
        snr = 10.0
        oracle = np.exp(1.0 / snr) * exp1(1.0 / snr) / np.log(2.0)
        est = ergodic_capacity(1, 1, snr, trials=200_000, seed=2)
        assert est.mean == pytest.approx(oracle, abs=0.02)
        assert est.std_err < 0.01

    def test_monotone_in_snr_and_antennas(self):
        means_snr = [ergodic_capacity(2, 2, g, 20_000, seed=3).mean for g in (1.0, 10.0, 100.0)]
        assert means_snr[0] < means_snr[1] < means_snr[2]
        means_ant = [ergodic_capacity(n, n, 10.0, 20_000, seed=3).mean for n in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(means_ant, means_ant[1:]))

    def test_reproducible(self):
        a = ergodic_capacity(2, 2, 5.0, 5_000, seed=9)
        b = ergodic_capacity(2, 2, 5.0, 5_000, seed=9)
        assert a == b == CapacityEstimate(a.mean, a.std_err, 5_000)
