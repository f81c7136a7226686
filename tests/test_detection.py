import numpy as np
import pytest
from scipy.special import exp1

from risim import detection
from risim.detection import CapacityEstimate, ergodic_capacity


class TestCapacity:
    def test_fixed_identity_siso(self):
        assert detection._log2_det_gram(np.eye(1, dtype=complex)[None], 1.0)[0] == pytest.approx(1.0)

    def test_fixed_identity_2x2(self):
        assert detection._log2_det_gram(np.eye(2, dtype=complex)[None], 2.0)[0] == pytest.approx(2.0)

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
