"""Ergodic capacity of the shipped configs against Telatar's closed form.

Telatar ("Capacity of multi-antenna Gaussian channels", Eur. Trans.
Telecommun. 1999): with m = min(nt, nr), n = max(nt, nr) and H of i.i.d.
CN(0, 1) entries,

    C = int_0^inf log2(1 + snr/nt x) sum_{k<m} k!/(k+n-m)! [L_k^{n-m}(x)]^2
        x^{n-m} e^{-x} dx,

where L_k^a are the generalized Laguerre polynomials.  The sum times
x^{n-m} e^{-x} / m is the density of an unordered eigenvalue of H H^H.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, exp1, gammaln

from risim.harness import parse_config, run_capacity

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# family-wise bound on |z| over the independent antenna pairs of a config;
# each pair's rows share one draw, so its SNR points are not independent
Z_BOUND = 4.5


def eigenvalue_weight(x, m, n):
    """m times the unordered-eigenvalue density of H H^H at x."""
    a = n - m
    total = 0.0
    for k in range(m):
        log_ratio = gammaln(k + 1) - gammaln(k + a + 1)
        total += math.exp(log_ratio) * eval_genlaguerre(k, a, x) ** 2
    return total * x ** a * math.exp(-x)


def telatar_capacity(n_tx, n_rx, snr_linear):
    m, n = min(n_tx, n_rx), max(n_tx, n_rx)
    # the eigenvalues concentrate below (sqrt(n) + sqrt(m))^2; split the
    # range there so quad resolves the oscillating Laguerre terms
    edge = 2.0 * (math.sqrt(n) + math.sqrt(m)) ** 2

    def integrand(x):
        return math.log2(1.0 + snr_linear / n_tx * x) * eigenvalue_weight(x, m, n)

    body = quad(integrand, 0.0, edge, limit=400, epsabs=1e-12, epsrel=1e-12)[0]
    tail = quad(integrand, edge, math.inf, limit=200, epsabs=1e-12)[0]
    return body + tail


@pytest.mark.parametrize("n_tx, n_rx", [(1, 1), (2, 2), (16, 16), (1, 4), (20, 12)])
def test_eigenvalue_weight_integrates_to_m(n_tx, n_rx):
    m, n = min(n_tx, n_rx), max(n_tx, n_rx)
    edge = 2.0 * (math.sqrt(n) + math.sqrt(m)) ** 2
    mass = (quad(eigenvalue_weight, 0.0, edge, args=(m, n), limit=400)[0]
            + quad(eigenvalue_weight, edge, math.inf, args=(m, n))[0])
    assert mass == pytest.approx(m, rel=1e-9)


def test_closed_form_matches_the_siso_exponential_integral():
    # 1x1: C = e^{1/snr} E1(1/snr) / ln 2
    snr = 10.0
    expected = math.exp(1.0 / snr) * exp1(1.0 / snr) / math.log(2.0)
    assert telatar_capacity(1, 1, snr) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("name", ["capacity_rayleigh.json", "capacity_asym.json"])
def test_every_row_agrees_with_telatar(name):
    rows = run_capacity(parse_config(CONFIGS / name))
    z = []
    for n_tx, n_rx, snr_db, mean, std_err, _ in rows:
        exact = telatar_capacity(n_tx, n_rx, 10.0 ** (snr_db / 10.0))
        z.append((mean - exact) / std_err)
    assert np.all(np.isfinite(z))
    assert max(abs(v) for v in z) <= Z_BOUND, z
