import numpy as np
import pytest

from risim.aperture import FarFieldGrid
from risim.spacetime import (
    HarmonicSpectrum,
    harmonic_coefficients,
    phase_shift_harmonic,
    sequence_to_csv,
    synthesize_multi_harmonic,
    synthesize_single_harmonic,
)
from risim.util import mag_to_db


def quadrature_coefficient(steps, m):
    """Independent oracle: per-step Gauss-Legendre integration of the
    zero-order-hold waveform, a_m = (1/T) int Gamma(t) e^{-j2pi m t/T} dt."""
    num = len(steps)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    total = 0.0 + 0.0j
    for n, gamma in enumerate(steps):  # step n covers [n/num, (n+1)/num) of the period
        a, b = n / num, (n + 1) / num
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += gamma * 0.5 * (b - a) * np.sum(weights * np.exp(-2j * np.pi * m * t))
    return total


def unnormalized_sinc(x):
    return 1.0 if x == 0 else np.sin(x) / x


class TestHarmonicCoefficients:
    def test_constant_sequence_is_dc_only(self):
        gamma = 0.3 - 0.4j
        spectrum = harmonic_coefficients(np.full(8, gamma), range(-7, 8))
        assert spectrum[0] == pytest.approx(gamma)
        for m in range(-7, 8):
            if m != 0:
                assert spectrum.magnitude(m) < 1e-14

    def test_full_turn_ramp_l8(self):
        spectrum = harmonic_coefficients(synthesize_single_harmonic(1, 8), range(-4, 5))
        assert spectrum.magnitude(1) == pytest.approx(0.97450, abs=1e-5)
        assert spectrum.magnitude(1) == pytest.approx(unnormalized_sinc(np.pi / 8))
        for m in range(-4, 5):
            if m != 1:
                assert spectrum.magnitude(m) < 0.2

    def test_slope_selects_harmonic_minus2_to_plus2(self):
        for m in (-2, -1, 0, 1, 2):
            spectrum = harmonic_coefficients(
                synthesize_single_harmonic(m, 16), range(-16, 17)
            )
            assert spectrum.dominant() == m

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            num = int(rng.choice([4, 8, 16]))
            steps = np.exp(2j * np.pi * rng.random(num)) * rng.uniform(0.2, 1.0, num)
            ms = rng.integers(-num, num + 1, size=5)
            spectrum = harmonic_coefficients(steps, ms.tolist())
            for m in ms.tolist():
                assert spectrum[m] == pytest.approx(quadrature_coefficient(steps, m), abs=1e-9)

    def test_truncated_parseval(self):
        rng = np.random.default_rng(3)
        for num in (4, 8, 16):
            steps = np.exp(2j * np.pi * rng.random(num))
            spectrum = harmonic_coefficients(steps, range(-num, num + 1))
            time_power = np.mean(np.abs(steps) ** 2)
            assert sum(spectrum.magnitude(m) ** 2 for m in spectrum) <= time_power + 1e-12


class TestSingleHarmonic:
    def test_zero_slope_is_constant(self):
        assert np.allclose(synthesize_single_harmonic(0, 8), np.ones(8))

    def test_loopback_argmax_over_all_valid_pairs(self):
        for num in (4, 8, 16, 32):
            for m in range(-(num // 2) + 1, num // 2):
                spectrum = harmonic_coefficients(
                    synthesize_single_harmonic(m, num), range(-num, num + 1)
                )
                assert spectrum.dominant() == m

    def test_image_suppression_minus2_l16(self):
        spectrum = harmonic_coefficients(
            synthesize_single_harmonic(-2, 16), range(-16, 17)
        )
        dominant = spectrum.magnitude(-2)
        rest = max(spectrum.magnitude(m) for m in spectrum if m != -2)
        assert 20 * np.log10(dominant / rest) > 13.0

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="alias"):
            synthesize_single_harmonic(8, 16)


@pytest.fixture()
def ramp():
    return synthesize_single_harmonic(1, 16)


class TestPhaseShift:
    def test_zero_and_full_shift_identity(self, ramp):
        base = harmonic_coefficients(ramp, range(-16, 17))
        for shift in (0, 16):
            shifted = harmonic_coefficients(
                phase_shift_harmonic(ramp, shift), range(-16, 17)
            )
            for m in base:
                assert shifted[m] == pytest.approx(base[m])

    def test_quarter_shift_rotates_90_magnitude_invariant(self, ramp):
        base = harmonic_coefficients(ramp, [1])[1]
        shifted = harmonic_coefficients(phase_shift_harmonic(ramp, 4), [1])[1]
        rotation = np.angle(shifted / base)
        assert abs(abs(rotation) - np.pi / 2) < 1e-12
        assert abs(abs(shifted) - abs(base)) < 1e-12

    def test_magnitudes_invariant_for_all_shifts(self):
        rng = np.random.default_rng(7)
        steps = np.exp(2j * np.pi * rng.random(16))
        base = harmonic_coefficients(steps, range(-16, 17))
        for shift in range(17):
            shifted = harmonic_coefficients(
                phase_shift_harmonic(steps, shift), range(-16, 17)
            )
            for m in base:
                assert abs(shifted.magnitude(m) - base.magnitude(m)) < 1e-12

    def test_rotation_follows_delay_convention(self, ramp):
        # arg a^m changes by exactly -2*pi*m*s/L under a delay of s steps
        for m, s in ((1, 3), (2, 5), (-1, 4)):
            steps = synthesize_single_harmonic(m, 16)
            base = harmonic_coefficients(steps, [m])[m]
            shifted = harmonic_coefficients(phase_shift_harmonic(steps, s), [m])[m]
            expected = -2 * np.pi * m * s / 16
            assert np.angle(shifted / base * np.exp(-1j * expected)) == pytest.approx(0, abs=1e-12)

    def test_fractional_shift_rejected(self, ramp):
        with pytest.raises(ValueError, match="integer"):
            phase_shift_harmonic(ramp, 2.5)
        with pytest.raises(ValueError, match="integer"):
            phase_shift_harmonic(ramp, 4.0)


class TestMultiHarmonic:
    def test_single_target_reduces_to_ramp(self):
        result = synthesize_multi_harmonic([(2, 1.0)], 16)
        ramp = synthesize_single_harmonic(2, 16)
        aligned = result.steps * (ramp[0] / result.steps[0])
        assert np.max(np.abs(aligned - ramp)) < 1e-6
        # natural-phase target converges to the ramp exactly
        natural = unnormalized_sinc(np.pi * 2 / 16) * np.exp(1j * np.pi * 2 / 16)
        result2 = synthesize_multi_harmonic([(2, natural)], 16)
        assert np.max(np.abs(result2.steps - ramp)) < 1e-9

    def test_symmetric_pair_feasible_power(self):
        result = synthesize_multi_harmonic([(1, 0.7), (-1, 0.7)], 16)
        spectrum = harmonic_coefficients(result.steps, [-1, 1])
        assert abs(spectrum.magnitude(1) - 0.68) < 0.05
        assert abs(spectrum.magnitude(-1) - 0.68) < 0.05
        assert np.allclose(np.abs(result.steps), 1.0)

    def test_empty_targets_constant(self):
        result = synthesize_multi_harmonic([], 16)
        assert np.allclose(result.steps, 1.0)
        assert result.residual == 0.0

    def test_power_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            synthesize_multi_harmonic([(1, 0.9), (-1, 0.9)], 16)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            synthesize_multi_harmonic([(1, 0.5), (1, 0.5)], 16)

    def test_deterministic(self):
        a = synthesize_multi_harmonic([(1, 0.6), (3, 0.6)], 16, seed=5)
        b = synthesize_multi_harmonic([(1, 0.6), (3, 0.6)], 16, seed=5)
        assert np.array_equal(a.steps, b.steps)


def test_spectrum_export(tmp_path):
    spectrum = HarmonicSpectrum({0: 1.0 + 0j, 1: 0.5j, -1: 0.0j})
    path = tmp_path / "spectrum.csv"
    spectrum.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,mag_db,phase_deg"
    assert len(lines) == 4

    seq_path = tmp_path / "seq.csv"
    sequence_to_csv(np.array([1.0, 1j]), seq_path)
    assert seq_path.read_text().splitlines()[0] == "step,phase_deg,mag"


@pytest.mark.parametrize("x", [0.0, 1e-16, 1e-15, np.nan])
def test_one_minus_300_db_floor_for_every_export(tmp_path, x):
    assert mag_to_db(x) == -300.0
    assert mag_to_db(1.0) == 0.0
    assert mag_to_db(np.array([x, 1.0])).tolist() == [-300.0, 0.0]
    grid = FarFieldGrid(np.zeros(1), np.array([0.0, 1.0]), [[x, 1.0]])
    assert grid.mag_db().tolist() == [[-300.0, 0.0]]
    HarmonicSpectrum({0: complex(x), 1: 1.0 + 0j}).to_csv(tmp_path / "s.csv")
    rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["-300.000000", "0.000000"]
