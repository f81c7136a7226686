import numpy as np
import pytest

from risim.aperture import (
    ApertureGeometry,
    FarFieldGrid,
    PhaseCoding,
    SteeringSpec,
    UnsteerableGradientError,
    coding_to_csv,
    compose_phase,
    direction_grid,
    directivity_map,
    directivity_normalization,
    peak_directivity,
    pseudo_random_codings,
    quantize_phase,
    radiation_pattern,
    scan_angle,
    steering_phase,
)


@pytest.fixture(scope="module")
def geom():
    return ApertureGeometry(20, 20, 2.8e-3, 2.8e-3, 28e9)


def zeros(geom):
    return np.zeros((geom.rows, geom.cols))


class TestScanAngle:
    def test_broadside_for_zero_range(self):
        spec = SteeringSpec(4, 0.0, 2.8e-3)
        assert scan_angle(spec, 0.0107) == 0.0

    def test_full_turn_over_two_wavelengths(self):
        lam = 0.0107
        spec = SteeringSpec(4, 2 * np.pi, lam / 2)  # Q*d = 2*lambda
        assert scan_angle(spec, lam) == pytest.approx(np.deg2rad(30.0))

    def test_gradient_for_45_degrees(self, geom):
        # invert the scan equation numerically: the per-cell step for 45 deg
        target = np.deg2rad(45.0)
        gradient = geom.wavenumber * geom.dx * np.sin(target)
        assert gradient == pytest.approx(1.161, abs=2e-3)
        spec = SteeringSpec(4, gradient * 4, geom.dx)
        assert scan_angle(spec, geom.wavelength) == pytest.approx(target)

    def test_evanescent_gradient_raises(self):
        lam = 0.0107
        with pytest.raises(UnsteerableGradientError):
            scan_angle(SteeringSpec(1, 2 * np.pi, lam / 4), lam)


class TestSteeringPhase:
    def test_full_range_sawtooth(self, geom):
        spec = SteeringSpec(4, 2 * np.pi, geom.dx)
        phases = np.mod(steering_phase(geom, spec), 2 * np.pi)
        assert phases[:4] == pytest.approx([0, np.pi / 2, np.pi, 3 * np.pi / 2])
        # exactly 5 full sawtooth periods across 20 elements
        assert phases.reshape(5, 4) == pytest.approx(np.tile(phases[:4], (5, 1)))

    def test_single_cell_period_is_uniform(self, geom):
        spec = SteeringSpec(1, 2 * np.pi, geom.dx)
        assert np.abs(steering_phase(geom, spec)).max() < 1e-12


class TestComposePhase:
    def test_all_zero(self, geom):
        coding = compose_phase(zeros(geom), np.zeros(geom.rows), zeros(geom))
        assert np.all(coding.phase == 0)
        assert np.all(coding.amplitude == 1)

    def test_uniform_pi(self, geom):
        coding = compose_phase(np.full((20, 20), np.pi), np.zeros(20), zeros(geom))
        assert coding.phase == pytest.approx(np.full((20, 20), -np.pi))  # pi wraps to -pi

    def test_wrapping(self, geom):
        coding = compose_phase(np.full((20, 20), np.pi / 2), np.full(20, np.pi / 2),
                               np.full((20, 20), np.pi / 2))
        assert coding.phase == pytest.approx(np.full((20, 20), -np.pi / 2))

    def test_shape_mismatch(self, geom):
        with pytest.raises(ValueError, match="shape"):
            compose_phase(zeros(geom), np.zeros(3), np.zeros((5, 5)))


class TestRadiationPattern:
    def test_uniform_peaks_broadside_with_coherent_sum(self, geom):
        grid = radiation_pattern(PhaseCoding.uniform(20, 20), geom)
        assert np.abs(grid.field).max() == pytest.approx(400.0)
        theta, _ = grid.peak_direction()
        assert theta == 0.0

    @pytest.mark.parametrize("period", [2, 4, 8])
    @pytest.mark.parametrize("range_deg", [180.0, 270.0, 310.0])
    def test_steering_consistency(self, period, range_deg):
        # argmax of the synthesized pattern matches the scan equation within
        # one 1-degree grid cell, across the periods and tuning ranges
        geom = ApertureGeometry(20, 20, 0.0107068735 / 2, 0.0107068735 / 2, 28e9)
        spec = SteeringSpec(period, np.deg2rad(range_deg), geom.dx)
        predicted = scan_angle(spec, geom.wavelength)
        coding = compose_phase(zeros(geom), steering_phase(geom, spec), zeros(geom))
        theta, _ = radiation_pattern(coding, geom).peak_direction()
        assert abs(theta - predicted) <= np.deg2rad(1.0)

    def test_linearity_in_amplitude(self, geom):
        rng = np.random.default_rng(5)
        phase = rng.uniform(-np.pi, np.pi, (20, 20))
        base = radiation_pattern(PhaseCoding(np.full((20, 20), 1.0), phase), geom)
        half = radiation_pattern(PhaseCoding(np.full((20, 20), 0.5), phase), geom)
        assert np.allclose(half.field, 0.5 * base.field)

    def test_phase_wrap_invariance(self, geom):
        rng = np.random.default_rng(6)
        phase = rng.uniform(-np.pi, np.pi, (20, 20))
        base = radiation_pattern(PhaseCoding(np.ones((20, 20)), phase), geom)
        wrapped = radiation_pattern(PhaseCoding(np.ones((20, 20)), phase + 2 * np.pi), geom)
        assert np.allclose(base.field, wrapped.field, atol=1e-12 * 400)

    def test_element_factor_tapers_off_broadside(self, geom):
        coding = PhaseCoding.uniform(20, 20)
        iso = radiation_pattern(coding, geom)
        tapered = radiation_pattern(coding, geom, element_exponent=2.0)
        mid = len(iso.theta) // 2
        assert np.abs(tapered.field[mid]).max() < np.abs(iso.field[mid]).max()
        assert np.abs(tapered.field[0]) == pytest.approx(np.abs(iso.field[0]))


class TestDirectivity:
    def test_hemisphere_isotropic_is_2(self):
        theta, phi = direction_grid()
        grid = FarFieldGrid(theta, phi, np.ones((len(theta), len(phi)), complex))
        linear, dbi = peak_directivity(grid)
        assert linear == pytest.approx(2.0, rel=1e-3)
        assert dbi == pytest.approx(3.01, abs=0.01)

    def test_matches_fine_grid_oracle(self, geom):
        # same integral at 16x the resolution (0.25 deg) within 0.5 dB
        coding = PhaseCoding.uniform(20, 20)
        _, coarse_dbi = peak_directivity(radiation_pattern(coding, geom))
        fine = radiation_pattern(coding, geom, *direction_grid(0.25, 0.25))
        _, fine_dbi = peak_directivity(fine)
        assert abs(coarse_dbi - fine_dbi) <= 0.5

    def test_scale_invariance(self, geom):
        coding = PhaseCoding.uniform(20, 20)
        grid = radiation_pattern(coding, geom)
        doubled = FarFieldGrid(grid.theta, grid.phi, 2.0 * grid.field)
        assert directivity_map(doubled) == pytest.approx(directivity_map(grid))

    def test_zero_field_is_undefined(self):
        theta, phi = direction_grid(10, 10)
        grid = FarFieldGrid(theta, phi, np.zeros((len(theta), len(phi)), complex))
        with pytest.raises(ValueError, match="undefined"):
            directivity_map(grid)

    def test_normalization_within_one_percent(self, geom):
        spec = SteeringSpec(4, np.deg2rad(310.0), geom.dx)
        coding = compose_phase(zeros(geom), steering_phase(geom, spec), zeros(geom))
        norm = directivity_normalization(radiation_pattern(coding, geom))
        assert 0.99 <= norm <= 1.01


class TestPseudoRandomCodings:
    def test_reproducible(self, geom):
        first = pseudo_random_codings(4, geom, seed=9)
        second = pseudo_random_codings(4, geom, seed=9)
        for a, b in zip(first, second):
            assert np.array_equal(a.phase, b.phase)

    def test_sixteen_distinct_states(self, geom):
        codings = pseudo_random_codings(16, geom, seed=2)
        seen = {c.phase.tobytes() for c in codings}
        assert len(seen) == 16

    def test_patterns_decorrelated(self, geom):
        # normalized pattern cross-correlation stays well below self-correlation
        theta, phi = direction_grid(3.0, 3.0)
        codings = pseudo_random_codings(16, geom, seed=2)
        weights = np.sin(theta)[:, None]
        fields = [radiation_pattern(c, geom, theta, phi).field for c in codings]
        gram = np.zeros((16, 16))
        for i in range(16):
            for j in range(16):
                gram[i, j] = abs(np.sum(weights * fields[i] * np.conj(fields[j])))
        norm = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
        rho = gram / norm
        off_diag = rho[~np.eye(16, dtype=bool)]
        assert off_diag.max() < 0.5


def test_quantize_phase_levels():
    phases = np.array([0.1, np.pi / 2 - 0.1, -3.0])
    two_bit = quantize_phase(phases, 2)
    assert set(np.round(two_bit, 6)) <= {0.0, np.round(np.pi / 2, 6),
                                         np.round(-np.pi, 6), np.round(-np.pi / 2, 6)}


def test_exports_roundtrip(tmp_path, geom):
    coding = PhaseCoding.uniform(4, 4, phase=0.3)
    path = tmp_path / "coding.csv"
    coding_to_csv(coding, path)
    back = np.loadtxt(path, delimiter=",")
    assert back == pytest.approx(np.rad2deg(coding.phase), abs=1e-3)

    small = ApertureGeometry(4, 4, 2.8e-3, 2.8e-3, 28e9)
    grid = radiation_pattern(PhaseCoding.uniform(4, 4), small, *direction_grid(15, 30))
    field_path = tmp_path / "field.csv"
    grid.to_csv(field_path)
    header = field_path.read_text().splitlines()[0]
    assert header == "theta_deg,phi_deg,mag_db,phase_deg"
    uv_path = tmp_path / "uv.csv"
    grid.to_uv_csv(uv_path)
    assert uv_path.read_text().splitlines()[0] == "u,v,mag_db"
