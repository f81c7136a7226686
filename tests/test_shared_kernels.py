"""Patterns computed and written with per-sweep shared work are bitwise equal
to the ones computed and written without it."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from risim import aperture
from risim.aperture import (
    ArrayKernels,
    ApertureGeometry,
    FarFieldGrid,
    GridText,
    PhaseCoding,
    direction_cosines,
    direction_grid,
    radiation_pattern,
)
from risim.harness import parse_config, run_pattern
from risim.util import _CSV_BLOCK_ROWS, _strings_text, row_templates, write_csv

GEOM_A = ApertureGeometry(20, 20, 2.8e-3, 2.8e-3, 28e9)
GEOM_B = ApertureGeometry(6, 9, 3.1e-3, 2.2e-3, 31e9)


def random_coding(geom, seed):
    rng = np.random.default_rng(seed)
    return PhaseCoding(rng.uniform(0.2, 1.0, (geom.rows, geom.cols)),
                       rng.uniform(-np.pi, np.pi, (geom.rows, geom.cols)))


def test_two_geometries_called_alternately():
    theta, phi = direction_grid(3.0, 3.0)
    kernels = {geom: ArrayKernels(geom, theta, phi) for geom in (GEOM_A, GEOM_B)}
    for seed in range(6):
        geom = (GEOM_A, GEOM_B)[seed % 2]
        coding = random_coding(geom, seed)
        shared = radiation_pattern(coding, geom, theta, phi, kernels=kernels[geom])
        alone = radiation_pattern(coding, geom, theta, phi)
        assert np.array_equal(shared.field, alone.field)


def test_kernels_of_another_geometry_or_grid_are_refused():
    theta, phi = direction_grid(3.0, 3.0)
    kernels = ArrayKernels(GEOM_A, theta, phi)
    coding_b = random_coding(GEOM_B, 0)
    with pytest.raises(ValueError, match="different geometry or grid"):
        radiation_pattern(coding_b, GEOM_B, theta, phi, kernels=kernels)
    coding_a = random_coding(GEOM_A, 0)
    with pytest.raises(ValueError, match="different geometry or grid"):
        radiation_pattern(coding_a, GEOM_A, *direction_grid(3.0, 4.0), kernels=kernels)


def test_grid_of_more_than_one_chunk_with_element_factor():
    geom = ApertureGeometry(4, 5, 2.8e-3, 2.8e-3, 28e9)
    theta, phi = direction_grid(0.5, 0.75)
    assert theta.size * phi.size == 86_880
    kernels = ArrayKernels(geom, theta, phi)
    assert len(kernels.chunks) == 2
    for exponent in (0.0, 1.5):
        coding = random_coding(geom, 3)
        shared = radiation_pattern(coding, geom, theta, phi, exponent, kernels=kernels)
        alone = radiation_pattern(coding, geom, theta, phi, exponent)
        assert np.array_equal(shared.field, alone.field)


def test_default_grid_kernels():
    kernels = ArrayKernels(GEOM_B, *direction_grid())
    coding = random_coding(GEOM_B, 4)
    assert np.array_equal(radiation_pattern(coding, GEOM_B, kernels=kernels).field,
                          radiation_pattern(coding, GEOM_B).field)


def reference_kernels(geom, theta, phi, chunk):
    """The kernels as one expression per chunk, with the temporaries it makes."""
    u, v = direction_cosines(theta, phi)
    x = np.arange(geom.rows) * geom.dx
    y = np.arange(geom.cols) * geom.dy
    kc = geom.wavenumber
    return [(np.exp(1j * kc * np.outer(x, u[s:s + chunk])),
             np.exp(1j * kc * np.outer(y, v[s:s + chunk]))) for s in range(0, u.size, chunk)]


@pytest.mark.parametrize("geom, steps", [(GEOM_A, (1.0, 1.0)), (GEOM_B, (3.0, 3.0)),
                                         (ApertureGeometry(4, 5, 2.8e-3, 2.8e-3, 28e9),
                                          (0.5, 0.75))])
def test_kernels_built_in_place_are_bitwise_the_expression(geom, steps):
    theta, phi = direction_grid(*steps)
    kernels = ArrayKernels(geom, theta, phi)
    want = reference_kernels(geom, theta, phi, kernels.chunks[0][1].shape[1])
    assert len(kernels.chunks) == len(want)
    for (_, ex, ey), (wx, wy) in zip(kernels.chunks, want):
        assert np.array_equal(ex.view(np.uint64), wx.view(np.uint64))
        assert np.array_equal(ey.view(np.uint64), wy.view(np.uint64))


@pytest.mark.parametrize("geom, steps", [(GEOM_A, (1.0, 1.0)),
                                         (ApertureGeometry(4, 5, 2.8e-3, 2.8e-3, 28e9),
                                          (0.5, 0.75))])
def test_kernel_build_peak_stays_near_what_is_held(geom, steps):
    theta, phi = direction_grid(*steps)
    tracemalloc.start()
    try:
        kernels = ArrayKernels(geom, theta, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(ex.nbytes + ey.nbytes for _, ex, ey in kernels.chunks)
    assert peak <= held + (2 << 20)


def column_stack_bytes(tmp_path, grid):
    """The far-field files as write_csv of the full column stack."""
    th, ph = np.meshgrid(np.rad2deg(grid.theta), np.rad2deg(grid.phi), indexing="ij")
    phase = np.rad2deg(np.angle(grid.field))
    u, v = direction_cosines(grid.theta, grid.phi)
    mag = grid.mag_db().ravel()
    write_csv(tmp_path / "ref.csv", np.column_stack([th.ravel(), ph.ravel(), mag, phase.ravel()]),
              "%.6f", header="theta_deg,phi_deg,mag_db,phase_deg")
    write_csv(tmp_path / "ref_uv.csv", np.column_stack([u, v, mag]), "%.6f", header="u,v,mag_db")
    return (tmp_path / "ref.csv").read_bytes(), (tmp_path / "ref_uv.csv").read_bytes()


@pytest.mark.parametrize("steps", [(15.0, 30.0), (0.5, 1.0)], ids=["coarse", "two-blocks"])
def test_writers_equal_write_csv_of_the_column_stack(tmp_path, steps):
    theta, phi = direction_grid(*steps)
    grid = radiation_pattern(random_coding(GEOM_B, 6), GEOM_B, theta, phi)
    field = grid.field.copy()
    field[0, :3] = 0.0                # written at the -300 dB floor
    field[1, 0] = complex(-0.0, 0.0)
    grid = FarFieldGrid(theta, phi, field)
    want, want_uv = column_stack_bytes(tmp_path, grid)
    assert b",-300.000000," in want and b"\n-0.000000," in want_uv  # u = -0.0 at theta = 0
    text = GridText(theta, phi)
    for shared in (text, None):
        grid.to_csv(tmp_path / "f.csv", shared)
        grid.to_uv_csv(tmp_path / "uv.csv", shared)
        assert (tmp_path / "f.csv").read_bytes() == want
        assert (tmp_path / "uv.csv").read_bytes() == want_uv


def test_grid_text_serves_many_patterns_and_refuses_another_grid(tmp_path):
    theta, phi = direction_grid(10.0, 20.0)
    text = GridText(theta, phi)
    for seed in range(3):
        grid = radiation_pattern(random_coding(GEOM_A, seed), GEOM_A, theta, phi)
        want, want_uv = column_stack_bytes(tmp_path, grid)
        grid.to_csv(tmp_path / "f.csv", text)
        grid.to_uv_csv(tmp_path / "uv.csv", text)
        assert (tmp_path / "f.csv").read_bytes() == want
        assert (tmp_path / "uv.csv").read_bytes() == want_uv
    other = radiation_pattern(random_coding(GEOM_A, 0), GEOM_A, *direction_grid(10.0, 30.0))
    with pytest.raises(ValueError, match="different"):
        other.to_csv(tmp_path / "f.csv", text)
    with pytest.raises(ValueError, match="different"):
        other.to_uv_csv(tmp_path / "uv.csv", text)


@pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
def test_row_templates_write_the_bytes_of_the_full_rows(tmp_path, n):
    rng = np.random.default_rng(n)
    lead = rng.normal(size=(n, 2))
    tail = rng.normal(size=(n, 3))
    templates = row_templates(_strings_text(["%.4f,%d," % (a, b) for a, b in lead]), "%.6f", 3)
    assert len(templates) == len(range(0, n, _CSV_BLOCK_ROWS))
    write_csv(tmp_path / "t.csv", tail, "%.6f", header="a,b,c,d,e", templates=templates)
    write_csv(tmp_path / "r.csv", np.column_stack([lead, tail]), ("%.4f", "%d", "%.6f", "%.6f", "%.6f"),
              header="a,b,c,d,e")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


def test_templates_for_another_row_count_are_refused(tmp_path):
    templates = row_templates(_strings_text(["1,"] * (_CSV_BLOCK_ROWS + 1)), "%.6f", 1)
    with pytest.raises(ValueError, match="2 row templates for 1 blocks"):
        write_csv(tmp_path / "t.csv", np.zeros(5), "%.6f", templates=templates)
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", np.zeros((_CSV_BLOCK_ROWS + 1, 2)), "%.6f",
                  templates=templates)


def one_product_per_chunk(excitation, kernels):
    out = np.concatenate([np.einsum("qd,qd->d", excitation.T @ ex, ey)
                          for _, ex, ey in kernels.chunks])
    return out.reshape(kernels.theta.size, kernels.phi.size)


# 2^16 / cols directions, unrounded, would leave BLAS column groups split
# across blocks on 4x5 and 7x3 (fields then differ in the last bits); the
# 0.5 x 0.75 deg grid has a second chunk of 21,344 directions
@pytest.mark.parametrize("geom", [GEOM_A, GEOM_B, ApertureGeometry(4, 5, 2.8e-3, 2.8e-3, 28e9),
                                  ApertureGeometry(7, 3, 2.8e-3, 3.3e-3, 28e9),
                                  ApertureGeometry(1, 1, 2.8e-3, 2.8e-3, 28e9)])
@pytest.mark.parametrize("steps", [(1.0, 1.0), (0.5, 0.75), (3.0, 0.7)])
def test_blocked_field_bitwise_equals_one_product_per_chunk(geom, steps):
    theta, phi = direction_grid(*steps)
    kernels = ArrayKernels(geom, theta, phi)
    coding = random_coding(geom, 7)
    want = one_product_per_chunk(coding.excitation, kernels)
    assert radiation_pattern(coding, geom, theta, phi, kernels=kernels).field.tobytes() \
        == want.tobytes()
    assert radiation_pattern(coding, geom, theta, phi).field.tobytes() == want.tobytes()


@pytest.mark.parametrize("directions", [1, 2, 63, 64, 65, 3263, 3264, 3265, 65536])
@pytest.mark.parametrize("cols", [1, 3, 20, 1024, 1 << 17])
def test_block_edges_are_aligned_and_have_no_one_direction_tail(directions, cols):
    edges = aperture._block_edges(directions, cols)
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == directions
    assert np.all(sizes[:-1] % aperture._BLOCK_ALIGN == 0)
    assert sizes[-1] >= min(2, directions)
    assert np.all(sizes[:-1] * cols <= max(aperture._BLOCK_ENTRIES, aperture._BLOCK_ALIGN * cols))


def test_pattern_run_peak_stays_near_the_sweep_estimate(tmp_path):
    # a whole-chunk excitation.T @ ex (20 x 32,760 complex) goes past this
    config = parse_config(Path(__file__).parents[1] / "configs" / "pattern_steering.json")
    geo = config.geometry
    estimate = aperture.sweep_bytes(geo["rows"], geo["cols"],
                                    aperture.direction_count(*config.grid_step_deg))
    tracemalloc.start()
    try:
        run_pattern(config, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate + (4 << 20)
