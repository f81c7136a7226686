"""Patterns computed and written with per-sweep shared work are bitwise equal
to the ones computed and written without it."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from risim import aperture, harness
from risim.aperture import (
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

CONFIGS = Path(__file__).parents[1] / "configs"
GEOM_A = ApertureGeometry(20, 20, 2.8e-3, 2.8e-3, 28e9)
GEOM_B = ApertureGeometry(6, 9, 3.1e-3, 2.2e-3, 31e9)


def random_coding(geom, seed):
    rng = np.random.default_rng(seed)
    return PhaseCoding(rng.uniform(0.2, 1.0, (geom.rows, geom.cols)),
                       rng.uniform(-np.pi, np.pi, (geom.rows, geom.cols)))


def reference_kernels(geom, theta, phi, chunk):
    """The kernels as one expression per chunk, with the temporaries it makes."""
    u, v = direction_cosines(theta, phi)
    x = np.arange(geom.rows) * geom.dx
    y = np.arange(geom.cols) * geom.dy
    kc = geom.wavenumber
    return [(np.exp(1j * kc * np.outer(x, u[s:s + chunk])),
             np.exp(1j * kc * np.outer(y, v[s:s + chunk]))) for s in range(0, u.size, chunk)]


def one_product_per_chunk(excitation, geom, theta, phi, exponent=0.0):
    out = np.concatenate([np.einsum("qd,qd->d", excitation.T @ ex, ey)
                          for ex, ey in reference_kernels(geom, theta, phi, 65536)])
    field = out.reshape(theta.size, phi.size)
    return field * np.cos(theta)[:, None] ** exponent if exponent > 0 else field


def test_stacked_codings_on_two_geometries_called_alternately():
    theta, phi = direction_grid(3.0, 3.0)
    for seed in range(6):
        geom = (GEOM_A, GEOM_B)[seed % 2]
        codings = [random_coding(geom, seed + k) for k in range(3)]
        stacked = radiation_pattern(codings, geom, theta, phi)
        assert stacked.field.shape == (3, theta.size, phi.size)
        for coding, field in zip(codings, stacked.field):
            assert np.array_equal(field, radiation_pattern(coding, geom, theta, phi).field)
    with pytest.raises(ValueError, match="does not match geometry"):
        radiation_pattern([random_coding(GEOM_A, 0), random_coding(GEOM_B, 0)], GEOM_A,
                          theta, phi)
    # a stack of as many patterns as elevations would integrate over the stack
    square = radiation_pattern([random_coding(GEOM_B, k) for k in range(31)], GEOM_B,
                               theta, phi)
    assert square.field.shape == (theta.size, theta.size, phi.size)
    with pytest.raises(ValueError, match="one pattern"):
        aperture.peak_directivity(square)


def test_grid_of_more_than_one_chunk_with_element_factor():
    geom = ApertureGeometry(4, 5, 2.8e-3, 2.8e-3, 28e9)
    theta, phi = direction_grid(0.5, 0.75)
    assert theta.size * phi.size == 86_880
    codings = [random_coding(geom, 3), random_coding(geom, 4)]
    for exponent in (0.0, 1.5):
        stacked = radiation_pattern(codings, geom, theta, phi, exponent).field
        for coding, field in zip(codings, stacked):
            want = one_product_per_chunk(coding.excitation, geom, theta, phi, exponent)
            assert field.tobytes() == want.tobytes()
            assert radiation_pattern(coding, geom, theta, phi, exponent).field.tobytes() \
                == want.tobytes()


def test_default_grid():
    coding = random_coding(GEOM_B, 4)
    want = one_product_per_chunk(coding.excitation, GEOM_B, *direction_grid())
    assert radiation_pattern(coding, GEOM_B).field.tobytes() == want.tobytes()


@pytest.mark.parametrize("geom, steps", [(GEOM_A, (1.0, 1.0)), (GEOM_B, (3.0, 3.0)),
                                         (ApertureGeometry(4, 5, 2.8e-3, 2.8e-3, 28e9),
                                          (0.5, 0.75))])
def test_block_kernels_are_bitwise_the_expression(geom, steps):
    u, v = direction_cosines(*direction_grid(*steps))
    x = np.arange(geom.rows) * geom.dx
    y = np.arange(geom.cols) * geom.dy
    kc = geom.wavenumber
    edges = aperture._block_edges(u.size, max(geom.rows, geom.cols))
    for lo, hi in zip(edges, edges[1:]):
        for pos, cosines in ((x, u[lo:hi]), (y, v[lo:hi])):
            want = np.exp(1j * kc * np.outer(pos, cosines))
            assert np.array_equal(aperture._kernel(pos, cosines, kc).view(np.uint64),
                                  want.view(np.uint64))


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


# 2^16 / cols directions, unrounded, would leave BLAS column groups split
# across blocks on 4x5 and 7x3 (fields then differ in the last bits); the
# 0.5 x 0.75 deg grid has a second chunk of 21,344 directions
@pytest.mark.parametrize("geom", [GEOM_A, GEOM_B, ApertureGeometry(4, 5, 2.8e-3, 2.8e-3, 28e9),
                                  ApertureGeometry(7, 3, 2.8e-3, 3.3e-3, 28e9),
                                  ApertureGeometry(1, 1, 2.8e-3, 2.8e-3, 28e9)])
@pytest.mark.parametrize("steps", [(1.0, 1.0), (0.5, 0.75), (3.0, 0.7)])
def test_blocked_field_bitwise_equals_one_product_per_chunk(geom, steps):
    theta, phi = direction_grid(*steps)
    codings = [random_coding(geom, 7 + k) for k in range(3)]
    stacked = radiation_pattern(codings, geom, theta, phi).field
    for coding, field in zip(codings, stacked):
        want = one_product_per_chunk(coding.excitation, geom, theta, phi)
        assert radiation_pattern(coding, geom, theta, phi).field.tobytes() == want.tobytes()
        assert field.tobytes() == want.tobytes()


@pytest.mark.parametrize("directions", [1, 2, 63, 64, 65, 3263, 3264, 3265, 65536])
@pytest.mark.parametrize("cols", [1, 3, 20, 1024, 1 << 17])
def test_block_edges_are_aligned_and_have_no_one_direction_tail(directions, cols):
    edges = aperture._block_edges(directions, cols)
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == directions
    assert np.all(sizes[:-1] % aperture._BLOCK_ALIGN == 0)
    assert sizes[-1] >= min(2, directions)
    assert np.all(sizes[:-1] * cols <= max(aperture._BLOCK_ENTRIES, aperture._BLOCK_ALIGN * cols))


def traced_peak(config, out_dir):
    tracemalloc.start()
    try:
        run_pattern(config, out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ATOM_LOSS_20X20 = {"experiment": "pattern",
                   "geometry": {"rows": 20, "cols": 20, "dx_mm": 2.8, "dy_mm": 2.8, "fc_ghz": 28.0},
                   "scan_angles_deg": [5, 17, 33, 51], "period_cells": 4,
                   "couple_atom_loss": True, "output_dir": "patterns"}


@pytest.mark.parametrize("config", [CONFIGS / "pattern_steering.json", ATOM_LOSS_20X20],
                         ids=["steering", "atom-loss"])
def test_pattern_run_peak_stays_near_its_fields_and_text(tmp_path, config):
    # the run holds one group's fields, the grid text and one block of kernels,
    # not the kernels of every direction (16 (rows + cols) D bytes)
    config = parse_config(config)
    directions = aperture.direction_count(*config.grid_step_deg)
    held = 16 * len(config.scan_angles_deg) * directions + 64 * directions
    assert traced_peak(config, tmp_path) <= held + (4 << 20)


def test_tall_aperture_run_stays_far_under_its_sweep_budget(tmp_path):
    # blocks are sized by the wider side: 320 directions of 200 x positions
    cfg = {**ATOM_LOSS_20X20, "geometry": {**ATOM_LOSS_20X20["geometry"], "rows": 200},
           "scan_angles_deg": [10], "couple_atom_loss": False}
    config = parse_config(cfg)
    directions = aperture.direction_count(*config.grid_step_deg)
    assert aperture.sweep_bytes(200, 20, directions) > 110 << 20
    assert traced_peak(config, tmp_path) <= 16 * directions + 64 * directions + (4 << 20)


def test_scan_angles_run_in_groups_that_write_the_same_bytes(tmp_path, monkeypatch):
    # a group holds at most rows + cols angles, and no more element arrays
    # than the run budget allows
    config = parse_config({**ATOM_LOSS_20X20, "geometry": {**ATOM_LOSS_20X20["geometry"],
                                                           "rows": 2, "cols": 2},
                           "scan_angles_deg": [0, 10, 20, 30, 40],
                           "grid": {"theta_step_deg": 10.0, "phi_step_deg": 30.0}})
    calls = []
    real = aperture.radiation_pattern
    monkeypatch.setattr(aperture, "radiation_pattern",
                        lambda codings, *args: calls.append(len(codings)) or real(codings, *args))
    outputs = []
    for angles_in_budget in (None, 3, 1):
        if angles_in_budget:
            monkeypatch.setattr(harness, "MAX_RUN_BYTES",
                                angles_in_budget * aperture.element_bytes(2, 2))
        files = run_pattern(config, tmp_path / str(angles_in_budget))
        outputs.append([(f.name, f.read_bytes()) for f in files])
    assert calls == [4, 1, 3, 2, 1, 1, 1, 1, 1]
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == 16
