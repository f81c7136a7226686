import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import risim
from risim.metaatom import (
    DiodeState,
    GridBoundsError,
    ReflectionState,
    ResponseTable,
    default_response_table,
)


@pytest.fixture(scope="module")
def table():
    return default_response_table()


class TestResponseTable:
    def test_grid_node_is_exact(self, table):
        c = float(table.c_pf[7])
        r = float(table.r_ohm[2])
        f = float(table.freq_ghz[20])
        state = table.lookup(f, DiodeState(c, r))
        fi, ci, ri = 20, 7, 2
        assert state.amplitude == pytest.approx(table.mag[fi, ci, ri], abs=1e-15)
        assert state.phase == pytest.approx(table.phase_rad[fi, ci, ri], abs=1e-12)

    def test_out_of_range_names_axis(self, table):
        with pytest.raises(GridBoundsError, match="freq_ghz"):
            table.lookup(40.0, DiodeState(0.5, 0.5))

    def test_diode_state_range_enforced(self):
        with pytest.raises(ValueError):
            DiodeState(2.0, 0.5)
        with pytest.raises(ValueError):
            DiodeState(0.5, 5.0)

    def test_rejects_gain_table(self, tmp_path):
        bad = tmp_path / "bad.csv"
        rows = ["freq_ghz,c_pf,r_ohm,mag_linear,phase_deg"]
        for f in (27.0, 28.0):
            for c in (0.1, 0.2):
                for r in (0.5, 1.0):
                    rows.append(f"{f},{c},{r},1.25,10.0")
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="lossless gain"):
            ResponseTable.from_csv(bad)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(26.0, 31.0), st.floats(0.01, 1.5), st.floats(0.1, 4.0))
    def test_interpolated_magnitude_bounded_by_cell(self, table, f, c, r):
        state = table.lookup(f, DiodeState(c, r))
        fi = np.clip(np.searchsorted(table.freq_ghz, f) - 1, 0, len(table.freq_ghz) - 2)
        ci = np.clip(np.searchsorted(table.c_pf, c) - 1, 0, len(table.c_pf) - 2)
        ri = np.clip(np.searchsorted(table.r_ohm, r) - 1, 0, len(table.r_ohm) - 2)
        cell = table.mag[fi:fi + 2, ci:ci + 2, ri:ri + 2]
        assert cell.min() - 1e-12 <= state.amplitude <= cell.max() + 1e-12


class TestShippedDataset:
    def test_phase_span_310_at_28ghz(self, table):
        assert table.phase_span_deg(28.0, 0.5) == pytest.approx(310.0, abs=2.0)

    def test_loss_budget_at_28ghz(self, table):
        assert table.worst_loss_db(28.0) <= 2.2

    def test_span_at_least_270_across_band(self, table):
        band = table.freq_ghz[(table.freq_ghz >= 26.8) & (table.freq_ghz <= 30.1)]
        assert len(band) > 0
        for f in band:
            assert table.phase_span_deg(float(f), 0.5) >= 270.0

    def test_all_magnitudes_passive(self, table):
        assert table.mag.max() <= 1.0


def test_reflection_state_wraps_phase():
    state = ReflectionState(1.0, 3 * np.pi / 2)
    assert state.phase == pytest.approx(-np.pi / 2)


def test_default_table_loads_without_numpy_ma():
    # np.unique imports numpy.ma on first use in numpy 2.4, at 17-28 ms
    code = ("import sys; from risim.metaatom import default_response_table; "
            "default_response_table(); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(risim.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["False"]
