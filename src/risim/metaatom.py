"""Tunable meta-atom reflection model.

A meta-atom is one sub-wavelength cell of the reconfigurable surface.  Its
complex reflection coefficient is interpolated from a tabulated full-wave
dataset swept over (frequency, C, R) of the embedded tunable diode; a
pattern run with atom loss takes its element amplitudes from it.

Angles are radians in the API and degrees in CSV files.  Phases are wrapped
to [-pi, pi) everywhere.
"""

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .util import wrap_phase

# Sweep ranges of the tabulated diode model.
CAPACITANCE_RANGE_PF = (0.01, 1.50)
RESISTANCE_RANGE_OHM = (0.1, 4.0)


@dataclass(frozen=True)
class ReflectionState:
    """Reflection coefficient as (amplitude, phase), phase in [-pi, pi)."""

    amplitude: float
    phase: float

    def __post_init__(self):
        if not 0.0 <= self.amplitude <= 1.0 + 1e-12:
            raise ValueError(f"amplitude {self.amplitude} outside [0, 1] (passive surface)")
        object.__setattr__(self, "phase", float(wrap_phase(self.phase)))


@dataclass(frozen=True)
class DiodeState:
    """Tunable series (R, C) state of the embedded diode chip."""

    capacitance_pf: float
    resistance_ohm: float

    def __post_init__(self):
        lo, hi = CAPACITANCE_RANGE_PF
        if not lo <= self.capacitance_pf <= hi:
            raise ValueError(f"capacitance {self.capacitance_pf} pF outside [{lo}, {hi}] pF")
        lo, hi = RESISTANCE_RANGE_OHM
        if not lo <= self.resistance_ohm <= hi:
            raise ValueError(f"resistance {self.resistance_ohm} ohm outside [{lo}, {hi}] ohm")


class GridBoundsError(ValueError):
    """Query outside the tabulated grid; message names the offending axis."""


class ResponseTable:
    """Tabulated complex reflection over (frequency, capacitance, resistance).

    Built from CSV rows ``freq_ghz,c_pf,r_ohm,mag_linear,phase_deg`` forming a
    full regular grid.  Phases are stored unwrapped along the sweep axes so
    trilinear interpolation is meaningful; magnitudes interpolate linearly,
    which keeps every interpolated magnitude inside the bracketing cell range.
    """

    def __init__(self, freq_ghz, c_pf, r_ohm, mag, phase_rad):
        self.freq_ghz = np.asarray(freq_ghz, dtype=float)
        self.c_pf = np.asarray(c_pf, dtype=float)
        self.r_ohm = np.asarray(r_ohm, dtype=float)
        self.mag = np.asarray(mag, dtype=float)
        self.phase_rad = np.asarray(phase_rad, dtype=float)
        for name, grid in (("freq_ghz", self.freq_ghz), ("c_pf", self.c_pf), ("r_ohm", self.r_ohm)):
            if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
                raise ValueError(f"{name} grid must be 1-D and strictly increasing")
        shape = (len(self.freq_ghz), len(self.c_pf), len(self.r_ohm))
        if self.mag.shape != shape or self.phase_rad.shape != shape:
            raise ValueError(f"data shape {self.mag.shape} does not match grids {shape}")
        if np.any(self.mag > 1.0 + 1e-12):
            worst = float(self.mag.max())
            raise ValueError(f"table contains |Gamma| = {worst} > 1; lossless gain is a data bug")
        if np.any(self.mag < 0.0):
            raise ValueError("table contains negative magnitudes")
        # Interpolating phases across a wrap jump would be ambiguous.
        for axis in range(3):
            if np.any(np.abs(np.diff(self.phase_rad, axis=axis)) >= np.pi):
                raise ValueError("phase table has a >= 180 deg jump between adjacent nodes")

    @classmethod
    def from_csv(cls, path) -> "ResponseTable":
        expected = ("freq_ghz", "c_pf", "r_ohm", "mag_linear", "phase_deg")
        with open(path) as fh:
            names = tuple(name.strip() for name in fh.readline().split(","))
            if names != expected:
                raise ValueError(f"CSV header must be {','.join(expected)}, got {names}")
            f_col, c_col, r_col, mag_col, phase_col = np.loadtxt(
                fh, delimiter=",", ndmin=2).T
        freq = np.unique(f_col)
        cap = np.unique(c_col)
        res = np.unique(r_col)
        shape = (len(freq), len(cap), len(res))
        if len(f_col) != np.prod(shape):
            raise ValueError(f"CSV rows do not form a full {shape} grid")
        mag = np.full(shape, np.nan)
        phase = np.full(shape, np.nan)
        fi = np.searchsorted(freq, f_col)
        ci = np.searchsorted(cap, c_col)
        ri = np.searchsorted(res, r_col)
        mag[fi, ci, ri] = mag_col
        phase[fi, ci, ri] = np.deg2rad(phase_col)
        if np.any(np.isnan(mag)):
            raise ValueError("CSV has duplicate or missing grid points")
        return cls(freq, cap, res, mag, phase)

    def lookup(self, freq_ghz: float, diode: DiodeState) -> ReflectionState:
        """Trilinear interpolation of the tabulated reflection; exact at nodes."""
        coords = (
            ("freq_ghz", self.freq_ghz, float(freq_ghz)),
            ("c_pf", self.c_pf, diode.capacitance_pf),
            ("r_ohm", self.r_ohm, diode.resistance_ohm),
        )
        idx = []
        frac = []
        for name, grid, value in coords:
            if value < grid[0] or value > grid[-1]:
                raise GridBoundsError(
                    f"{name} = {value} outside table range [{grid[0]}, {grid[-1]}]"
                )
            i = min(int(np.searchsorted(grid, value, side="right")) - 1, len(grid) - 2)
            idx.append(i)
            frac.append((value - grid[i]) / (grid[i + 1] - grid[i]))

        def interp(cube):
            block = cube[idx[0]:idx[0] + 2, idx[1]:idx[1] + 2, idx[2]:idx[2] + 2]
            for t in reversed(frac):
                block = block[..., 0] * (1.0 - t) + block[..., 1] * t
            return float(block)

        mag = interp(self.mag)
        phase = interp(self.phase_rad)
        return ReflectionState(min(mag, 1.0), float(wrap_phase(phase)))

    def phase_span_deg(self, freq_ghz: float, resistance_ohm: float) -> float:
        """Phase tuning span (degrees) over the full capacitance sweep."""
        states = [
            self.lookup(freq_ghz, DiodeState(c, resistance_ohm)) for c in self.c_pf
        ]
        phases = np.unwrap([s.phase for s in states])
        return float(np.rad2deg(phases.max() - phases.min()))

    def worst_loss_db(self, freq_ghz: float) -> float:
        """Largest reflection loss (dB) over every tabulated tuning state."""
        fi = np.searchsorted(self.freq_ghz, freq_ghz)
        if fi >= len(self.freq_ghz) or self.freq_ghz[fi] != freq_ghz:
            raise GridBoundsError(f"freq_ghz = {freq_ghz} is not a table node")
        return float(-20.0 * np.log10(self.mag[fi].min()))


def default_response_table() -> ResponseTable:
    """The dataset shipped with the package (see data/metaatom_response.csv)."""
    with resources.as_file(
        resources.files("risim.data").joinpath("metaatom_response.csv")
    ) as path:
        return ResponseTable.from_csv(path)
