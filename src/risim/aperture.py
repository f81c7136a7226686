"""Aperture phase composition, far-field patterns, and beam scanning.

Geometry convention: element (p, q) of an M x N aperture sits at
x = p * dx, y = q * dy (0-based p along axis 0).  The far-field direction
(theta, phi) uses elevation theta in [0, pi/2] measured from broadside and
azimuth phi in [0, 2*pi); the reflect-array radiates into the z > 0
half-space only.

A steering sawtooth with positive per-cell increment g = delta_phi_e / Q
moves the beam peak to elevation asin(lambda * g / (2 * pi * d)) in the
phi = 180 deg half-plane (the array-factor phase grows with +x, so the
positive surface gradient compensates it on the -x side).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .util import SPEED_OF_LIGHT, mag_to_db, text_column, text_rows, wrap_phase, write_csv

# complex entries of one block's wider kernel, which bounds its other kernel
# and its excitation.T @ ex product (256 kB each, so a block's temporaries
# stay within a 2 MB L2 cache).  BLAS
# treats a product's columns in groups, so blocks are whole multiples of
# _BLOCK_ALIGN directions: each direction then takes the same path as in one
# product over a 65,536-direction chunk, and the fields stay bitwise equal.
_BLOCK_ENTRIES = 1 << 14
_BLOCK_ALIGN = 64
# Upper bound on the text GridText keeps per direction: its text matrices hold
# "90.000000,359.000000," and "-0.999848,-0.999848," at most, 41 bytes.  It
# stays at the 64 the earlier string rows took, so that sweep_bytes and the
# parse-time pattern limits derived from it do not move.
_TEXT_BYTES_PER_DIRECTION = 64
# per element and scan angle: about eight arrays of up to 16 bytes each
_ELEMENT_BYTES = 128


class UnsteerableGradientError(ValueError):
    """Phase gradient requests an evanescent (|sin| > 1) scan direction."""


@dataclass(frozen=True)
class ApertureGeometry:
    rows: int          # elements along x
    cols: int          # elements along y
    dx: float          # m
    dy: float          # m
    fc: float          # Hz

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("aperture needs at least one element per axis")
        if self.dx <= 0 or self.dy <= 0 or self.fc <= 0:
            raise ValueError("spacings and carrier frequency must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.fc

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class SteeringSpec:
    """Sawtooth gradient repeating every ``period_cells`` elements of
    spacing ``spacing`` with total phase excursion ``phase_range`` (rad)."""

    period_cells: int
    phase_range: float
    spacing: float

    def __post_init__(self):
        if self.period_cells < 1:
            raise ValueError("period_cells must be >= 1")
        if not 0.0 <= self.phase_range <= 2.0 * np.pi + 1e-12:
            raise ValueError("phase_range must lie in [0, 2*pi]")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")


@dataclass(frozen=True)
class PhaseCoding:
    """Per-element reflection amplitude and phase of one aperture state."""

    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=float)
        ph = np.asarray(self.phase, dtype=float)
        if amp.shape != ph.shape or amp.ndim != 2:
            raise ValueError("amplitude and phase must be equal-shape 2-D arrays")
        if np.any(amp <= 0) or np.any(amp > 1.0 + 1e-12):
            raise ValueError("amplitudes must lie in (0, 1]")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "phase", wrap_phase(ph))

    @classmethod
    def uniform(cls, rows: int, cols: int, phase: float = 0.0, amplitude: float = 1.0):
        return cls(np.full((rows, cols), amplitude), np.full((rows, cols), phase))

    @property
    def excitation(self) -> np.ndarray:
        return self.amplitude * np.exp(1j * self.phase)


@dataclass(frozen=True)
class FarFieldGrid:
    """Complex field samples on a regular (theta, phi) grid."""

    theta: np.ndarray  # rad, ascending, within [0, pi/2]
    phi: np.ndarray    # rad, ascending, within [0, 2*pi)
    field: np.ndarray  # complex, shape (len(theta), len(phi)), or stacked (n, ...)

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        ph = np.asarray(self.phi, dtype=float)
        f = np.asarray(self.field, dtype=complex)
        if th.ndim != 1 or ph.ndim != 1 or f.shape[-2:] != (len(th), len(ph)):
            raise ValueError("field shape must end in (len(theta), len(phi))")
        if th.min() < 0 or th.max() > np.pi / 2 + 1e-9:
            raise ValueError("theta must stay in the z > 0 hemisphere [0, pi/2]")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)
        object.__setattr__(self, "field", f)

    @cached_property
    def directivity(self) -> np.ndarray:
        """:func:`directivity_map` of this grid, built once for every reader."""
        return directivity_map(self)

    def peak_direction(self) -> tuple[float, float]:
        """(theta, phi) of the largest |field| sample."""
        it, ip = np.unravel_index(np.argmax(np.abs(self.field)), self.field.shape)
        return float(self.theta[it]), float(self.phi[ip])

    def mag_db(self) -> np.ndarray:
        """|field| in dB, floored at -300 dB."""
        return mag_to_db(np.abs(self.field))

    def to_csv(self, path, text=None) -> None:
        """Rows of theta_deg,phi_deg,mag_db,phase_deg (floor at -300 dB).

        ``text``, a :class:`GridText` of this grid, supplies the formatted
        theta/phi columns; without it they are formatted here.
        """
        text = self._text(text)
        phase = np.rad2deg(np.angle(self.field))
        rows = np.column_stack([self.mag_db().ravel(), phase.ravel()])
        write_csv(path, rows, "%.6f", header="theta_deg,phi_deg,mag_db,phase_deg",
                  lead=text.field_rows)

    def to_uv_csv(self, path, text=None) -> None:
        """Rows of u,v,mag_db with u = sin(theta)cos(phi), v = sin(theta)sin(phi);
        ``text`` as in :meth:`to_csv`."""
        text = self._text(text)
        write_csv(path, self.mag_db().ravel(), "%.6f", header="u,v,mag_db", lead=text.uv_rows)

    def _text(self, text):
        if text is None:
            return GridText(self.theta, self.phi)
        if not (np.array_equal(text.theta, self.theta) and np.array_equal(text.phi, self.phi)):
            raise ValueError("grid text was formatted for a different (theta, phi) grid")
        return text


def direction_cosines(theta, phi, lo=0, hi=None):
    """u = sin(theta)cos(phi) and v = sin(theta)sin(phi) of the grid
    directions lo..hi (default: every one), flattened theta-major."""
    it, ip = np.divmod(np.arange(lo, len(theta) * len(phi) if hi is None else hi), len(phi))
    rho = np.sin(theta)[it]
    return rho * np.cos(phi)[ip], rho * np.sin(phi)[ip]


class GridText:
    """The grid columns of the far-field CSVs, formatted once per grid.

    theta_deg,phi_deg are expanded from one text row per axis value and u,v
    come from one per direction; each is held as one (directions, width)
    text matrix of the leading columns, ending in a comma, which
    :func:`util.write_csv` takes as ``lead``.  So a sweep that writes many
    patterns on one grid formats only mag_db and phase_deg per pattern.
    Both matrices are formatted here, so a sweep that builds its GridText
    before its fields never holds their formatting temporaries on top of
    the fields.
    """

    def __init__(self, theta, phi):
        self.theta = np.asarray(theta, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        th = text_column(np.rad2deg(self.theta), "%.6f")
        ph = text_column(np.rad2deg(self.phi), "%.6f")
        lead = text_rows([th[:, None], ph[None]], end=b",")   # (theta, phi, width)
        self.field_rows = lead.reshape(th.shape[0] * ph.shape[0], -1)
        u, v = direction_cosines(self.theta, self.phi)
        self.uv_rows = text_rows([text_column(u, "%.6f"), text_column(v, "%.6f")], end=b",")


_THETA_STOP_DEG = 90.0 + 1e-9   # theta includes 90 deg
_PHI_STOP_DEG = 360.0


def direction_grid(theta_step_deg: float = 1.0, phi_step_deg: float = 1.0):
    """Default hemisphere grid: theta 0..90 deg inclusive, phi 0..360 deg exclusive."""
    theta = np.deg2rad(np.arange(0.0, _THETA_STOP_DEG, theta_step_deg))
    phi = np.deg2rad(np.arange(0.0, _PHI_STOP_DEG, phi_step_deg))
    return theta, phi


def direction_count(theta_step_deg: float, phi_step_deg: float) -> int | float:
    """Directions of :func:`direction_grid`, without building it (np.arange
    has ceil((stop - start) / step) entries); inf for a step too fine to count."""
    counts = (_THETA_STOP_DEG / theta_step_deg, _PHI_STOP_DEG / phi_step_deg)
    return math.inf if math.inf in counts else math.ceil(counts[0]) * math.ceil(counts[1])


def scan_angle(spec: SteeringSpec, wavelength: float) -> float:
    """Beam-scan elevation (rad) produced by a sawtooth phase gradient.

    theta_r = asin(lambda/(2*pi) * phase_range / (period_cells * spacing)),
    i.e. the grating-free reading of the generalized reflection law at
    normal incidence.  Zero phase range means broadside.
    """
    if spec.phase_range == 0.0:
        return 0.0
    s = wavelength * spec.phase_range / (2.0 * np.pi * spec.period_cells * spec.spacing)
    if abs(s) > 1.0:
        raise UnsteerableGradientError(
            f"gradient asks for sin(theta) = {s:.4f}; |sin| > 1 is evanescent"
        )
    return float(np.arcsin(s))


def steering_phase(geom: ApertureGeometry, spec: SteeringSpec) -> np.ndarray:
    """Per-element steering phase along x: p * (phase_range / Q), wrapped.

    Returns one value per element of axis 0 (length ``rows``); every element
    sharing an x position takes the same value.  The per-cell increment is
    phase_range / period_cells; with the full 2*pi range this wraps into a
    sawtooth repeating every ``period_cells`` elements, and the synthesized
    beam lands exactly where :func:`scan_angle` predicts.  (A sawtooth that
    resets the running index every Q cells instead of wrapping at 2*pi
    concentrates power on the integer grating order lambda/(Q*d) and does
    not satisfy the scan equation; see the beam-steering tests.)
    """
    p = np.arange(geom.rows)
    return wrap_phase(p * (spec.phase_range / spec.period_cells))


def compose_phase(modulation, steering, farfield, amplitude=None) -> PhaseCoding:
    """Sum the modulation, steering, and array-factor phase terms.

    ``steering`` may be the per-x vector from :func:`steering_phase`; it is
    broadcast across axis 1.  The sum is wrapped to [-pi, pi); amplitudes
    default to 1 and pass through unchanged.
    """
    modulation = np.asarray(modulation, dtype=float)
    farfield = np.asarray(farfield, dtype=float)
    steering = np.asarray(steering, dtype=float)
    if steering.ndim == 1:
        steering = steering[:, None]
    try:
        total = modulation + steering + farfield
    except ValueError as exc:
        raise ValueError(
            f"shape mismatch: modulation {modulation.shape}, steering {steering.shape}, "
            f"far-field {farfield.shape}"
        ) from exc
    if amplitude is None:
        amplitude = np.ones_like(total)
    return PhaseCoding(amplitude, total)


def sweep_bytes(rows: int, cols: int, directions: int) -> int:
    """Memory budget of a pattern sweep on a rows x cols aperture: the fields
    of one group of rows + cols scan angles (see ``harness.run_pattern``)
    plus the :class:`GridText` of its grid."""
    return directions * (16 * (rows + cols) + _TEXT_BYTES_PER_DIRECTION)


def element_bytes(rows: int, cols: int) -> int:
    """Memory one scan angle's element arrays take on a rows x cols aperture:
    its phase, amplitude, excitation and coding-text arrays."""
    return rows * cols * _ELEMENT_BYTES


def _kernel(pos, cosines, kc) -> np.ndarray:
    """exp(j kc pos cosines) over the outer product, bitwise equal to
    np.exp(1j * kc * np.outer(pos, cosines)), with the exp in place."""
    k = np.multiply.outer(pos, cosines) * (1j * kc)
    return np.exp(k, out=k)


def _block_edges(directions: int, width: int) -> list:
    """Direction edges of the array-factor blocks of a grid: about
    _BLOCK_ENTRIES / width directions, rounded down to a multiple of
    _BLOCK_ALIGN.  A last block of one direction joins the one before it,
    since numpy multiplies one column on its matrix-vector path."""
    step = max(_BLOCK_ALIGN, _BLOCK_ENTRIES // width // _BLOCK_ALIGN * _BLOCK_ALIGN)
    return [*range(0, max(directions - 1, 1), step), directions]


def radiation_pattern(coding, geom: ApertureGeometry, theta=None, phi=None,
                      element_exponent: float = 0.0) -> FarFieldGrid:
    """Reflected far-field pattern of one aperture state, or of several.

    f(theta, phi) = sum_pq a_e(p,q) exp(j phi_e(p,q))
                    exp(j kc sin(theta) (x_p cos(phi) + y_q sin(phi)))
    with an optional cos(theta)**q element factor (isotropic by default),
    for every direction of the grid (default: :func:`direction_grid`).
    ``coding`` is one :class:`PhaseCoding`, giving a (theta, phi) field, or
    a sequence of them on the same geometry, giving a stacked
    (codings, theta, phi) field.  The direction cosines and kernels are
    built one block of directions at a time, used for every coding and
    dropped, so a call holds its fields and one block of kernels.
    """
    single = isinstance(coding, PhaseCoding)
    excitations = [c.excitation for c in ([coding] if single else coding)]
    for excitation in excitations:
        if excitation.shape != (geom.rows, geom.cols):
            raise ValueError(
                f"excitation shape {excitation.shape} does not match geometry "
                f"({geom.rows}, {geom.cols})"
            )
    if theta is None or phi is None:
        default_theta, default_phi = direction_grid()
        theta = default_theta if theta is None else theta
        phi = default_phi if phi is None else phi
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    kc = geom.wavenumber
    x = np.arange(geom.rows) * geom.dx
    y = np.arange(geom.cols) * geom.dy

    out = np.empty((len(excitations), len(theta) * len(phi)), dtype=complex)
    edges = _block_edges(out.shape[1], max(geom.rows, geom.cols))
    for lo, hi in zip(edges, edges[1:]):
        u, v = direction_cosines(theta, phi, lo, hi)
        ex, ey = _kernel(x, u, kc), _kernel(y, v, kc)   # (rows, B), (cols, B)
        for row, excitation in zip(out, excitations):
            row[lo:hi] = np.einsum("qd,qd->d", excitation.T @ ex, ey)

    field = out.reshape((len(theta), len(phi)) if single else (len(out), len(theta), len(phi)))
    if element_exponent > 0:
        field *= np.cos(theta)[:, None] ** element_exponent
    return FarFieldGrid(theta, phi, field)


def directivity_map(grid: FarFieldGrid) -> np.ndarray:
    """Directivity over the grid: 4*pi*|f|^2 / integral(|f|^2 sin(theta)).

    The hemisphere integral uses the trapezoid rule in theta and a periodic
    uniform rule in phi, matching the grid the field was evaluated on.
    """
    if grid.field.ndim != 2:
        raise ValueError("directivity is defined for one pattern; index a stacked grid first")
    power = np.abs(grid.field) ** 2
    total = _hemisphere_integral(power, grid.theta, grid.phi)
    if total <= 0.0:
        raise ValueError("all-zero field has undefined directivity")
    return 4.0 * np.pi * power / total


def peak_directivity(grid: FarFieldGrid) -> tuple[float, float]:
    """Peak directivity as (linear, dBi)."""
    peak = float(grid.directivity.max())
    return peak, float(10.0 * np.log10(peak))


def _hemisphere_integral(values: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> float:
    """Integrate values(theta, phi) * sin(theta) over the hemisphere."""
    by_theta = np.trapezoid(values * np.sin(theta)[:, None], theta, axis=0)
    dphi = 2.0 * np.pi / len(phi)   # phi grid is periodic and uniform
    return float(np.sum(by_theta) * dphi)


def directivity_normalization(grid: FarFieldGrid) -> float:
    """integral(Dir sin(theta) dtheta dphi) / (4*pi); 1.0 for a consistent grid."""
    return _hemisphere_integral(grid.directivity, grid.theta, grid.phi) / (4.0 * np.pi)


def quantize_phase(phase, bits: int):
    """Snap phases to the nearest of 2**bits uniform levels (coded surfaces)."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    step = 2.0 * np.pi / (1 << bits)
    return wrap_phase(np.round(np.asarray(phase) / step) * step)


def pseudo_random_codings(count: int, geom: ApertureGeometry, seed: int,
                          phase_levels: int = 4) -> list[PhaseCoding]:
    """Reproducible pseudo-random aperture states for pattern-state signaling.

    Each coding draws i.i.d. phases uniformly from ``phase_levels`` quantized
    values; coding i depends only on (seed, i), so subsets are stable as
    ``count`` grows.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    codings = []
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        levels = rng.integers(0, phase_levels, size=(geom.rows, geom.cols))
        phase = wrap_phase(levels * (2.0 * np.pi / phase_levels))
        codings.append(PhaseCoding(np.ones((geom.rows, geom.cols)), phase))
    return codings


def coding_to_csv(coding: PhaseCoding, path) -> None:
    """Write the phase matrix in degrees, one aperture row per CSV row."""
    write_csv(path, np.rad2deg(coding.phase), "%.3f")
