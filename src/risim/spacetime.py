"""Harmonic spectra of periodic time codings of the surface reflection.

A coding sequence holds L per-step reflection coefficients Gamma^n
(n = 1..L); step n occupies the interval [(n-1)*T0/L, n*T0/L) of the
modulation period T0, so harmonics are spaced f0 = 1/T0 apart.  The
Fourier coefficient of harmonic m is

    a^m = sum_n (Gamma^n / L) * sinc(pi*m/L) * exp(-j*pi*m*(2n-1)/L)

with the unnormalized sinc(x) = sin(x)/x, sinc(0) = 1; a^0 is then the
plain time average of the sequence.  Circularly delaying the sequence by
s steps leaves every |a^m| untouched and rotates arg a^m by -2*pi*m*s/L;
that sign convention (delay = negative rotation for positive m) is fixed
here and verified against a quadrature oracle in the tests.

The codings are synthesized here (single-harmonic phase ramps, their
integer delays, phase-only multi-harmonic targets), and they and their
spectra are written as CSV; ``risim harmonics`` runs all of it.
"""

from dataclasses import dataclass

import numpy as np

from .util import mag_to_db, write_csv


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Map from harmonic index m to the complex coefficient a^m."""

    coeffs: dict

    def __getitem__(self, m: int) -> complex:
        return self.coeffs[m]

    def __iter__(self):
        return iter(sorted(self.coeffs))

    def magnitude(self, m: int) -> float:
        return abs(self.coeffs[m])

    def dominant(self) -> int:
        return max(self.coeffs, key=lambda m: abs(self.coeffs[m]))

    def to_csv(self, path) -> None:
        """Rows of m,mag_db,phase_deg sorted by harmonic index (floor at -300 dB)."""
        rows = [(m, mag_to_db(abs(a)), np.rad2deg(np.angle(a)))
                for m, a in sorted(self.coeffs.items())]
        write_csv(path, rows, ("%d", "%.6f", "%.6f"), header="m,mag_db,phase_deg")


def _coefficient_weights(num_steps: int, harmonics: np.ndarray) -> np.ndarray:
    """Weight matrix W[k, n] with a^{m_k} = sum_n Gamma^n W[k, n]."""
    n = np.arange(1, num_steps + 1)
    m = harmonics[:, None]
    sinc = np.sinc(m / num_steps)  # np.sinc(x) = sin(pi x)/(pi x) = our sinc(pi m / L)
    return (sinc / num_steps) * np.exp(-1j * np.pi * m * (2 * n[None, :] - 1) / num_steps)


def harmonic_coefficients(steps, harmonics) -> HarmonicSpectrum:
    """Exact Fourier coefficients of one element's L-step coding."""
    steps = np.asarray(steps, dtype=complex)
    if steps.ndim != 1:
        raise ValueError("steps must be a 1-D per-step sequence")
    ms = np.asarray(list(harmonics), dtype=int)
    coeffs = _coefficient_weights(len(steps), ms) @ steps
    return HarmonicSpectrum(dict(zip(ms.tolist(), coeffs.tolist())))


def spectrum_bytes(num_steps: int, m_range: int) -> int:
    """Bytes a harmonics run holds at once over |m| <= ``m_range``, a bound
    on its tracemalloc peaks: a spectrum's weight matrix and temporaries (32
    per harmonic and step), the entries and CSV rows of a spectrum (320 per
    harmonic), a sequence's CSV rows (256 per step) and 1 MB of small objects."""
    return (32 * num_steps + 320) * (2 * m_range + 1) + 256 * num_steps + (1 << 20)


def synthesize_single_harmonic(m: int, num_steps: int) -> np.ndarray:
    """Phase ramp whose slope places the dominant harmonic at index m.

    Gamma^n = exp(j*2*pi*m*n/L); the commanded harmonic retains amplitude
    sinc(pi*|m|/L) and the nearest image sits L indices away.
    """
    if 2 * abs(m) >= num_steps:
        raise ValueError(
            f"harmonic {m} aliases for L = {num_steps}; need |m| < L/2"
        )
    n = np.arange(1, num_steps + 1)
    return np.exp(2j * np.pi * m * n / num_steps)


def phase_shift_harmonic(steps, n_shift) -> np.ndarray:
    """Circularly delay the coding by an integer number of steps.

    Magnitudes of all harmonics are invariant; arg a^m picks up exactly
    -2*pi*m*n_shift/L.  Fractional shifts are outside the coded model.
    """
    if not isinstance(n_shift, (int, np.integer)):
        raise ValueError(f"n_shift must be an integer step count, got {n_shift!r}")
    steps = np.asarray(steps, dtype=complex)
    num = steps.shape[-1]
    if not 0 <= n_shift <= num:
        raise ValueError(f"n_shift must lie in [0, L], got {n_shift}")
    return np.roll(steps, int(n_shift), axis=-1)


@dataclass(frozen=True)
class MultiHarmonicResult:
    steps: np.ndarray
    residual: float


def synthesize_multi_harmonic(targets, num_steps: int, max_iterations: int = 200,
                              tolerance: float = 1e-3, seed: int = 0) -> MultiHarmonicResult:
    """Phase-only coding whose spectrum approximates the target harmonics.

    Alternating projection between the target spectrum constraint (set the
    requested bins in the frequency domain) and the unit-modulus constraint
    (time domain).  ``targets`` is a list of (m, complex weight) pairs; the
    requested power must fit the unit budget sum |w|^2 <= 1.  Deterministic:
    the start point is the unit-modulus projection of the target spectrum
    alone (``seed`` only perturbs zero-magnitude samples).

    Returns the final sequence together with the residual
    max_k |a^{m_k} - w_k| actually achieved; the sinc roll-off makes small
    residuals unreachable for weights near 1, so iteration also stops once
    the sequence reaches a fixed point.
    """
    targets = [(int(m), complex(w)) for m, w in targets]
    if not targets:
        return MultiHarmonicResult(np.ones(num_steps, dtype=complex), 0.0)
    ms = [m for m, _ in targets]
    if len(set(ms)) != len(ms):
        raise ValueError("duplicate target harmonics")
    for m in ms:
        if 2 * abs(m) >= num_steps:
            raise ValueError(f"harmonic {m} aliases for L = {num_steps}; need |m| < L/2")
    budget = sum(abs(w) ** 2 for _, w in targets)
    if budget > 1.0 + 1e-12:
        raise ValueError(f"requested harmonic power {budget:.4f} exceeds the unit budget")

    # a^m = sinc(m/L)/L * exp(-j*pi*m/L) * FFT(steps)[m mod L]; invert for the
    # frequency-domain projection values.
    bins = np.array([m % num_steps for m in ms])
    weights = np.array([w for _, w in targets])
    sinc = np.sinc(np.array(ms, dtype=float) / num_steps)
    desired_bins = weights * num_steps * np.exp(1j * np.pi * np.array(ms) / num_steps) / sinc

    rng = np.random.default_rng(seed)

    def project_unit(x):
        mag = np.abs(x)
        out = np.where(mag > 1e-12, x / np.where(mag > 0, mag, 1.0), 0.0)
        dead = mag <= 1e-12
        if np.any(dead):
            out[dead] = np.exp(2j * np.pi * rng.random(int(dead.sum())))
        return out

    spectrum0 = np.zeros(num_steps, dtype=complex)
    spectrum0[bins] = desired_bins
    x = project_unit(np.fft.ifft(spectrum0))

    def achieved(x):
        f = np.fft.fft(x)
        return sinc / num_steps * np.exp(-1j * np.pi * np.array(ms) / num_steps) * f[bins]

    residual = float(np.max(np.abs(achieved(x) - weights)))
    for _ in range(max_iterations):
        spectrum = np.fft.fft(x)
        spectrum[bins] = desired_bins
        x_new = project_unit(np.fft.ifft(spectrum))
        stalled = np.max(np.abs(x_new - x)) < 1e-12
        x = x_new
        residual = float(np.max(np.abs(achieved(x) - weights)))
        if residual < tolerance or stalled:
            break
    return MultiHarmonicResult(x, residual)


def sequence_to_csv(steps, path) -> None:
    """Rows of step,phase_deg,mag (step index 1-based)."""
    steps = np.asarray(steps, dtype=complex)
    rows = [
        (n + 1, np.rad2deg(np.angle(g)), abs(g)) for n, g in enumerate(steps)
    ]
    write_csv(path, rows, ("%d", "%.6f", "%.6f"), header="step,phase_deg,mag")
