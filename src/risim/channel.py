"""Statistical channel generators, AWGN, and RIS phase-alignment SNR.

Noise convention: N0 is the total variance of one complex sample (N0/2 per
real dimension).  All generators are pure functions of an explicit
numpy Generator; experiment code derives per-trial generators from
(seed, stream indices) via :func:`stream_rng` so results never depend on
execution order or thread count.
"""

from dataclasses import dataclass

import numpy as np


def stream_rng(*key) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of non-negative integers."""
    key = [int(k) for k in key]
    if any(k < 0 for k in key):
        raise ValueError("stream keys must be non-negative integers")
    return np.random.default_rng(key)


# Gaussian values per draw of complex_normal: its buffer is 256 kB
_NORMAL_CHUNK = 1 << 15


@dataclass(frozen=True)
class LosLinkSpec:
    """Geometry of a direct line-of-sight link."""

    wavelength: float   # m
    gain_tx: float      # linear
    gain_rx: float      # linear
    distance: float     # m

    def __post_init__(self):
        if min(self.wavelength, self.gain_tx, self.gain_rx) <= 0 or self.distance <= 0:
            raise ValueError("all LoS link parameters must be positive")


def los_gain(spec: LosLinkSpec) -> complex:
    """Complex gain of the direct path.

    H = (lambda / 4 pi) * sqrt(G_T G_R) * exp(-j 2 pi d / lambda) / d;
    magnitude falls as 1/d and the phase is the carrier's electrical length.
    """
    amplitude = (spec.wavelength / (4.0 * np.pi)) * np.sqrt(spec.gain_tx * spec.gain_rx) / spec.distance
    return amplitude * np.exp(-2j * np.pi * spec.distance / spec.wavelength)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) samples of the given shape, drawn into the result.

    Real parts come first in the stream, then imaginary parts.  Each part is
    drawn in chunks of _NORMAL_CHUNK values into one reused buffer and scaled
    by 1/sqrt(2) into the result, so nothing but the result is sample-sized.
    Chunked draws continue one stream, so the result is bitwise equal to
    (standard_normal(shape) + 1j * standard_normal(shape)) / sqrt(2) and the
    generator ends where that expression leaves it.
    """
    out = np.empty(shape, dtype=complex)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _NORMAL_CHUNK))
    for part in (flat.real, flat.imag):
        for lo in range(0, flat.size, _NORMAL_CHUNK):
            draw = rng.standard_normal(out=buf[:min(_NORMAL_CHUNK, flat.size - lo)])
            np.multiply(draw, 1 / np.sqrt(2.0), out=part[lo:lo + len(draw)])
    return out


def complex_from_planes(planes: np.ndarray) -> np.ndarray:
    """CN(0, 1) samples from a (2, ...) standard-normal draw: planes[0] / sqrt(2)
    as the real parts, planes[1] / sqrt(2) as the imaginary parts."""
    out = np.empty(planes.shape[1:], dtype=complex)
    np.multiply(planes[0], 1 / np.sqrt(2.0), out=out.real)
    np.multiply(planes[1], 1 / np.sqrt(2.0), out=out.imag)
    return out


def rayleigh(n_rx: int, n_tx: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, 1) fading matrix of shape (n_rx, n_tx)."""
    return complex_normal(rng, (n_rx, n_tx))


def rician(k_factor: float, h_los: np.ndarray, h_nlos: np.ndarray) -> np.ndarray:
    """Power-weighted mix of a deterministic and a scattered component.

    H = sqrt(K/(K+1)) H_los + sqrt(1/(K+1)) H_nlos.  K = 0 returns H_nlos
    exactly (bit-for-bit), preserving seed equivalence with pure Rayleigh.
    """
    if k_factor < 0:
        raise ValueError(f"Rician K-factor must be >= 0, got {k_factor}")
    h_los = np.asarray(h_los)
    h_nlos = np.asarray(h_nlos)
    if h_los.shape != h_nlos.shape:
        raise ValueError(f"shape mismatch: {h_los.shape} vs {h_nlos.shape}")
    if k_factor == 0:
        return h_nlos
    return np.sqrt(k_factor / (k_factor + 1.0)) * h_los + np.sqrt(1.0 / (k_factor + 1.0)) * h_nlos


def los_matrix(n_rx: int, n_tx: int, structure: str = "dft") -> np.ndarray:
    """Deterministic unit-modulus LoS component for Rician mixing.

    "dft" gives per-entry phases exp(-j 2 pi l i / max(n_rx, n_tx)), keeping
    transmit columns mutually distinguishable (orthogonal when square) so a
    stronger direct path cannot collapse index detection; "ones" is the
    fully coherent rank-one broadside wavefront.
    """
    if structure == "ones":
        return np.ones((n_rx, n_tx), dtype=complex)
    if structure == "dft":
        order = max(n_rx, n_tx)
        l = np.arange(n_rx)[:, None]
        i = np.arange(n_tx)[None, :]
        return np.exp(-2j * np.pi * l * i / order)
    raise ValueError(f"unknown LoS structure {structure!r}")


def awgn(length: int, n0: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, N0) noise samples (total variance N0 per complex sample)."""
    if n0 < 0:
        raise ValueError("noise spectral density must be >= 0")
    if n0 == 0:
        return np.zeros(length, dtype=complex)
    return np.sqrt(n0 / 2.0) * (rng.standard_normal(length) + 1j * rng.standard_normal(length))


@dataclass(frozen=True)
class RisLink:
    """Per-element cascades between the surface and the receive antennas.

    The channel from element i to receive antenna l is
    beta[l, i] * exp(-j psi[l, i]); phases[i] is the programmable reflection
    phase of element i.
    """

    beta: np.ndarray    # (n_rx, n_elements), linear gains >= 0
    psi: np.ndarray     # (n_rx, n_elements), rad
    phases: np.ndarray  # (n_elements,), rad
    es: float           # symbol energy
    n0: float           # noise spectral density

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if beta.ndim != 2 or psi.shape != beta.shape:
            raise ValueError("beta and psi must be equal-shape (n_rx, n_elements) arrays")
        if phases.shape != (beta.shape[1],):
            raise ValueError("phases must have one entry per surface element")
        if np.any(beta < 0):
            raise ValueError("path gains must be non-negative")
        if self.es <= 0 or self.n0 <= 0:
            raise ValueError("Es and N0 must be positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phases", phases)


def ris_received_signal(link: RisLink, antenna: int) -> complex:
    """Noise-free signal at one receive antenna.

    y_l = [sum_i beta_{l,i} exp(j(phi_i - psi_{l,i}))] * sqrt(Es); the AWGN
    term is added by the caller so detection statistics stay controllable.
    """
    coherent = np.sum(
        link.beta[antenna] * np.exp(1j * (link.phases - link.psi[antenna]))
    )
    return complex(coherent * np.sqrt(link.es))


def instantaneous_snr(link: RisLink, antenna: int) -> float:
    """gamma_l = |sum_i beta exp(j(phi - psi))|^2 Es / N0 for the set phases."""
    coherent = np.sum(
        link.beta[antenna] * np.exp(1j * (link.phases - link.psi[antenna]))
    )
    return float(np.abs(coherent) ** 2 * link.es / link.n0)


def align_and_snr(link: RisLink, antenna: int) -> tuple[float, np.ndarray]:
    """Phase-align the surface to one antenna and return the resulting SNR.

    Setting phi_i = psi_{l,i} makes every element add in phase, the best
    any phase choice can do, giving gamma_l = (sum_i beta_{l,i})^2 Es / N0.
    Returns (snr, aligned phase vector).
    """
    aligned = link.psi[antenna].copy()
    snr = float(np.sum(link.beta[antenna]) ** 2 * link.es / link.n0)
    return snr, aligned
