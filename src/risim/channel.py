"""Statistical channel generators: CN(0, 1) draws, Rayleigh, Rician and LoS.

Every complex sample has unit total variance (1/2 per real dimension).
All generators are pure functions of an explicit numpy Generator;
experiment code derives per-trial generators from (seed, stream indices)
via :func:`stream_rng` so results never depend on execution order or
thread count.
"""

import numpy as np


def stream_rng(*key) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of non-negative integers."""
    key = [int(k) for k in key]
    if any(k < 0 for k in key):
        raise ValueError("stream keys must be non-negative integers")
    return np.random.default_rng(key)


# Gaussian values per draw of complex_normal: its buffer is 256 kB
_NORMAL_CHUNK = 1 << 15


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
