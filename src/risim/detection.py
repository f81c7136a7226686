"""Maximum-likelihood detection and capacity metrics.

Every transmit model is linear, y = sqrt(snr) A(h) x_c + n.  Dropping
||y||^2 from ||y - sqrt(snr) A x_c||^2 leaves the ML metric
m(c) = snr Re<G, P_c> - 2 sqrt(snr) Re(z^H x_c) of the matched filter
z = A^H y, the Gram matrix G = A^H A and P_c = x_c x_c^H.  G enters through
its diagonal and the off-diagonal entries some P_c touches, so one-hot
codebooks and per-subcarrier fading need only the column energies.  Cost:
B C (|support| + dim) per batch, against B C n_rx dim for forming every
hypothesis A x_c.

Ties go to the lowest label (argmin's first index), which keeps threaded
runs reproducible.  The metric rounds differently from the Euclidean
distance, so distances equal to within rounding (a measure-zero event under
continuous noise) may be ordered differently by an exhaustive search.
"""

from dataclasses import dataclass

import numpy as np

from . import channel as channel_mod

# entries per chunk of the metric (trials x codewords) and of its left-hand
# matrix (trials x table width); small enough that both stay in cache
# between the passes over them
_HYPOTHESIS_BUDGET = 1 << 16
# trials per Gaussian draw of the capacity engine; part of its random stream
CAPACITY_BATCH = 4096
# complex channel entries per capacity block (1 MB), so that a block's
# channel, Gram matrix and Cholesky factor stay in L2 together
_CAPACITY_BLOCK = 1 << 16


@dataclass(frozen=True)
class CandidateSet:
    """Transmit hypotheses in label order.

    ``labels`` are unique integers sorted ascending; ``vectors`` holds one
    column per candidate (shape (dim, count)).
    """

    labels: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        vectors = np.asarray(self.vectors, dtype=complex)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("candidate set must be non-empty")
        if vectors.ndim != 2 or vectors.shape[1] != labels.size:
            raise ValueError("vectors must be (dim, n_candidates)")
        if len(np.unique(labels)) != labels.size:
            raise ValueError("candidate labels must be unique")
        if np.any(np.diff(labels) <= 0):
            order = np.argsort(labels)
            labels = labels[order]
            vectors = vectors[:, order]
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vectors", vectors)

    @property
    def count(self) -> int:
        return int(self.labels.size)


class MetricTable:
    """Codebook side of the ML metric, built once per codebook.

    Each codeword X_c is a dim x slots matrix that A(h) acts on from the
    left, flattened row by row into dim * slots entries.  A ``diagonal``
    A(h) (one fading coefficient per resource) has no off-diagonal Gram
    entries.  ``pairs`` lists the touched entries (i, j), i < j; ``weights``
    has one row per real Gram coordinate: sum_t |X_it|^2 per column energy,
    then 2 Re Q_ij and -2 Im Q_ij per pair, with Q_ij = sum_t conj(X_it) X_jt.

    ``rows`` (C, K + 2 * dim * slots) is the only copy kept: per codeword its
    K weights, then its entries as (re, im) pairs.  ``weights`` (K, C),
    ``codewords`` (C, dim * slots) and ``x`` (dim * slots, C) are views of it.
    """

    def __init__(self, vectors, slots: int = 1, diagonal: bool = False):
        vectors = np.asarray(vectors, dtype=complex)
        blocks = vectors.reshape(-1, slots, vectors.shape[1])       # (dim, slots, C)
        # only pairs of columns that some codeword uses together can touch Q
        used = np.any(blocks != 0, axis=1).astype(np.float32)       # (dim, C)
        pairs = np.argwhere(np.triu(used @ used.T > 0, k=1) & (not diagonal))
        q = np.einsum("ptc,ptc->pc", blocks[pairs[:, 0]].conj(), blocks[pairs[:, 1]])
        touched = np.any(q != 0, axis=1)
        self.pairs, off = pairs[touched], q[touched]
        k = len(blocks) + 2 * len(self.pairs)
        self.rows = np.empty((vectors.shape[1], k + 2 * len(vectors)))
        self.weights = self.rows[:, :k].T
        self.weights[:] = np.concatenate([
            (np.abs(blocks) ** 2).sum(axis=1), 2.0 * off.real, -2.0 * off.imag
        ])
        self.codewords = self.rows[:, k:].view(complex)
        self.codewords[:] = vectors.T
        self.x = self.codewords.T


def matched_filter(y: np.ndarray, h: np.ndarray, table: MetricTable):
    """z^H = y^H H (B, dim * slots) and the Gram coordinates of H for dense
    models: ``h`` (B, n_rx, dim), ``y`` (B, n_rx) or (B, n_rx, slots)."""
    zh = np.einsum("br...,bri->bi...", np.conj(y), h).reshape(len(y), -1)
    pairs = np.ascontiguousarray(h, dtype=complex).view(np.float64)   # (re, im) pairs
    squares = np.einsum("brj,brj->bj", pairs, pairs)
    energy = squares[:, 0::2] + squares[:, 1::2]
    if not len(table.pairs):
        return zh, energy
    i, j = table.pairs.T
    off = np.einsum("bri,bri->bi", np.conj(h[:, :, i]), h[:, :, j])
    return zh, np.concatenate([energy, off.real, off.imag], axis=1)


def ml_detect(zh: np.ndarray, gram: np.ndarray, table: MetricTable, snr: float) -> np.ndarray:
    """Index of the ML codeword per trial, from z^H = y^H A (B, dim * slots),
    the Gram coordinates of A and the SNR scaling the codeword by sqrt(snr)."""
    out = np.empty(len(zh), dtype=np.int64)
    edges = chunk_edges(len(zh), max(table.rows.shape))
    for lo, hi in zip(edges, edges[1:]):
        out[lo:hi] = np.argmin(_metric(zh[lo:hi], gram[lo:hi], table, snr), axis=1)
    return out


def chunk_edges(rows: int, count: int) -> list:
    """Row edges of the detector's chunks of about _HYPOTHESIS_BUDGET entries
    per ``count`` columns; callers pass the wider side of the metric table
    (codewords or table width), which bounds both the metric and the left
    matrix.  No chunk has one row unless ``rows`` is 1: numpy multiplies one
    row on its matrix-vector path, which rounds differently from the
    matrix-matrix path of the others."""
    step = max(2, _HYPOTHESIS_BUDGET // count)
    return [*range(0, max(rows - 1, 1), step), rows]


def _metric(zh: np.ndarray, gram: np.ndarray, table: MetricTable, snr: float) -> np.ndarray:
    """The (B, C) ML metric snr Re<G, P_c> - 2 sqrt(snr) Re(z^H x_c), as one
    real product of [snr G | -2 sqrt(snr) conj(z^H) as (re, im) pairs] with
    the table's rows; the SNR scales the chunk, so the table stays as built.
    Both parts are written into the one left-hand matrix."""
    k = gram.shape[1]
    left = np.empty((len(zh), k + 2 * zh.shape[1]))
    np.multiply(gram, snr, out=left[:, :k])
    np.multiply(np.conj(zh), -2.0 * np.sqrt(snr), out=left[:, k:].view(complex))
    return left @ table.rows.T


def mld(y: np.ndarray, h: np.ndarray, candidates: CandidateSet) -> int:
    """Maximum-likelihood label for received vector y under channel h."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    h = np.asarray(h, dtype=complex)
    if h.shape != (y.size, candidates.vectors.shape[0]):
        raise ValueError(
            f"channel shape {h.shape} inconsistent with y ({y.size}) and "
            f"candidates ({candidates.vectors.shape[0]})"
        )
    table = MetricTable(candidates.vectors)
    idx = ml_detect(*matched_filter(y[None], h[None], table), table, 1.0)[0]
    return int(candidates.labels[idx])


def detect_ofdm_im(y, h, scheme) -> np.ndarray:
    """Joint index+symbol ML detection of subcarrier-IM blocks.

    ``y`` and ``h`` have shape (n_blocks, n) (or (n,) for a single block)
    with one flat-fading coefficient per subcarrier.  Only valid activation
    sets (rank below the index-bit budget) are ever returned.
    """
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    if y.shape != h.shape or y.shape[1] != scheme.block_size:
        raise ValueError(
            f"y/h must be (n_blocks, {scheme.block_size}), got {y.shape} and {h.shape}"
        )
    codebook = scheme.codebook()
    table = MetricTable(codebook.vectors, diagonal=True)
    words = codebook.labels[ml_detect(np.conj(y) * h, np.abs(h) ** 2, table, 1.0)]
    shifts = np.arange(scheme.bits_per_interval - 1, -1, -1)
    return ((words[:, None] >> shifts) & 1).astype(np.int8).ravel()


@dataclass(frozen=True)
class CapacityEstimate:
    mean: float      # bit/s/Hz
    std_err: float
    trials: int


def _log2_det_gram(h: np.ndarray, snr_linear: float) -> np.ndarray:
    """log2 det(I + snr/Nt H H^H) of each matrix H in ``h`` (..., n_rx, n_tx).

    The Gram matrix is Hermitian with every eigenvalue >= 1, so its Cholesky
    factor L exists and the log-determinant is 2 sum log2 diag(L).
    """
    n_rx, n_tx = h.shape[-2:]
    gram = h @ np.conj(np.swapaxes(h, -1, -2))
    gram *= snr_linear / n_tx
    d = np.arange(n_rx)
    gram[..., d, d] += 1.0
    diag = np.linalg.cholesky(gram)[..., d, d].real
    return 2.0 * np.log2(diag).sum(axis=-1)


def capacity_batch_bytes(n_tx: int, n_rx: int, trials: int) -> int:
    """Bytes :func:`ergodic_capacity` holds at once besides its per-trial
    values: one batch's Gaussian draw plus one block's channel, conjugate
    transpose, Gram matrix and Cholesky factor."""
    n = min(CAPACITY_BATCH, trials)
    k = min(n, max(1, _CAPACITY_BLOCK // (n_rx * n_tx)))
    return 16 * (n * n_rx * n_tx + k * n_rx * (2 * n_tx + 3 * n_rx))


def instantaneous_capacity(h: np.ndarray, snr_linear: float) -> float:
    """log2 det(I + gamma/Nt * H H^H) for one channel realization."""
    return float(_log2_det_gram(np.asarray(h, dtype=complex), snr_linear))


def ergodic_capacity(n_tx: int, n_rx: int, snr_linear: float, trials: int,
                     seed: int, model: str = "rayleigh") -> CapacityEstimate:
    """Monte Carlo mean of the instantaneous capacity over channel draws.

    Reports the standard error of the mean so consumers can set principled
    tolerances.  Deterministic in (seed, n_tx, n_rx, trials).  Each batch of
    CAPACITY_BATCH trials is one Gaussian draw; its log-determinants are taken
    in blocks of at most _CAPACITY_BLOCK channel entries.
    """
    if model != "rayleigh":
        raise ValueError(f"unsupported capacity channel model {model!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = channel_mod.stream_rng(seed, n_tx, n_rx)
    block = max(1, _CAPACITY_BLOCK // (n_rx * n_tx))
    values = np.empty(trials)
    for done in range(0, trials, CAPACITY_BATCH):
        planes = rng.standard_normal((2, min(CAPACITY_BATCH, trials - done), n_rx, n_tx))
        for lo in range(0, planes.shape[1], block):
            h = channel_mod.complex_from_planes(planes[:, lo:lo + block])
            values[done + lo:done + lo + len(h)] = _log2_det_gram(h, snr_linear)
        del planes   # free this batch's draw before the next one is made
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return CapacityEstimate(mean, std_err, trials)
