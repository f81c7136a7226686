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
# complex channel entries per capacity block (128 kB).  A block's working set
# is six block-sized arrays (imaginary draw, channel, conjugate transpose,
# Gram matrix, scaled copy, Cholesky factor), about 0.7 MB for a square
# pair, within a 2 MB L2.  Every size gives the same bytes; below 2^13 the
# budget edges of capacity_batch_bytes move (a 1x2364 pair would fit)
_CAPACITY_BLOCK = 1 << 13


@dataclass(frozen=True)
class CandidateSet:
    """Transmit hypotheses in label order.

    ``labels`` are strictly ascending integers; ``vectors`` holds one
    column per candidate (shape (dim, count)).
    """

    labels: np.ndarray
    vectors: np.ndarray

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
        touched = np.zeros(len(pairs), dtype=bool)
        for _, q in _pair_products(blocks, pairs):
            touched |= np.any(q != 0, axis=1)
        self.pairs = pairs[touched]
        n_diag, n_pairs = len(blocks), len(self.pairs)
        k = n_diag + 2 * n_pairs
        self.rows = np.empty((vectors.shape[1], k + 2 * len(vectors)))
        self.weights = self.rows[:, :k].T
        self.weights[:n_diag] = (np.abs(blocks) ** 2).sum(axis=1)
        for span, q in _pair_products(blocks, self.pairs):
            np.multiply(q.real.T, 2.0, out=self.rows[span, n_diag:n_diag + n_pairs])
            np.multiply(q.imag.T, -2.0, out=self.rows[span, n_diag + n_pairs:k])
        self.codewords = self.rows[:, k:].view(complex)
        self.codewords[:] = vectors.T
        self.x = self.codewords.T


def _pair_products(blocks: np.ndarray, pairs: np.ndarray):
    """Q_ij = sum_t conj(X_it) X_jt of each pair (i, j) over ``blocks``
    (dim, slots, C), as (codeword slice, (pairs, codewords) array) per run
    of codewords whose gathered copies hold about _HYPOTHESIS_BUDGET
    (pair, slot, codeword) entries, so none of them is codebook-sized."""
    count = blocks.shape[2]
    step = max(1, _HYPOTHESIS_BUDGET // max(1, len(pairs) * blocks.shape[1]))
    for lo in range(0, count, step):
        span = slice(lo, min(lo + step, count))
        yield span, np.einsum("ptc,ptc->pc", blocks[pairs[:, 0], :, span].conj(),
                              blocks[pairs[:, 1], :, span])


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


@dataclass(frozen=True)
class CapacityEstimate:
    mean: float      # bit/s/Hz
    std_err: float
    trials: int


def _log2_det_gram(h: np.ndarray, snr_linear) -> np.ndarray:
    """log2 det(I + snr/Nt H H^H) of each matrix H in ``h`` (..., n_rx, n_tx)
    at each SNR of ``snr_linear``, a scalar or a 1-D grid whose axis leads
    the result.

    H H^H is formed once and scaled into one reused copy per SNR.  Each
    scaled matrix plus I is Hermitian with every eigenvalue >= 1, so its
    Cholesky factor L exists and the log-determinant is 2 sum log2 diag(L).
    """
    n_rx, n_tx = h.shape[-2:]
    gram = h @ np.conj(np.swapaxes(h, -1, -2))
    scaled = np.empty_like(gram)
    d = np.arange(n_rx)
    snrs = np.asarray(snr_linear)
    out = np.empty(snrs.shape + gram.shape[:-2])
    for i, snr in np.ndenumerate(snrs):
        np.multiply(gram, snr / n_tx, out=scaled)
        scaled[..., d, d] += 1.0
        diag = np.linalg.cholesky(scaled)[..., d, d].real
        # left to right, as sum() adds the column-major diagonals of a stack;
        # sum() would add a lone matrix's pairwise, so the bytes would depend
        # on the block size
        out[i] = 2.0 * np.log2(diag).cumsum(axis=-1)[..., -1]
    return out


def capacity_batch_bytes(n_tx: int, n_rx: int, trials: int, points: int = 1) -> int:
    """Bytes :func:`ergodic_capacity` holds at once besides its per-trial
    values, for a grid of ``points`` SNRs: one batch's real parts (8 bytes
    each) plus, per block of k matrices, its imaginary draw, channel,
    conjugate transpose, Gram matrix, scaled copy and Cholesky factor, the
    copies of their diagonals, and its k log-determinants per SNR point
    with their two partial sums.  Counts every block array as if all were
    held together."""
    n = min(CAPACITY_BATCH, trials)
    k = min(n, max(1, _CAPACITY_BLOCK // (n_rx * n_tx)))
    return 8 * (n * n_rx * n_tx + k * n_rx * (5 * n_tx + 6 * n_rx + 5) + k * (points + 2))


def ergodic_capacity(n_tx: int, n_rx: int, snr_linear, trials: int,
                     seed: int) -> "CapacityEstimate | list[CapacityEstimate]":
    """Monte Carlo mean of the instantaneous capacity over Rayleigh draws.

    ``snr_linear`` is one SNR, which returns one :class:`CapacityEstimate`,
    or a 1-D grid, which returns a list of them in grid order.  Every SNR
    sees the same channels, and each estimate is bitwise the one a scalar
    call at that SNR returns.  Reports the standard error of the mean so
    consumers can set principled tolerances.  Deterministic in (seed, n_tx,
    n_rx, trials).  Each batch of CAPACITY_BATCH trials draws its real parts
    at once; its log-determinants are taken in blocks of at most
    _CAPACITY_BLOCK channel entries, one Gram matrix per block for the
    whole grid, and each block draws its own imaginary parts just before
    it is used.  That is the stream of one (2, n, n_rx, n_tx) draw per
    batch: all real parts first, then the imaginary parts in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    snrs = np.asarray(snr_linear, dtype=float)
    if snrs.ndim > 1:
        raise ValueError("snr_linear must be a scalar or a 1-D grid")
    rng = channel_mod.stream_rng(seed, n_tx, n_rx)
    block = max(1, _CAPACITY_BLOCK // (n_rx * n_tx))
    values = np.empty(snrs.shape + (trials,))
    for done in range(0, trials, CAPACITY_BATCH):
        real = rng.standard_normal((min(CAPACITY_BATCH, trials - done), n_rx, n_tx))
        for lo in range(0, len(real), block):
            h = _block_channel(rng, real[lo:lo + block])
            values[..., done + lo:done + lo + len(h)] = _log2_det_gram(h, snrs)
        del real   # free this batch's real parts before the next ones are drawn
    estimates = []
    for row in values.reshape(-1, trials):
        mean = row.mean()
        estimates.append(CapacityEstimate(float(mean), _std_err(row, mean), trials))
    return estimates if snrs.ndim else estimates[0]


def _block_channel(rng: np.random.Generator, real: np.ndarray) -> np.ndarray:
    """CN(0, 1) channels from a block of standard-normal real parts and one
    draw of as many imaginary parts, each scaled by 1/sqrt(2) as
    :func:`channel.complex_normal` scales them."""
    h = np.empty(real.shape, dtype=complex)
    np.multiply(real, 1 / np.sqrt(2.0), out=h.real)
    np.multiply(rng.standard_normal(real.shape), 1 / np.sqrt(2.0), out=h.imag)
    return h


def _std_err(row: np.ndarray, mean) -> float:
    """Standard error of the mean of ``row``, bitwise row.std(ddof=1) /
    sqrt(n), with the squared deviations formed in ``row`` itself so that no
    trial-sized temporary is made; ``row`` is overwritten."""
    if len(row) < 2:
        return float("inf")
    row -= mean
    np.multiply(row, row, out=row)
    return float(np.sqrt(row.sum() / (len(row) - 1)) / np.sqrt(len(row)))
