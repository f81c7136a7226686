"""Bit mappers, demappers, and throughput rates for the IM scheme family.

Shared conventions (fixed once, used by every scheme):

- bit words are MSB-first; index bits precede symbol bits;
- resource subsets come from the lexicographic combinadic
  (:mod:`risim.combinatorics`);
- constellations are unit average energy; active-element amplitudes are
  scaled so mean transmit energy per channel use is exactly 1 over the
  full codebook.

Every scheme maps a whole bit word to an :class:`IMSymbol`, inverts it
exactly with ``demap``, and enumerates its codebook for ML detection.
"""

from dataclasses import dataclass
from math import comb, gcd, log2

import numpy as np

from .combinatorics import subset_rank, subset_unrank
from .detection import CandidateSet
from .errors import ConfigError
from .modulation import Constellation, bits_to_int, int_to_bits, is_power_of_two
from .spacetime import harmonic_coefficients, phase_shift_harmonic, synthesize_single_harmonic


@dataclass(frozen=True)
class IMSymbol:
    """Content of one signaling interval.

    ``indices`` are the activated resources of the scheme's domain
    (antennas, subcarriers, time slots, dispersion matrices, or channel
    states; harmonic indices may be negative).  ``symbols`` are the
    unit-average-energy constellation points riding on them.  The
    quadrature-spatial domain lists its I and Q antenna separately, so an
    index may repeat there; all other domains carry sorted unique indices.
    """

    domain: str
    indices: tuple
    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "symbols", tuple(complex(s) for s in self.symbols))


def _require_bits(bits, expected: int) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int8).reshape(-1)
    if arr.size != expected:
        raise ValueError(f"expected {expected} bits, got {arr.size}")
    if np.any((arr != 0) & (arr != 1)):
        raise ValueError("bits must be 0/1")
    return arr


def _int_log2(value: int, what: str) -> int:
    if not is_power_of_two(value):
        raise ConfigError(f"{what} must be a power of two, got {value}")
    return int(log2(value))


class Scheme:
    """Common surface of all mappers.

    Subclasses set ``domain``, ``model`` (how the harness transmits the
    codeword), ``bits_per_interval``, and implement map/demap and the
    codeword shaping hooks.
    """

    domain: str
    model: str
    bits_per_interval: int

    def rate(self) -> float:
        """Throughput of the scheme's own rate formula (bpcu unless noted)."""
        return float(self.bits_per_interval)

    def map_bits(self, bits) -> IMSymbol:
        raise NotImplementedError

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        raise NotImplementedError

    def map_word(self, word: int) -> IMSymbol:
        return self.map_bits(int_to_bits(word, self.bits_per_interval))

    def demap_word(self, symbol: IMSymbol) -> int:
        return bits_to_int(self.demap(symbol))

    # codeword shaping -------------------------------------------------
    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        raise NotImplementedError

    def codebook(self) -> CandidateSet:
        """All codewords in word order, flattened to columns."""
        words = range(1 << self.bits_per_interval)
        columns = [self.transmit_vector(self.map_word(w)).reshape(-1) for w in words]
        return CandidateSet(np.arange(1 << self.bits_per_interval), np.column_stack(columns))

    @property
    def channel_uses(self) -> int:
        """Resource slots one codeword occupies (normalizes energy/rate)."""
        return 1


# --------------------------------------------------------------------------
# spatial domain
# --------------------------------------------------------------------------

class SisoModulation(Scheme):
    """Plain M-ary PSK/QAM on a single transmit element."""

    domain = "spatial"
    model = "vector"

    def __init__(self, order: int, constellation: str = "psk"):
        self.constellation = Constellation(constellation, order)
        self.order = order
        self.n_tx = 1
        self.bits_per_interval = self.constellation.bits_per_symbol

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        s = self.constellation.modulate(bits_to_int(bits))
        return IMSymbol(self.domain, (0,), (s,))

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        label = self.constellation.demodulate(symbol.symbols[0])
        return int_to_bits(label, self.bits_per_interval)

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        return np.array(symbol.symbols, dtype=complex)


class SpatialModulation(Scheme):
    """Antenna index plus constellation symbol (log2 nT + log2 M bits)."""

    domain = "spatial"
    model = "vector"

    def __init__(self, n_tx: int, order: int, constellation: str = "psk"):
        self.index_bits = _int_log2(n_tx, "number of transmit antennas")
        self.constellation = Constellation(constellation, order)
        self.n_tx = n_tx
        self.order = order
        self.bits_per_interval = self.index_bits + self.constellation.bits_per_symbol

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        antenna = bits_to_int(bits[: self.index_bits])
        s = self.constellation.modulate(bits_to_int(bits[self.index_bits:]))
        return IMSymbol(self.domain, (antenna,), (s,))

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        antenna = symbol.indices[0]
        label = self.constellation.demodulate(symbol.symbols[0])
        return np.concatenate([
            int_to_bits(antenna, self.index_bits),
            int_to_bits(label, self.constellation.bits_per_symbol),
        ])

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        x = np.zeros(self.n_tx, dtype=complex)
        x[symbol.indices[0]] = symbol.symbols[0]
        return x


class SpaceShiftKeying(Scheme):
    """Index-only signaling: the activated antenna is the message."""

    domain = "spatial"
    model = "vector"

    def __init__(self, n_tx: int):
        self.index_bits = _int_log2(n_tx, "number of transmit antennas")
        self.n_tx = n_tx
        self.bits_per_interval = self.index_bits

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        return IMSymbol(self.domain, (bits_to_int(bits),), (1.0 + 0j,))

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        return int_to_bits(symbol.indices[0], self.index_bits)

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        x = np.zeros(self.n_tx, dtype=complex)
        x[symbol.indices[0]] = 1.0
        return x


class GeneralizedSM(Scheme):
    """A combinadic-ranked antenna subset shares one symbol for diversity."""

    domain = "spatial"
    model = "vector"

    def __init__(self, n_tx: int, n_active: int, order: int, constellation: str = "psk"):
        if not 1 <= n_active <= n_tx:
            raise ConfigError(f"need 1 <= n_active <= n_tx, got {n_active} of {n_tx}")
        self.index_bits = int(np.floor(np.log2(comb(n_tx, n_active))))
        if self.index_bits < 1:
            raise ConfigError(f"C({n_tx}, {n_active}) leaves no room for index bits")
        self.constellation = Constellation(constellation, order)
        self.n_tx = n_tx
        self.n_active = n_active
        self.order = order
        self.bits_per_interval = self.index_bits + self.constellation.bits_per_symbol

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        subset = subset_unrank(bits_to_int(bits[: self.index_bits]), self.n_tx, self.n_active)
        s = self.constellation.modulate(bits_to_int(bits[self.index_bits:]))
        return IMSymbol(self.domain, subset, (s,) * self.n_active)

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        rank = subset_rank(symbol.indices, self.n_tx)
        label = self.constellation.demodulate(symbol.symbols[0])
        return np.concatenate([
            int_to_bits(rank, self.index_bits),
            int_to_bits(label, self.constellation.bits_per_symbol),
        ])

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        x = np.zeros(self.n_tx, dtype=complex)
        x[list(symbol.indices)] = np.array(symbol.symbols) / np.sqrt(self.n_active)
        return x


class QuadratureSM(Scheme):
    """Separate antenna indices for the I and Q parts (2 log2 nT + log2 M).

    Needs a constellation whose points all have nonzero real and imaginary
    parts (square QAM), otherwise a silent quadrature leg would make the
    mapping non-invertible.
    """

    domain = "spatial-iq"
    model = "vector"

    def __init__(self, n_tx: int, order: int, constellation: str = "qam"):
        self.index_bits = _int_log2(n_tx, "number of transmit antennas")
        self.constellation = Constellation(constellation, order)
        pts = self.constellation.points
        if np.any(np.abs(pts.real) < 1e-9) or np.any(np.abs(pts.imag) < 1e-9):
            raise ConfigError(
                "quadrature SM needs nonzero I and Q in every constellation point "
                "(use square QAM)"
            )
        self.n_tx = n_tx
        self.order = order
        self.bits_per_interval = 2 * self.index_bits + self.constellation.bits_per_symbol

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        nb = self.index_bits
        i_ant = bits_to_int(bits[:nb])
        q_ant = bits_to_int(bits[nb:2 * nb])
        s = self.constellation.modulate(bits_to_int(bits[2 * nb:]))
        return IMSymbol(self.domain, (i_ant, q_ant), (s,))

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        i_ant, q_ant = symbol.indices
        label = self.constellation.demodulate(symbol.symbols[0])
        return np.concatenate([
            int_to_bits(i_ant, self.index_bits),
            int_to_bits(q_ant, self.index_bits),
            int_to_bits(label, self.constellation.bits_per_symbol),
        ])

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        i_ant, q_ant = symbol.indices
        s = symbol.symbols[0]
        x = np.zeros(self.n_tx, dtype=complex)
        x[i_ant] += s.real
        x[q_ant] += 1j * s.imag
        return x

    def symbol_from_vector(self, x: np.ndarray) -> IMSymbol:
        """Recover (I antenna, Q antenna, symbol) from a transmit vector."""
        i_ant = int(np.argmax(np.abs(x.real)))
        q_ant = int(np.argmax(np.abs(x.imag)))
        s = x[i_ant].real + 1j * x[q_ant].imag
        return IMSymbol(self.domain, (i_ant, q_ant), (s,))


# --------------------------------------------------------------------------
# frequency domain
# --------------------------------------------------------------------------

class SimOok(Scheme):
    """Harmonic-index keying with PSK on the generated tone.

    Index bits pick the reflected harmonic m from a configured alphabet;
    symbol bits pick the tone's phase, realized physically by circularly
    shifting the phase ramp (the delay s solves m*s = -k*L/M mod L, the
    rotation a delay imparts on harmonic m).  Feasibility of every
    (harmonic, phase) pair is checked at construction.
    """

    domain = "frequency"
    model = "analytic"

    def __init__(self, harmonics, order: int = 1, num_steps: int = 16):
        self.harmonics = tuple(int(m) for m in harmonics)
        if len(set(self.harmonics)) != len(self.harmonics) or not self.harmonics:
            raise ConfigError("harmonic alphabet must be non-empty and unique")
        if 0 in self.harmonics:
            raise ConfigError("harmonic 0 (the unmodulated carrier) cannot carry index bits")
        self.index_bits = _int_log2(len(self.harmonics), "harmonic alphabet size")
        self.order = order
        self.num_steps = num_steps
        self.symbol_bits = 0 if order == 1 else _int_log2(order, "PSK order")
        for m in self.harmonics:
            if abs(m) >= num_steps / 2:
                raise ConfigError(f"harmonic {m} aliases for L = {num_steps}")
        if order > 1:
            if num_steps % order:
                raise ConfigError(f"PSK order {order} needs L divisible by M (L = {num_steps})")
            for m in self.harmonics:
                for k in range(order):
                    self._solve_shift(m, k)  # raises if infeasible
        self.bits_per_interval = self.index_bits + self.symbol_bits

    def _solve_shift(self, m: int, phase_index: int) -> int:
        """Smallest delay s with -2*pi*m*s/L = 2*pi*k/M (mod 2*pi)."""
        num = self.num_steps
        c = (-phase_index * num // self.order) % num
        a = m % num
        g = gcd(a, num)
        if c % g:
            raise ConfigError(
                f"phase index {phase_index} of M = {self.order} unreachable on "
                f"harmonic {m} with L = {num}"
            )
        reduced = num // g
        s = (c // g) * pow(a // g, -1, reduced) % reduced
        return int(s)

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        m = self.harmonics[bits_to_int(bits[: self.index_bits])]
        k = bits_to_int(bits[self.index_bits:]) if self.symbol_bits else 0
        tone = np.exp(2j * np.pi * k / self.order)
        return IMSymbol(self.domain, (m,), (tone,))

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        m = symbol.indices[0]
        index = int_to_bits(self.harmonics.index(m), self.index_bits)
        if not self.symbol_bits:
            return index
        k = int(np.round(np.angle(symbol.symbols[0]) / (2.0 * np.pi / self.order))) % self.order
        return np.concatenate([index, int_to_bits(k, self.symbol_bits)])

    def to_sequence(self, symbol: IMSymbol) -> np.ndarray:
        """Physical L-step coding realizing the keyed tone."""
        m = symbol.indices[0]
        k = int(np.round(np.angle(symbol.symbols[0]) / (2.0 * np.pi / self.order))) % self.order
        ramp = synthesize_single_harmonic(m, self.num_steps)
        shift = self._solve_shift(m, k) if self.order > 1 else 0
        return phase_shift_harmonic(ramp, shift)

    def from_sequence(self, steps) -> IMSymbol:
        """Demodulate a received coding: dominant alphabet tone, then phase."""
        spectrum = harmonic_coefficients(steps, self.harmonics)
        m = max(self.harmonics, key=spectrum.magnitude)
        reference = harmonic_coefficients(synthesize_single_harmonic(m, self.num_steps), [m])[m]
        rotation = np.angle(spectrum[m] / reference)
        return IMSymbol(self.domain, (m,), (np.exp(1j * rotation),))

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        # analytic-domain codeword: one-hot tone amplitude over the alphabet
        x = np.zeros(len(self.harmonics), dtype=complex)
        x[self.harmonics.index(symbol.indices[0])] = symbol.symbols[0]
        return x


def ofdm_modulate(symbols: np.ndarray) -> np.ndarray:
    """Time samples x_t = (1/sqrt(N)) sum_a X_a exp(j 2 pi a t / N) (unitary)."""
    symbols = np.asarray(symbols, dtype=complex)
    n = symbols.shape[-1]
    return np.fft.ifft(symbols, axis=-1) * np.sqrt(n)


def ofdm_demodulate(samples: np.ndarray) -> np.ndarray:
    """Forward unitary DFT; exact inverse of :func:`ofdm_modulate`."""
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[-1]
    return np.fft.fft(samples, axis=-1) / np.sqrt(n)


class _SubsetBlockScheme(Scheme):
    """Shared machinery for per-block subset activation (OFDM-IM, SC-IM)."""

    def __init__(self, block_size: int, n_active: int, order: int, constellation: str = "psk"):
        if not 1 <= n_active <= block_size:
            raise ConfigError(f"need 1 <= k <= n, got k = {n_active}, n = {block_size}")
        self.block_size = block_size
        self.n_active = n_active
        self.order = order
        self.constellation = Constellation(constellation, order)
        self.index_bits = int(np.floor(np.log2(comb(block_size, n_active))))
        self.symbol_bits = self.constellation.bits_per_symbol
        self.bits_per_interval = self.index_bits + n_active * self.symbol_bits
        self._scale = np.sqrt(block_size / n_active)

    @property
    def channel_uses(self) -> int:
        return self.block_size

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        if self.index_bits:
            subset = subset_unrank(
                bits_to_int(bits[: self.index_bits]), self.block_size, self.n_active
            )
        else:
            subset = tuple(range(self.block_size))  # k = n degenerates to all-active
        symbols = []
        for j in range(self.n_active):
            chunk = bits[self.index_bits + j * self.symbol_bits:
                         self.index_bits + (j + 1) * self.symbol_bits]
            symbols.append(self.constellation.modulate(bits_to_int(chunk)))
        return IMSymbol(self.domain, subset, tuple(symbols))

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        bits, exact = self.demap_flagged(symbol)
        if not exact:
            raise ValueError(f"indices {symbol.indices} are not a valid activation set")
        return bits

    def demap_flagged(self, symbol: IMSymbol) -> tuple[np.ndarray, bool]:
        """Demap with a validity flag; an invalid activation set falls back
        to the nearest valid one (minimal symmetric difference, lowest rank)."""
        indices = tuple(sorted(symbol.indices))
        exact = True
        rank = None
        if len(indices) == len(set(indices)) and len(indices) == self.n_active:
            candidate = subset_rank(indices, self.block_size)
            if candidate < (1 << self.index_bits) or self.index_bits == 0:
                rank = candidate if self.index_bits else 0
        if rank is None:
            exact = False
            best = None
            for r in range(1 << self.index_bits):
                valid = subset_unrank(r, self.block_size, self.n_active)
                mismatch = len(set(valid).symmetric_difference(indices))
                if best is None or mismatch < best[0]:
                    best = (mismatch, r)
            rank = best[1]
        pieces = [int_to_bits(rank, self.index_bits)] if self.index_bits else []
        for s in symbol.symbols[: self.n_active]:
            pieces.append(int_to_bits(self.constellation.demodulate(s), self.symbol_bits))
        while len(pieces) < (1 if self.index_bits else 0) + self.n_active:
            pieces.append(np.zeros(self.symbol_bits, dtype=np.int8))
        return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int8), exact

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        x = np.zeros(self.block_size, dtype=complex)
        x[list(symbol.indices)] = np.array(symbol.symbols) * self._scale
        return x


class OfdmIm(_SubsetBlockScheme):
    """Subcarrier-index modulation within one OFDM subblock.

    Index bits pick which k of n subcarriers are active (combinadic,
    ranks above the index budget never emitted); the rest carry zeros.
    Active symbols are scaled by sqrt(n/k) for unit average energy per
    subcarrier.
    """

    domain = "frequency"
    model = "subcarrier"


class ScIm(_SubsetBlockScheme):
    """Time-slot index modulation within one single-carrier sub-frame.

    The cyclic prefix enters only the frame-rate bookkeeping (the channel
    here is flat), through ``rate``:
    N_s (k log2 M + floor(log2 C(l_s, k))) / ((N_s + L_cp) l_s) bits/frame.
    """

    domain = "time"
    model = "subcarrier"

    def __init__(self, slots: int, n_active: int, order: int,
                 constellation: str = "psk", symbols_per_frame: int = 16, cp_length: int = 0):
        super().__init__(slots, n_active, order, constellation)
        if symbols_per_frame < 1 or cp_length < 0:
            raise ConfigError("symbols_per_frame must be >= 1 and cp_length >= 0")
        self.symbols_per_frame = symbols_per_frame
        self.cp_length = cp_length

    def rate(self) -> float:
        per_subframe = self.n_active * self.symbol_bits + self.index_bits
        return self.symbols_per_frame * per_subframe / (
            (self.symbols_per_frame + self.cp_length) * self.block_size
        )


# --------------------------------------------------------------------------
# dispersion (space-time) domain
# --------------------------------------------------------------------------

def dispersion_set(count: int, n_tx: int, n_slots: int, seed: int) -> np.ndarray:
    """Q random complex dispersion matrices, Frobenius-normalized so each
    carries trace energy n_slots.  Deterministic in the seed."""
    rng = np.random.default_rng([seed, count, n_tx, n_slots])
    mats = rng.standard_normal((count, n_tx, n_slots)) + 1j * rng.standard_normal((count, n_tx, n_slots))
    norms = np.linalg.norm(mats, axis=(1, 2), keepdims=True)
    return mats / norms * np.sqrt(n_slots)


class SpaceTimeShiftKeying(Scheme):
    """Dispersion-matrix index modulation (STSK; GSTSK when p_active > 1).

    floor(log2 C(Q, P)) index bits select a combinadic P-subset of the Q
    pre-designed matrices; each selected matrix carries its own M-ary
    symbol.  The codeword sum is scaled by 1/sqrt(P).
    """

    domain = "dispersion"
    model = "matrix"

    def __init__(self, q_matrices: int, p_active: int, order: int, n_tx: int,
                 n_slots: int, constellation: str = "psk", seed: int = 1):
        if not 1 <= p_active <= q_matrices:
            raise ConfigError(f"need 1 <= P <= Q, got P = {p_active}, Q = {q_matrices}")
        self.index_bits = int(np.floor(np.log2(comb(q_matrices, p_active))))
        if self.index_bits < 1:
            raise ConfigError(f"C({q_matrices}, {p_active}) leaves no room for index bits")
        self.constellation = Constellation(constellation, order)
        self.q_matrices = q_matrices
        self.p_active = p_active
        self.order = order
        self.n_tx = n_tx
        self.n_slots = n_slots
        self.matrices = dispersion_set(q_matrices, n_tx, n_slots, seed)
        self.symbol_bits = self.constellation.bits_per_symbol
        self.bits_per_interval = self.index_bits + p_active * self.symbol_bits

    @property
    def channel_uses(self) -> int:
        return self.n_slots

    def rate(self) -> float:
        return self.bits_per_interval / self.n_slots

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        subset = subset_unrank(
            bits_to_int(bits[: self.index_bits]), self.q_matrices, self.p_active
        )
        symbols = []
        for j in range(self.p_active):
            chunk = bits[self.index_bits + j * self.symbol_bits:
                         self.index_bits + (j + 1) * self.symbol_bits]
            symbols.append(self.constellation.modulate(bits_to_int(chunk)))
        return IMSymbol(self.domain, subset, tuple(symbols))

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        rank = subset_rank(symbol.indices, self.q_matrices)
        pieces = [int_to_bits(rank, self.index_bits)]
        for s in symbol.symbols:
            pieces.append(int_to_bits(self.constellation.demodulate(s), self.symbol_bits))
        return np.concatenate(pieces)

    def transmit_matrix(self, symbol: IMSymbol) -> np.ndarray:
        s = np.zeros((self.n_tx, self.n_slots), dtype=complex)
        for q, sym in zip(symbol.indices, symbol.symbols):
            s += self.matrices[q] * sym
        return s / np.sqrt(self.p_active)

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        return self.transmit_matrix(symbol).reshape(-1)


# --------------------------------------------------------------------------
# channel-state domain
# --------------------------------------------------------------------------

class MediaBasedModulation(Scheme):
    """Channel-state index modulation: log2 S state bits + log2 M symbol bits.

    States are independent channel realizations the receiver knows (the
    abstract RF-mirror picture).  The BER engine draws them i.i.d. Rayleigh
    per trial and sends the codeword, a one-hot state vector carrying the
    symbol, through the same dense path as spatial modulation.
    """

    domain = "channel-state"
    model = "state"

    def __init__(self, num_states: int, order: int = 1, constellation: str = "psk"):
        self.state_bits = _int_log2(num_states, "number of pattern states")
        self.num_states = num_states
        self.order = order
        self.symbol_bits = 0 if order == 1 else _int_log2(order, "constellation order")
        self.constellation = None if order == 1 else Constellation(constellation, order)
        self.bits_per_interval = self.state_bits + self.symbol_bits

    def map_bits(self, bits) -> IMSymbol:
        bits = _require_bits(bits, self.bits_per_interval)
        state = bits_to_int(bits[: self.state_bits])
        if self.symbol_bits:
            s = self.constellation.modulate(bits_to_int(bits[self.state_bits:]))
        else:
            s = 1.0 + 0j
        return IMSymbol(self.domain, (state,), (s,))

    def demap(self, symbol: IMSymbol) -> np.ndarray:
        state_bits = int_to_bits(symbol.indices[0], self.state_bits)
        if not self.symbol_bits:
            return state_bits
        label = self.constellation.demodulate(symbol.symbols[0])
        return np.concatenate([state_bits, int_to_bits(label, self.symbol_bits)])

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        # codeword over (state one-hot) x symbol; physical mixing with the
        # per-state channels happens in the harness/detector
        x = np.zeros(self.num_states, dtype=complex)
        x[symbol.indices[0]] = symbol.symbols[0]
        return x


# --------------------------------------------------------------------------
# rate formulas
# --------------------------------------------------------------------------

def rate_ra_ssk(n_tx: int, states_per_antenna) -> float:
    """log2 nT + mean over antennas of log2 of their pattern-state counts."""
    states = list(states_per_antenna)
    if len(states) != n_tx:
        raise ConfigError(f"need one state count per antenna ({n_tx}), got {len(states)}")
    if any(s < 1 for s in states):
        raise ConfigError("state counts must be >= 1")
    return float(log2(n_tx) + sum(log2(s) for s in states) / n_tx)


_SCHEME_BUILDERS = {}


def _register(name):
    def wrap(fn):
        _SCHEME_BUILDERS[name] = fn
        return fn
    return wrap


@_register("psk")
def _build_psk(cfg):
    return SisoModulation(cfg.pop("order"), cfg.pop("constellation", "psk"))


@_register("qam")
def _build_qam(cfg):
    return SisoModulation(cfg.pop("order"), cfg.pop("constellation", "qam"))


@_register("sm")
def _build_sm(cfg):
    return SpatialModulation(cfg.pop("n_tx"), cfg.pop("order"), cfg.pop("constellation", "psk"))


@_register("ssk")
def _build_ssk(cfg):
    return SpaceShiftKeying(cfg.pop("n_tx"))


@_register("gsm")
def _build_gsm(cfg):
    return GeneralizedSM(cfg.pop("n_tx"), cfg.pop("n_active"), cfg.pop("order"),
                         cfg.pop("constellation", "psk"))


@_register("qsm")
def _build_qsm(cfg):
    return QuadratureSM(cfg.pop("n_tx"), cfg.pop("order"), cfg.pop("constellation", "qam"))


@_register("sim_ook")
def _build_sim_ook(cfg):
    return SimOok(cfg.pop("harmonics"), cfg.pop("order", 1), cfg.pop("num_steps", 16))


@_register("ofdm_im")
def _build_ofdm_im(cfg):
    return OfdmIm(cfg.pop("n"), cfg.pop("k"), cfg.pop("order"), cfg.pop("constellation", "psk"))


@_register("sc_im")
def _build_sc_im(cfg):
    return ScIm(cfg.pop("slots"), cfg.pop("k"), cfg.pop("order"),
                cfg.pop("constellation", "psk"),
                cfg.pop("symbols_per_frame", 16), cfg.pop("cp_length", 0))


@_register("stsk")
def _build_stsk(cfg):
    return SpaceTimeShiftKeying(cfg.pop("q_matrices"), cfg.pop("p_active", 1),
                                cfg.pop("order"), cfg.pop("n_tx"), cfg.pop("n_slots"),
                                cfg.pop("constellation", "psk"), cfg.pop("dispersion_seed", 1))


@_register("mbm")
def _build_mbm(cfg):
    return MediaBasedModulation(cfg.pop("num_states"), cfg.pop("order", 1),
                                cfg.pop("constellation", "psk"))


def _reject_booleans(config: dict) -> None:
    """No scheme key is boolean, and JSON true/false would pass as 1/0."""
    for key, value in config.items():
        if isinstance(value, bool) or (
                isinstance(value, list) and any(isinstance(v, bool) for v in value)):
            raise ConfigError(f"scheme.{key} must not be a boolean, got {value!r}")


def build_scheme(config: dict) -> Scheme:
    """Instantiate a scheme from its config dict; unknown keys rejected."""
    cfg = dict(config)
    _reject_booleans(cfg)
    kind = cfg.pop("type", None)
    if kind not in _SCHEME_BUILDERS:
        raise ConfigError(
            f"scheme.type must be one of {sorted(_SCHEME_BUILDERS)}, got {kind!r}"
        )
    try:
        scheme = _SCHEME_BUILDERS[kind](cfg)
    except KeyError as exc:
        raise ConfigError(f"scheme.{exc.args[0]} is required for type {kind!r}") from None
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid scheme config: {exc}") from None
    if cfg:
        raise ConfigError(f"unknown scheme key(s): {', '.join(sorted(cfg))}")
    scheme.name = kind
    return scheme


def rate_of(config: dict) -> float:
    """Throughput of a scheme config.

    RA-SSK is rate-only (no mapper exists), and QSM's formula
    2 log2(nT) + log2(M) is evaluated directly so it stays defined for
    constellations the quadrature mapper itself cannot carry (e.g. BPSK).
    """
    _reject_booleans(config)
    if config.get("type") == "ra_ssk":
        cfg = dict(config)
        cfg.pop("type")
        try:
            value = rate_ra_ssk(cfg.pop("n_tx"), cfg.pop("states_per_antenna"))
        except KeyError as exc:
            raise ConfigError(f"scheme.{exc.args[0]} is required for type 'ra_ssk'") from None
        if cfg:
            raise ConfigError(f"unknown scheme key(s): {', '.join(sorted(cfg))}")
        return value
    if config.get("type") == "qsm":
        cfg = dict(config)
        cfg.pop("type")
        cfg.pop("constellation", None)
        try:
            n_tx, order = cfg.pop("n_tx"), cfg.pop("order")
        except KeyError as exc:
            raise ConfigError(f"scheme.{exc.args[0]} is required for type 'qsm'") from None
        if cfg:
            raise ConfigError(f"unknown scheme key(s): {', '.join(sorted(cfg))}")
        return float(2 * _int_log2(n_tx, "number of transmit antennas")
                     + _int_log2(order, "constellation order"))
    return build_scheme(config).rate()


def codebook_rows(scheme: Scheme):
    """(bits, indices, symbols) audit rows over the whole codebook."""
    rows = []
    for word in range(1 << scheme.bits_per_interval):
        sym = scheme.map_word(word)
        bits = "".join(str(b) for b in int_to_bits(word, scheme.bits_per_interval))
        indices = "|".join(str(i) for i in sym.indices)
        symbols = "|".join(f"{s.real:+.6f}{s.imag:+.6f}j" for s in sym.symbols)
        rows.append((bits, indices, symbols))
    return rows
