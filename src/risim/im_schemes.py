"""Bit mappers, demappers, and throughput rates for the IM scheme family.

Shared conventions (fixed once, used by every scheme):

- bit words are MSB-first; index bits precede symbol bits;
- resource subsets come in lexicographic (combinadic) rank order
  (:mod:`risim.combinatorics`);
- constellations are unit average energy; active-element amplitudes are
  scaled so mean transmit energy per channel use is exactly 1 over the
  full codebook.

Every scheme is two tables: ``patterns``, the activated resources of each
index value, and ``points``, its symbol points in label order.  A word's
index bits pick its pattern row, and its ``n_symbols`` groups of symbol
bits pick the points riding on that row.  :class:`Scheme` derives mapping,
demapping and the whole codebook from the tables; a subclass declares them
and adds only how its points sit on the resources, where that is not one
point per resource.
"""

import inspect
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations, islice, product
from math import comb, gcd, log2

import numpy as np

from .detection import CandidateSet
from .errors import ConfigError, Key, _Section, shown
from .modulation import Constellation, int_to_bits, is_power_of_two

# the one point of schemes whose only message is the index
_UNIT_POINT = np.ones(1, dtype=complex)
MAX_INDEX_BITS = (1 << 16) - 1   # of a k-of-n activation: C(n, k) < 2^(2^16)


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


def _int_log2(value: int, what: str) -> int:
    if not is_power_of_two(value):
        raise ConfigError(f"{what} must be a power of two, got {shown(value)}")
    return int(log2(value))


def _subset_bits(n: int, k: int, least: int = 0, key: str = "k") -> int:
    """Index bits of a k-of-n activation, floor(log2 C(n, k)), refused naming
    ``key`` unless ``least`` to MAX_INDEX_BITS.  comb's cost grows faster than
    its result, so a count past the cap is refused first from C(n, m) >=
    (n/m)^m >= 2^m, m = min(k, n - k), testing m alone while it may be past float range."""
    m = min(k, n - k)
    huge = m > MAX_INDEX_BITS or m and m * (log2(n) - log2(m)) > MAX_INDEX_BITS
    bits = MAX_INDEX_BITS + 1 if huge else comb(n, k).bit_length() - 1
    if not least <= bits <= MAX_INDEX_BITS:
        raise ConfigError(f"{key}: C({shown(n)}, {shown(k)}) activations must carry {least} to "
                          f"{MAX_INDEX_BITS} index bits")
    return bits


class Scheme:
    """Common surface of all mappers, derived from the scheme's tables.

    Subclasses set ``domain``, ``model`` (how the harness transmits the
    codeword), ``index_bits``, ``symbol_bits``, ``n_symbols``, ``dim``
    (entries per codeword row) and ``n_slots`` (codeword columns), list
    their activation sets in :meth:`_pattern_rows`, and give ``points``
    (label order) where they have no constellation.  A constructor only
    checks and counts; every table is built on first use, so a scheme too
    large to enumerate is constructed and refused at once.
    """

    domain: str
    model: str
    dim: int
    index_bits = 0
    symbol_bits = 0
    n_symbols = 1
    n_slots = 1

    @property
    def bits_per_interval(self) -> int:
        return self.index_bits + self.n_symbols * self.symbol_bits

    def rate(self) -> float:
        """Throughput of the scheme's own rate formula (bpcu unless noted)."""
        return float(self.bits_per_interval)

    @property
    def channel_uses(self) -> int:
        """Resource slots one codeword occupies (normalizes energy/rate)."""
        return 1

    def _set_constellation(self, kind: str, order: int) -> None:
        self.constellation = Constellation(kind, order)
        self.order = order
        self.symbol_bits = self.constellation.bits_per_symbol

    @cached_property
    def points(self) -> np.ndarray:
        return self.constellation.label_points

    # tables -----------------------------------------------------------
    def _pattern_rows(self):
        """Activated resources of each index value in rank order; rows past
        the first 2^index_bits are never used."""
        return ((i,) for i in range(1 << self.index_bits))

    @cached_property
    def patterns(self) -> np.ndarray:
        """(2^index_bits, width) activated resources of each index value."""
        return np.array(list(islice(self._pattern_rows(), 1 << self.index_bits)))

    @cached_property
    def _row_index(self) -> dict:
        return {row: i for i, row in enumerate(map(tuple, self.patterns.tolist()))}

    @property
    def _columns(self) -> np.ndarray:
        """Codeword entries each index value activates."""
        return self.patterns

    def _split(self, words):
        """Index values and (..., n_symbols) symbol labels of bit words."""
        words = np.asarray(words, dtype=np.int64)
        shifts = self.symbol_bits * np.arange(self.n_symbols - 1, -1, -1)
        labels = (words[..., None] >> shifts) & ((1 << self.symbol_bits) - 1)
        return words >> (self.n_symbols * self.symbol_bits), labels

    def _word(self, index: int, symbols) -> int:
        """Bit word of an index value and the labels of the points nearest
        ``symbols``; missing symbols take label 0."""
        labels = [int(np.argmin(np.abs(self.points - s))) for s in symbols[: self.n_symbols]]
        for label in labels + [0] * (self.n_symbols - len(labels)):
            index = (index << self.symbol_bits) | label
        return index

    def _index_of(self, indices) -> int:
        try:
            return self._row_index[tuple(indices)]
        except KeyError:
            raise ValueError(f"indices {tuple(indices)} are not a valid activation set") from None

    # mapping ----------------------------------------------------------
    def map_word(self, word: int) -> IMSymbol:
        if not 0 <= word < 1 << self.bits_per_interval:
            raise ValueError(f"value {word} does not fit in {self.bits_per_interval} bits")
        index, labels = self._split(word)
        return IMSymbol(self.domain, self.patterns[index], self._symbols(self.points[labels]))

    def demap_word(self, symbol: IMSymbol) -> int:
        return self._word(self._index_of(symbol.indices), symbol.symbols)

    def _symbols(self, values) -> np.ndarray:
        """The symbols an IMSymbol lists for a word's ``n_symbols`` points."""
        return values

    # codeword shaping -------------------------------------------------
    def _codewords(self, index, values) -> np.ndarray:
        """(W, dim * n_slots) codewords of W index values carrying the
        (W, n_symbols) symbol values ``values``."""
        x = np.zeros((len(index), self.dim * self.n_slots), dtype=complex)
        x[np.arange(len(index))[:, None], self._columns[index]] = self._amplitudes(values)
        return x

    def _amplitudes(self, values) -> np.ndarray:
        """Entries the symbol values put on the activated resources."""
        return values

    def transmit_vector(self, symbol: IMSymbol) -> np.ndarray:
        values = np.array(symbol.symbols[: self.n_symbols], dtype=complex)
        return self._codewords([self._index_of(symbol.indices)], values[None])[0]

    def codebook(self) -> CandidateSet:
        """All codewords in word order, one column each."""
        words = np.arange(1 << self.bits_per_interval)
        index, labels = self._split(words)
        x = self._codewords(index, self.points[labels])
        return CandidateSet(words, np.ascontiguousarray(x.T))


# --------------------------------------------------------------------------
# spatial domain
# --------------------------------------------------------------------------


class SisoModulation(Scheme):
    """Plain M-ary PSK/QAM on a single transmit element."""

    domain = "spatial"
    model = "vector"
    n_tx = dim = 1

    def __init__(self, order: int, constellation: str = "psk"):
        self._set_constellation(constellation, order)


class SpatialModulation(Scheme):
    """Antenna index plus constellation symbol (log2 nT + log2 M bits)."""

    domain = "spatial"
    model = "vector"

    def __init__(self, n_tx: int, order: int, constellation: str = "psk"):
        self.index_bits = _int_log2(n_tx, "n_tx")
        self._set_constellation(constellation, order)
        self.n_tx = self.dim = n_tx


class SpaceShiftKeying(Scheme):
    """Index-only signaling: the activated antenna is the message."""

    domain = "spatial"
    model = "vector"
    points = _UNIT_POINT

    def __init__(self, n_tx: int):
        self.index_bits = _int_log2(n_tx, "n_tx")
        self.n_tx = self.dim = n_tx


class GeneralizedSM(Scheme):
    """A combinadic-ranked antenna subset shares one symbol for diversity."""

    domain = "spatial"
    model = "vector"

    def __init__(self, n_tx: int, n_active: int, order: int, constellation: str = "psk"):
        if not 1 <= n_active <= n_tx:
            raise ConfigError(f"n_active must be >= 1 and <= n_tx = {shown(n_tx)}, "
                              f"got {shown(n_active)}")
        self.index_bits = _subset_bits(n_tx, n_active, 1, "n_active")
        self._set_constellation(constellation, order)
        self.n_tx = self.dim = n_tx
        self.n_active = n_active

    def _pattern_rows(self):
        return combinations(range(self.n_tx), self.n_active)

    def _symbols(self, values):
        return np.repeat(values, self.n_active)

    def _amplitudes(self, values):
        return values / np.sqrt(self.n_active)


class QuadratureSM(Scheme):
    """Separate antenna indices for the I and Q parts (2 log2 nT + log2 M).

    Needs a constellation whose points all have nonzero real and imaginary
    parts (square QAM), otherwise a silent quadrature leg would make the
    mapping non-invertible.
    """

    domain = "spatial-iq"
    model = "vector"

    def __init__(self, n_tx: int, order: int, constellation: str = "qam"):
        antenna_bits = _int_log2(n_tx, "n_tx")
        self._set_constellation(constellation, order)
        if constellation != "qam":   # every PSK has the point 1; no square-QAM point is on an axis
            raise ConfigError("constellation must be qam: quadrature SM needs nonzero I and Q "
                              "in every constellation point")
        self.index_bits = 2 * antenna_bits
        self.n_tx = self.dim = n_tx

    def _pattern_rows(self):
        return product(range(self.n_tx), repeat=2)   # (I antenna, Q antenna)

    def _codewords(self, index, values):
        x = np.zeros((len(index), self.n_tx), dtype=complex)
        rows = np.arange(len(index))
        i_ant, q_ant = self.patterns[index].T
        x[rows, i_ant] += values[:, 0].real
        x[rows, q_ant] += 1j * values[:, 0].imag
        return x


# --------------------------------------------------------------------------
# frequency domain
# --------------------------------------------------------------------------


class SimOok(Scheme):
    """Harmonic-index keying with PSK on the generated tone.

    Index bits pick the reflected harmonic m from a configured alphabet;
    symbol bits pick the tone's phase.  The surface keys that phase by
    circularly delaying the L-step phase ramp of harmonic m, so each
    (harmonic, phase) pair needs a delay s that solves m*s = -k*L/M mod L
    (the rotation a delay imparts on harmonic m); construction checks that
    phase index 1 has one, so its multiples, every pair, do.  The analytic
    codeword is the tone over the alphabet positions.
    """

    domain = "frequency"
    model = "analytic"

    def __init__(self, harmonics: list, order: int = 1, num_steps: int = 16):
        self.harmonics = tuple(harmonics)
        if len(set(self.harmonics)) != len(self.harmonics) or not self.harmonics:
            raise ConfigError("harmonics must be non-empty and unique")
        if 0 in self.harmonics:
            raise ConfigError("harmonics: harmonic 0 (the unmodulated carrier) cannot carry "
                              "index bits")
        self.index_bits = _int_log2(len(self.harmonics), "harmonics count")
        self.order = order
        self.num_steps = num_steps
        self.symbol_bits = 0 if order == 1 else _int_log2(order, "order")
        for m in self.harmonics:
            if 2 * abs(m) >= num_steps:
                raise ConfigError(f"harmonics: harmonic {shown(m)} aliases for "
                                  f"L = {shown(num_steps)}")
        if order > 1:
            if num_steps % order:
                raise ConfigError(f"order: PSK order {shown(order)} needs L divisible by M "
                                  f"(L = {shown(num_steps)})")
            for m in self.harmonics:
                self._solve_shift(m, 1)  # raises if infeasible
        self.dim = len(self.harmonics)

    @cached_property
    def points(self):
        return np.array([np.exp(2j * np.pi * k / self.order) for k in range(self.order)])

    def _pattern_rows(self):
        return ((m,) for m in self.harmonics)

    @property
    def _columns(self):
        return np.arange(self.dim)[:, None]

    def _solve_shift(self, m: int, phase_index: int) -> int:
        """Smallest delay s with -2*pi*m*s/L = 2*pi*k/M (mod 2*pi)."""
        num = self.num_steps
        c = (-phase_index * num // self.order) % num
        a = m % num
        g = gcd(a, num)
        if c % g:
            raise ConfigError(f"order: phase index {phase_index} of M = {self.order} "
                              f"unreachable on harmonic {m} with L = {num}")
        reduced = num // g
        s = (c // g) * pow(a // g, -1, reduced) % reduced
        return int(s)


class _SubsetBlockScheme(Scheme):
    """Shared machinery for per-block subset activation (OFDM-IM, SC-IM)."""

    def __init__(self, n: int, k: int, order: int, constellation: str = "psk"):
        if not 1 <= k <= n:
            raise ConfigError(f"k must be >= 1 and <= the block size {shown(n)}, got {shown(k)}")
        self.block_size = self.dim = n
        self.n_active = self.n_symbols = k
        self._set_constellation(constellation, order)
        self.index_bits = _subset_bits(n, k)   # 0 when k = n: all active

    @property
    def channel_uses(self) -> int:
        return self.block_size

    def _pattern_rows(self):
        return combinations(range(self.block_size), self.n_active)

    def _amplitudes(self, values):
        return values * np.sqrt(self.block_size / self.n_active)


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

    def __init__(self, slots: int, k: int, order: int,
                 constellation: str = "psk", symbols_per_frame: int = 16, cp_length: int = 0):
        super().__init__(slots, k, order, constellation)
        self.symbols_per_frame = symbols_per_frame
        self.cp_length = cp_length

    def rate(self) -> float:
        return self.symbols_per_frame * self.bits_per_interval / (
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
                 n_slots: int, constellation: str = "psk", dispersion_seed: int = 1):
        if not 1 <= p_active <= q_matrices:
            raise ConfigError(f"p_active must be >= 1 and <= q_matrices = {shown(q_matrices)}, "
                              f"got {shown(p_active)}")
        self.index_bits = _subset_bits(q_matrices, p_active, 1, "p_active")
        self._set_constellation(constellation, order)
        self.q_matrices = q_matrices
        self.p_active = self.n_symbols = p_active
        self.n_tx = self.dim = n_tx
        self.n_slots = n_slots
        self.dispersion_seed = dispersion_seed

    @cached_property
    def matrices(self) -> np.ndarray:
        return dispersion_set(self.q_matrices, self.n_tx, self.n_slots, self.dispersion_seed)

    @property
    def channel_uses(self) -> int:
        return self.n_slots

    def rate(self) -> float:
        return self.bits_per_interval / self.n_slots

    def _pattern_rows(self):
        return combinations(range(self.q_matrices), self.p_active)

    def _codewords(self, index, values):
        s = np.zeros((len(index), self.n_tx, self.n_slots), dtype=complex)
        for q, sym in zip(self.patterns[index].T, values.T):
            s += self.matrices[q] * sym[:, None, None]
        return (s / np.sqrt(self.p_active)).reshape(len(index), -1)


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
        self.index_bits = _int_log2(num_states, "num_states")
        self.num_states = self.dim = num_states
        if order == 1:
            self.order, self.constellation, self.points = 1, None, _UNIT_POINT
        else:
            _int_log2(order, "order")
            self._set_constellation(constellation, order)


# --------------------------------------------------------------------------
# rate formulas
# --------------------------------------------------------------------------


def rate_ra_ssk(n_tx: int, states_per_antenna: list) -> float:
    """log2 nT + mean over antennas of log2 of their pattern-state counts."""
    states = list(states_per_antenna)
    if len(states) != n_tx:
        raise ConfigError(f"states_per_antenna must hold one count per antenna "
                          f"(n_tx = {shown(n_tx)}), got {len(states)}")
    return float(log2(n_tx) + sum(log2(s) for s in states) / n_tx)


def qsm_rate(n_tx: int, order: int, constellation: str = "qam") -> float:
    """2 log2 nT + log2 M, whatever the constellation: the formula stays
    defined for constellations the quadrature mapper cannot carry (BPSK)."""
    return float(2 * _int_log2(n_tx, "n_tx") + _int_log2(order, "order"))


# scheme type -> constructor; a config's keys are the constructor's parameters
SCHEME_TYPES = {
    "psk": SisoModulation,
    "qam": partial(SisoModulation, constellation="qam"),
    "sm": SpatialModulation,
    "ssk": SpaceShiftKeying,
    "gsm": GeneralizedSM,
    "qsm": QuadratureSM,
    "sim_ook": SimOok,
    "ofdm_im": OfdmIm,
    "sc_im": ScIm,
    "stsk": partial(SpaceTimeShiftKeying, p_active=1),
    "mbm": MediaBasedModulation,
}

# types whose rate is a formula of their keys; RA-SSK has no mapper at all
_RATE_FORMULAS = {"ra_ssk": rate_ra_ssk, "qsm": qsm_rate}

# the integer keys, and integer-list keys by entry, not bounded below by 1
_LOW = {"cp_length": 0, "dispersion_seed": 0, "harmonics": None}


def _from_keys(config, types: dict):
    """``types[config["type"]]`` called with the scheme config's other keys
    as its keyword arguments, each read as its parameter's annotation says:
    ``int`` or ``list`` of ints (each >= 1 unless ``_LOW`` says otherwise),
    or ``str``, a constellation kind.  A parameter without a default is
    required.  The constructor's value rules name their parameter, which
    gets its ``scheme.`` path here."""
    sec = _Section(config, "scheme")
    kind = sec.value("type", str, Key(choices=tuple(sorted(types))))
    args = {}
    for name, param in inspect.signature(types[kind]).parameters.items():
        hint = tuple[int, ...] if param.annotation is list else param.annotation
        key = Key(choices=Constellation.KINDS) if hint is str else Key(_LOW.get(name, 1))
        args[name] = sec.value(name, hint, key, param.default)
    sec.finish()
    try:
        return types[kind](**args)
    except ConfigError as exc:
        raise ConfigError(f"scheme.{exc}") from None


def build_scheme(config: dict) -> Scheme:
    """Instantiate a scheme from its config dict; unknown keys rejected."""
    return _from_keys(config, SCHEME_TYPES)


def rate_of(config: dict) -> float:
    """Throughput of a scheme config, by formula where one is registered."""
    value = _from_keys(config, {**SCHEME_TYPES, **_RATE_FORMULAS})
    return value.rate() if isinstance(value, Scheme) else value


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
