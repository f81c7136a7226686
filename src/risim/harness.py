"""Config-driven Monte Carlo experiments with deterministic parallelism.

Trials are simulated in fixed-size batches; batch b of SNR point p draws
its generator from (seed, p, b) only, and the early-stop rule is applied
to batches folded in index order.  Which batches count toward an estimate
is therefore a pure function of the config, so any thread count produces
byte-identical result files.
"""

import json
import math
import sys
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import aperture, detection, im_schemes, metaatom, spacetime
from .channel import complex_normal, los_matrix, stream_rng
from .errors import ConfigError, _Section
from .util import db_to_linear, write_csv

DEFAULT_MAX_TRIALS = 10_000_000
DEFAULT_MIN_ERRORS = 200
DEFAULT_BATCH_SIZE = 65_536
# 2**52 levels already space phases in [0, 2 pi) at about one double ulp
MAX_QUANTIZE_BITS = 52
# bytes one run may hold in any of its largest arrays, estimated from the
# config at parse time: a pattern sweep's fields and text, one angle's
# element arrays, a BER codebook or batch draw, a capacity batch or values
MAX_RUN_BYTES = 1 << 29
MAX_PATTERN_SWEEP_BYTES = MAX_RUN_BYTES
# the BER engine and the codebook export hold every codeword, and the
# trial draws of one batch are not chunked
MAX_CODEWORDS = 1 << 16
MAX_BATCH_SIZE = 1 << 20
# largest |snr_db|: 10**(snr/10) overflows to inf past about 3082 dB; at
# 1e30 the metric, Gram and noise arithmetic stays far from overflow
MAX_SNR_DB = 300.0
# series resistance of the varactor states a pattern run's atom loss uses
ATOM_RESISTANCE_OHM = 0.5

# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialPolicy:
    max_trials: int
    min_errors: int
    batch_size: int


@dataclass(frozen=True)
class ChannelSpec:
    model: str                    # "awgn" | "rayleigh" | "rician"
    k_factor: float = 0.0
    los_structure: str = "dft"


def _parse_scheme(raw) -> im_schemes.Scheme:
    """A scheme whose whole codebook may be built."""
    scheme = im_schemes.build_scheme(raw)
    if 1 << scheme.bits_per_interval > MAX_CODEWORDS:
        raise ConfigError(f"scheme has 2^{scheme.bits_per_interval} codewords; "
                          f"at most {MAX_CODEWORDS} are supported")
    return scheme


def _check_bytes(key: str, need: int, what: str) -> None:
    if need > MAX_RUN_BYTES:
        raise ConfigError(f"{key}: {what} would take {need} bytes, over the budget "
                          f"of {MAX_RUN_BYTES}")


def _codeword_length(scheme) -> int:
    """Entries of one codeword, from the scheme's parameters alone."""
    return scheme.dim * scheme.n_slots


def _parse_channel(parent: _Section) -> ChannelSpec:
    sec = parent.section("channel", {"model": "rayleigh"})
    model = sec.choice("model", ("awgn", "rayleigh", "rician"), required=True)
    if model != "rician":
        sec.finish()
        return ChannelSpec(model)
    k_factor = float(sec.bounded("K", 0, required=True))
    los = sec.section("los")
    structure = los.choice("structure", ("dft", "ones"), "dft")
    los.finish()
    sec.finish()
    return ChannelSpec(model, k_factor, structure)


def _is_number(value) -> bool:
    """A JSON number that fits a finite float; true/false would pass
    isinstance(value, int)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _snr_grid(sec: _Section) -> tuple:
    return tuple(float(v) for v in sec.bounded("snr_db", -MAX_SNR_DB, required=True,
                                               high=MAX_SNR_DB, listed=True))


def _draw_bytes(trials: TrialPolicy, n_rx: int, scheme) -> int:
    """Bytes of one batch's channel draw."""
    return 16 * min(trials.batch_size, trials.max_trials) * n_rx * _codeword_length(scheme)


@dataclass(frozen=True)
class BerConfig:
    """A BER curve of one scheme over one channel model (``run_ber``)."""
    experiment: ClassVar[str] = "ber"
    scheme: dict
    channel: ChannelSpec
    n_rx: int
    snr_db: tuple
    trials: TrialPolicy
    seed: int
    output: str | None

    @classmethod
    def parse(cls, sec: _Section, seed: int) -> "BerConfig":
        scheme_cfg = sec.take("scheme", required=True)
        scheme = _parse_scheme(scheme_cfg)  # validates feasibility
        if scheme.model == "analytic":
            raise ConfigError(f"scheme type {scheme_cfg.get('type')!r} has no statistical-channel "
                              "transmit model; it is exercised through the harmonic toolchain")
        channel = _parse_channel(sec)
        n_rx = sec.bounded("n_rx", 1, 1, kind=int)
        if scheme.model == "subcarrier" and n_rx != 1:
            raise ConfigError(f"n_rx must be 1 for subcarrier schemes, got {n_rx}")
        if channel.model == "awgn" and scheme.model not in ("vector", "subcarrier"):
            raise ConfigError("awgn channel supports only single-stream schemes")
        if channel.model == "awgn" and getattr(scheme, "n_tx", 1) != 1:
            raise ConfigError("awgn channel cannot separate transmit antennas; use fading")
        if channel.model == "rician" and scheme.model == "state":
            raise ConfigError("channel-state schemes define their own per-state fading draws; "
                              "use the rayleigh model")
        trial_sec = sec.section("trials")
        trials = TrialPolicy(
            trial_sec.bounded("max_trials", 1, DEFAULT_MAX_TRIALS, kind=int),
            trial_sec.bounded("min_errors", 1, DEFAULT_MIN_ERRORS, kind=int),
            trial_sec.bounded("batch_size", 1, DEFAULT_BATCH_SIZE, kind=int, high=MAX_BATCH_SIZE))
        trial_sec.finish()
        dim, count = _codeword_length(scheme), 1 << scheme.bits_per_interval
        _check_bytes("scheme", 16 * dim * count,
                     f"a codebook of {count} codewords of length {dim}")
        batch = min(trials.batch_size, trials.max_trials)
        _check_bytes("n_rx", _draw_bytes(trials, n_rx, scheme),
                     f"one batch's channel draw ({batch} x {n_rx} x {dim})")
        snr_db = _snr_grid(sec)
        return cls(dict(scheme_cfg), channel, n_rx, snr_db, trials, seed, sec.take("output", kind=str))


@dataclass(frozen=True)
class CapacityConfig:
    """Ergodic Rayleigh capacity per antenna pair and SNR (``run_capacity``)."""
    experiment: ClassVar[str] = "capacity"
    antennas: tuple
    snr_db: tuple
    capacity_trials: int
    seed: int
    output: str | None

    @classmethod
    def parse(cls, sec: _Section, seed: int) -> "CapacityConfig":
        antennas = sec.take("antennas", required=True, kind=list)
        if not antennas or not all(isinstance(pair, list) and len(pair) == 2 and all(
                type(v) is int and v >= 1 for v in pair) for pair in antennas):
            raise ConfigError("antennas must be a non-empty list of [n_tx, n_rx] int pairs, "
                              "each count >= 1")
        # parsed as in a BER config, but the sweep draws Rayleigh channels only
        if _parse_channel(sec).model != "rayleigh":
            raise ConfigError("channel.model: capacity sweeps support only the rayleigh model")
        snr_db = _snr_grid(sec)
        trials = sec.bounded("trials", 2, 50_000, kind=int)
        _check_bytes("trials", 8 * len(snr_db) * trials,
                     f"one capacity value per SNR point and trial ({len(snr_db)} x {trials})")
        for n_tx, n_rx in antennas:
            _check_bytes("antennas",
                         detection.capacity_batch_bytes(n_tx, n_rx, trials, len(snr_db)),
                         f"one batch of {n_tx}x{n_rx} channels")
        return cls(tuple(map(tuple, antennas)), snr_db, trials, seed, sec.take("output", kind=str))


@dataclass(frozen=True)
class PatternConfig:
    """Steered far-field patterns of one aperture (``run_pattern``)."""
    experiment: ClassVar[str] = "pattern"
    geometry: dict
    scan_angles_deg: tuple
    period_cells: int
    grid_step_deg: tuple
    element_exponent: float
    couple_atom_loss: bool
    quantize_bits: int | None
    output_dir: str
    seed: int

    @classmethod
    def parse(cls, sec: _Section, seed: int) -> "PatternConfig":
        geo_sec = _Section(sec.take("geometry", required=True), "geometry")
        rows, cols = (geo_sec.bounded(k, 1, required=True, kind=int) for k in ("rows", "cols"))
        geometry = {"rows": rows, "cols": cols}
        for key, to_si in (("dx_mm", 1e-3), ("dy_mm", 1e-3), ("fc_ghz", 1e9)):
            geometry[key] = float(geo_sec.bounded(key, 0, required=True, strict=True))
            # in metres a subnormal spacing underflows to 0; in Hz a carrier
            # past 1.8e299 GHz overflows to inf, a wavelength of 0
            if not 0 < geometry[key] * to_si < math.inf:
                raise ConfigError(f"geometry.{key} = {geometry[key]!r} is out of range in SI units")
        geo_sec.finish()
        _check_bytes("geometry", aperture.element_bytes(rows, cols),
                     f"the per-angle element arrays of a {rows}x{cols} aperture")
        # SteeringSpec takes a non-negative phase range, so only 0..90 deg steer
        angles = sec.bounded("scan_angles_deg", 0.0, required=True, high=90.0, listed=True)
        grid = sec.section("grid")
        # at least two elevations in 0..90 deg and two azimuths in 0..360 deg
        theta_step = float(grid.bounded("theta_step_deg", 0, 1.0, strict=True, high=90))
        phi_step = float(grid.bounded("phi_step_deg", 0, 1.0, strict=True,
                                      high=360, strict_high=True))
        grid.finish()
        directions = aperture.direction_count(theta_step, phi_step)
        _check_bytes("grid", aperture.sweep_bytes(rows, cols, directions),
                     f"the fields of {rows + cols} scan angles and the text of "
                     f"{directions} directions on a {rows}x{cols} aperture")
        quantize_bits = sec.bounded("quantize_bits", 1, kind=int, high=MAX_QUANTIZE_BITS)
        period_cells = sec.bounded("period_cells", 1, 4, kind=int)
        geom = _aperture_geometry(geometry)
        for a in angles:
            phase_range = _steering_range(geom, float(a), period_cells)
            if phase_range > 2.0 * np.pi + 1e-12:
                raise ConfigError(f"scan_angles_deg: scan angle {float(a)} deg needs "
                                  f"{np.rad2deg(phase_range):.1f} deg of range over "
                                  f"{period_cells} cells; reduce period_cells")
        return cls(geometry, tuple(float(a) for a in angles), period_cells, (theta_step, phi_step),
                   float(sec.bounded("element_exponent", 0, 0.0)),
                   sec.take("couple_atom_loss", False, kind=bool), quantize_bits,
                   sec.take("output_dir", "patterns", kind=str), seed)


@dataclass(frozen=True)
class HarmonicsConfig:
    """Harmonic spectra of time-coded atoms (``run_harmonics``)."""
    experiment: ClassVar[str] = "harmonics"
    num_steps: int
    single_harmonics: tuple
    shift_fractions: tuple
    multi_targets: tuple
    harmonic_range: int | None    # None reports |m| <= num_steps
    output_dir: str
    seed: int

    @classmethod
    def parse(cls, sec: _Section, seed: int) -> "HarmonicsConfig":
        num_steps = sec.bounded("num_steps", 2, 16, kind=int)
        harmonic_range = sec.bounded("harmonic_range", 0, kind=int)
        m_range, key = ((num_steps, "num_steps") if harmonic_range is None
                        else (harmonic_range, "harmonic_range"))
        # checked before the lists, so num_steps is small enough for float arithmetic
        _check_bytes(key, spacetime.spectrum_bytes(num_steps, m_range),
                     f"one spectrum of {2 * m_range + 1} harmonics over {num_steps} steps")
        # the synthesized harmonic aliases from |m| = L/2 on
        top = (num_steps - 1) // 2
        singles = sec.bounded("single_harmonics", -top, [], kind=int, high=top, listed=True)
        shifts = sec.bounded("shift_fractions", None, [], listed=True)
        if shifts and num_steps < 3:
            raise ConfigError(f"shift_fractions: a shift delays the ramp of harmonic 1, which "
                              f"aliases for num_steps = {num_steps}; need num_steps >= 3")
        for f in shifts:
            ticks = f * num_steps  # a shift is a whole number of the L steps
            if not _is_number(ticks) or abs(ticks - round(ticks)) > 1e-9:
                raise ConfigError(f"shift_fractions: {f!r} is not an integer number of steps "
                                  f"for num_steps = {num_steps}")
        targets = []
        for group in sec.take("multi_targets", [], kind=list):
            if not isinstance(group, list):
                raise ConfigError(f"multi_targets groups must be lists, got {group!r}")
            one = []
            for entry in group:
                w = entry[1] if isinstance(entry, list) and len(entry) == 2 else None
                parts = w if isinstance(w, list) and len(w) == 2 else [w]
                if not all(_is_number(v) for v in parts):
                    raise ConfigError("multi_targets entries must be [m, weight] pairs with a "
                                      f"number or [re, im] weight, got {entry!r}")
                if type(entry[0]) is not int or abs(entry[0]) > top:
                    raise ConfigError(f"multi_targets harmonics must be int >= {-top} and "
                                      f"<= {top}, got {entry[0]!r}")
                one.append((entry[0], complex(*parts)))
            if len({m for m, _ in one}) != len(one):
                raise ConfigError(f"multi_targets group repeats a harmonic: {group!r}")
            if sum(abs(w) ** 2 for _, w in one) > 1.0 + 1e-12:
                raise ConfigError(f"multi_targets group asks for more than unit power: {group!r}")
            targets.append(tuple(one))
        return cls(num_steps, tuple(singles), tuple(float(f) for f in shifts), tuple(targets),
                   harmonic_range, sec.take("output_dir", "harmonics", kind=str), seed)


@dataclass(frozen=True)
class CodebookConfig:
    """A scheme's whole codeword table (``codebook_csv``)."""
    experiment: ClassVar[str] = "codebook"
    scheme: dict
    seed: int
    output: str | None

    _check_scheme = staticmethod(_parse_scheme)  # the whole codebook must fit

    @classmethod
    def parse(cls, sec: _Section, seed: int) -> "CodebookConfig":
        scheme = sec.take("scheme", required=True)
        cls._check_scheme(scheme)
        return cls(dict(scheme), seed, sec.take("output", kind=str))


@dataclass(frozen=True)
class RateConfig(CodebookConfig):
    """A scheme's throughput (``im_schemes.rate_of``)."""
    experiment: ClassVar[str] = "rate"
    _check_scheme = staticmethod(im_schemes.rate_of)  # a formula: no codebook is built


# experiment name -> config type; parse_config dispatches on the name
EXPERIMENTS = {kind.experiment: kind for kind in (BerConfig, CapacityConfig, PatternConfig,
                                                  HarmonicsConfig, CodebookConfig, RateConfig)}
ExperimentConfig = BerConfig | CapacityConfig | PatternConfig | HarmonicsConfig | CodebookConfig


def parse_config(source) -> ExperimentConfig:
    """Load and strictly validate an experiment file (or pre-parsed dict).

    Infeasible scheme parameters surface here, before any trial runs;
    unknown keys are rejected with their full dotted path.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        # ValueError covers JSONDecodeError, text that is not UTF-8 and integers
        # past int's digit limit; RecursionError, arrays nested too deep
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    else:
        raw = source
    sec = _Section(raw, "")
    experiment = sec.take("experiment", required=True, kind=str)
    seed = sec.bounded("seed", 0, 1, kind=int)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be {'/'.join(EXPERIMENTS)}, got {experiment!r}")
    config = EXPERIMENTS[experiment].parse(sec, seed)
    sec.finish()
    return config


# --------------------------------------------------------------------------
# BER engine
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    trials: int
    bit_errors: int
    ber: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class BerCurve:
    scheme: str
    bits_per_trial: int
    points: tuple

    def to_csv(self, path) -> None:
        write_csv(path, [astuple(p) for p in self.points],
                  ("%.6f", "%d", "%d", "%.10e", "%.10e", "%.10e"),
                  header="snr_db,trials,bit_errors,ber,ci_low,ci_high")


class _BerModel:
    """Precomputed transmit codebook plus one vectorized batch simulator.

    Every transmit model has one of two shapes.  Dense models send the
    codeword X (dim x slots) as y = amp H X + n with H (n_rx x dim): spatial
    and quadrature SM (slots = 1), space-time shift keying (n_slots slots)
    and channel-state MBM (one-hot X over the states, H the per-state
    channels).  The diagonal model sends y = amp diag(h) x + n with one
    fading coefficient per subcarrier.  The shape fixes the per-trial shapes
    of the channel and noise, how one block of trials propagates
    (``_propagate``) and the detector.
    """

    def __init__(self, scheme, channel: ChannelSpec, n_rx: int):
        self.scheme = scheme
        self.channel = channel
        self.n_rx = n_rx
        slots = scheme.n_slots
        self.diagonal = scheme.model == "subcarrier"
        self.table = detection.MetricTable(scheme.codebook().vectors, slots, self.diagonal)
        self.x = self.table.x                                   # (dim * slots, C)
        self.count = self.x.shape[1]
        xt = self.table.codewords                               # one codeword per row
        if self.diagonal:
            self.h_shape = self.noise_shape = (self.x.shape[0],)
            self._propagate = lambda h, w, amp: amp * h * xt[w]
        else:
            mats = xt.reshape(self.count, -1, slots)            # (C, dim, slots)
            self.h_shape, self.noise_shape = (n_rx, mats.shape[1]), (n_rx, slots)
            self._propagate = lambda h, w, amp: amp * np.einsum("bri,bit->brt", h, mats[w])
        if channel.model == "rician":
            self.los = (np.ones(self.h_shape, dtype=complex) if self.diagonal
                        else los_matrix(n_rx, self.h_shape[1], channel.los_structure))

    def _draw_channel(self, rng, shape):
        if self.channel.model == "awgn":
            return np.ones(shape, dtype=complex)
        h = complex_normal(rng, shape)
        k = self.channel.k_factor
        if self.channel.model == "rician" and k > 0:
            # channel.rician(k, los, h) in place; K = 0 leaves h as drawn
            h *= np.sqrt(1.0 / (k + 1.0))
            h += np.sqrt(k / (k + 1.0)) * self.los
        return h

    def simulate(self, rng, batch: int, snr_linear: float) -> int:
        """Bit errors over one batch of independent trials.

        Words, channels and the real parts of the noise are drawn for the
        whole batch, in that order.  Propagation and detection then run one
        detector chunk of trials at a time, so their temporaries stay
        cache-sized; each chunk draws the imaginary parts of its noise and
        counts its bit errors.  The chunks continue one stream, so the noise
        is that of one whole-batch complex_normal draw.
        """
        words = rng.integers(0, self.count, batch)
        h = self._draw_channel(rng, (batch, *self.h_shape))
        scale = 1 / np.sqrt(2.0)
        noise_real = rng.standard_normal((batch, *self.noise_shape))
        noise_real *= scale
        amp = np.sqrt(snr_linear)
        detect = self._detect_subcarrier if self.diagonal else self._detect_vector
        errors = 0
        edges = detection.chunk_edges(batch, max(self.table.rows.shape))
        for lo, hi in zip(edges, edges[1:]):
            y = self._propagate(h[lo:hi], words[lo:hi], amp)
            y.real += noise_real[lo:hi]
            y.imag += rng.standard_normal(y.shape) * scale
            errors += int(np.bitwise_count(words[lo:hi] ^ detect(y, h[lo:hi], amp)).sum())
        return errors

    def _detect_vector(self, y, h, amp):
        """ML decisions of the dense model y = amp H X + n."""
        return detection.ml_detect(*detection.matched_filter(y, h, self.table), self.table, amp * amp)

    # no longer called: the benchmark tracer still wraps these names and
    # reports each one it cannot find
    _detect_matrix = _detect_state = _detect_vector

    def _detect_subcarrier(self, y, h, amp):
        """ML decisions of the diagonal model y = amp diag(h) x + n."""
        return detection.ml_detect(np.conj(y) * h, np.abs(h) ** 2, self.table, amp * amp)


def run_ber(config: ExperimentConfig, threads: int = 1) -> BerCurve:
    """BER curve over the configured SNR grid.

    Each trial maps a fresh uniform codeword, sends it through an
    independent channel draw plus AWGN, detects with the exact ML detector,
    and counts errored bits (index and symbol bits alike).

    One pool of ``threads`` workers serves the whole curve, with at most
    ``threads`` batches in flight; a ConfigError naming ``--threads`` refuses
    a run whose batches in flight would draw more than ``MAX_RUN_BYTES``
    before any worker starts.  Each point folds its batches in index order
    and stops at the first one that meets its stop rule.  A freed
    worker takes certain work first: the next batch of a live point whose
    started batches are all folded, which is sure to be folded.  Only when
    no point has certain work does it speculate, on the batch nearest to
    its point's fold, never more than ``threads - 1`` batches past it; a
    speculative batch past the stop is computed but never counted.  Which
    batches are computed depends on timing; which are folded, and so every
    result, does not.
    """
    scheme = im_schemes.build_scheme(config.scheme)
    policy = config.trials
    width = max(1, threads)
    n_batches = -(-policy.max_trials // policy.batch_size)   # exact for any int
    in_flight = min(width, n_batches * len(config.snr_db))
    _check_bytes("--threads", in_flight * _draw_bytes(policy, config.n_rx, scheme),
                 f"{in_flight} batches' channel draws in flight")
    model = _BerModel(scheme, config.channel, config.n_rx)
    bits = scheme.bits_per_interval
    # one scalar power per point: the vectorised power rounds differently
    snrs = [db_to_linear(snr_db) for snr_db in config.snr_db]
    trials = [0] * len(snrs)
    errors = [0] * len(snrs)

    def batch_size(b):
        return min(policy.batch_size, policy.max_trials - b * policy.batch_size)

    def run_batch(p, b):
        return model.simulate(stream_rng(config.seed, p, b), batch_size(b), snrs[p])

    started = [0] * len(snrs)      # batches submitted per point
    folded = [0] * len(snrs)       # batches folded per point
    live = [True] * len(snrs)      # the point has not met its stop rule
    finished = {}                  # (point, batch) -> errors, not yet folded
    running = {}                   # future -> (point, batch)
    pool = ThreadPoolExecutor(max_workers=width)
    try:
        while True:
            while len(running) < width:
                # a batch's depth is how far past its point's fold it lies:
                # depth 0 is certain to be folded, so it always goes first
                ready = [(started[p] - folded[p], p) for p in range(len(snrs)) if live[p]
                         and started[p] < n_batches and started[p] - folded[p] < width]
                if not ready:
                    break
                p = min(ready)[1]
                running[pool.submit(run_batch, p, started[p])] = p, started[p]
                started[p] += 1
            if not running:
                break
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                p, b = running.pop(future)
                finished[p, b] = future.result()  # a failed batch raises here
                while live[p] and (p, folded[p]) in finished:
                    errors[p] += finished.pop((p, folded[p]))
                    trials[p] += batch_size(folded[p])
                    folded[p] += 1
                    live[p] = errors[p] < policy.min_errors and folded[p] < n_batches
    finally:
        pool.shutdown(cancel_futures=True)
    points = tuple(_ber_point(*point, bits) for point in zip(config.snr_db, trials, errors))
    return BerCurve(config.scheme.get("type", "?"), bits, points)


def _ber_point(snr_db: float, trials: int, errors: int, bits_per_trial: int) -> BerPoint:
    n_bits = trials * bits_per_trial
    ber = errors / n_bits
    half = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / n_bits)
    return BerPoint(snr_db, trials, errors, ber, max(ber - half, 0.0), min(ber + half, 1.0))


# --------------------------------------------------------------------------
# capacity / pattern / harmonics runners
# --------------------------------------------------------------------------

def run_capacity(config: ExperimentConfig):
    """Ergodic capacity for every (n_tx, n_rx) pair over the SNR grid, one
    channel draw per pair for the whole grid."""
    # one scalar power per point: the vectorised power rounds differently
    snrs = [db_to_linear(snr_db) for snr_db in config.snr_db]
    rows = []
    for n_tx, n_rx in config.antennas:
        estimates = detection.ergodic_capacity(
            n_tx, n_rx, snrs, config.capacity_trials, config.seed
        )
        rows.extend((n_tx, n_rx, snr_db, est.mean, est.std_err, est.trials)
                    for snr_db, est in zip(config.snr_db, estimates))
    return rows


def capacity_csv(rows, path) -> None:
    write_csv(path, rows, ("%d", "%d", "%.6f", "%.10e", "%.10e", "%d"),
              header="nt,nr,snr_db,capacity_bit_s_hz,std_err,trials")


def _atom_loss_amplitudes(phases: np.ndarray, table, freq_ghz: float) -> np.ndarray:
    """Per-element amplitudes of the nearest realizable tuning states.

    For each commanded phase, picks the capacitance whose tabulated phase is
    closest (wrapped distance) and returns that state's amplitude, modeling
    the finite tuning range of the physical cell.
    """
    states = [
        table.lookup(freq_ghz, metaatom.DiodeState(float(c), ATOM_RESISTANCE_OHM))
        for c in table.c_pf
    ]
    # a running argmin over the states (the first state wins ties, as in
    # np.argmin) keeps the work arrays to a few per element instead of one
    # per element and state
    best = np.full(phases.shape, np.inf)
    amplitude = np.full(phases.shape, states[0].amplitude)
    for state in states:
        distance = np.abs(np.angle(np.exp(1j * (phases - state.phase))))
        closer = distance < best
        best[closer] = distance[closer]
        amplitude[closer] = state.amplitude
    return amplitude


def _aperture_geometry(geo: dict) -> aperture.ApertureGeometry:
    return aperture.ApertureGeometry(
        geo["rows"], geo["cols"], geo["dx_mm"] * 1e-3, geo["dy_mm"] * 1e-3,
        geo["fc_ghz"] * 1e9,
    )


def _steering_range(geom, angle_deg: float, period_cells: int) -> float:
    """Phase range (rad) of the sawtooth over ``period_cells`` cells that
    steers the beam to ``angle_deg``: the gradient k dx sin(angle) per cell."""
    return geom.wavenumber * geom.dx * np.sin(np.deg2rad(angle_deg)) * period_cells


def _steered_coding(geom, angle_deg: float, config: PatternConfig, table):
    """(predicted scan angle in rad, aperture coding) that steers to ``angle_deg``."""
    phase_range = _steering_range(geom, angle_deg, config.period_cells)
    spec = aperture.SteeringSpec(config.period_cells, phase_range, geom.dx)
    # steering_phase is wrapped already; PhaseCoding's wrap leaves it as it is
    steer = aperture.steering_phase(geom, spec)
    phase = np.broadcast_to(steer[:, None], (geom.rows, geom.cols))
    if config.quantize_bits is not None:
        phase = aperture.quantize_phase(phase, config.quantize_bits)
    amplitude = (np.ones(phase.shape) if table is None
                 else _atom_loss_amplitudes(phase, table, config.geometry["fc_ghz"]))
    return aperture.scan_angle(spec, geom.wavelength), aperture.PhaseCoding(amplitude, phase)


def run_pattern(config: ExperimentConfig, out_base: Path):
    """Steered-pattern exports for each commanded scan angle.

    Writes per-angle coding, far-field, and UV CSVs plus a summary with the
    scan-equation prediction, realized peak, and peak directivity.  Every
    scan angle is reachable: parse_config checks its phase range.
    """
    geom = _aperture_geometry(config.geometry)
    theta, phi = aperture.direction_grid(*config.grid_step_deg)
    # the grid-column text every scan angle shares
    text = aperture.GridText(theta, phi)
    table = metaatom.default_response_table() if config.couple_atom_loss else None
    out_dir = out_base / config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    # one radiation_pattern call per group of angles shares each block of
    # kernels; a group's fields fit sweep_bytes and its element arrays the
    # run budget
    group = min(geom.rows + geom.cols,
                MAX_RUN_BYTES // aperture.element_bytes(geom.rows, geom.cols))

    summary = []
    written = []
    angles = config.scan_angles_deg
    for start in range(0, len(angles), group):
        # every coding is built before the products (see aperture._kernel)
        steered = [(a, *_steered_coding(geom, a, config, table))
                   for a in angles[start:start + group]]
        fields = aperture.radiation_pattern([coding for _, _, coding in steered], geom,
                                            theta, phi, config.element_exponent).field
        for (angle_deg, predicted, coding), field in zip(steered, fields):
            grid = aperture.FarFieldGrid(theta, phi, field)
            peak_theta, peak_phi = grid.peak_direction()
            peak_dbi = aperture.peak_directivity(grid)[1]
            norm = aperture.directivity_normalization(grid)

            tag = f"scan{angle_deg:+06.1f}".replace(".", "p")
            coding_path = out_dir / f"coding_{tag}.csv"
            field_path = out_dir / f"farfield_{tag}.csv"
            uv_path = out_dir / f"farfield_uv_{tag}.csv"
            aperture.coding_to_csv(coding, coding_path)
            grid.to_csv(field_path, text)
            grid.to_uv_csv(uv_path, text)
            written += [coding_path, field_path, uv_path]
            summary.append((angle_deg, np.rad2deg(predicted), np.rad2deg(peak_theta),
                            np.rad2deg(peak_phi), peak_dbi, norm))
    summary_path = out_dir / "summary.csv"
    write_csv(summary_path, summary, ("%.3f", "%.6f", "%.6f", "%.6f", "%.6f", "%.8f"),
              header="angle_cmd_deg,angle_pred_deg,peak_theta_deg,peak_phi_deg,"
                     "peak_directivity_dbi,normalization")
    return written + [summary_path]


def run_harmonics(config: ExperimentConfig, out_base: Path):
    """Harmonic-synthesis exports: single tones, phase shifts, multi-tone."""
    num = config.num_steps
    m_range = config.harmonic_range if config.harmonic_range is not None else num
    harmonics = range(-m_range, m_range + 1)
    out_dir = out_base / config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary = ["kind,param,dominant_m,dominant_mag,residual"]

    for m in config.single_harmonics:
        steps = spacetime.synthesize_single_harmonic(m, num)
        spectrum = spacetime.harmonic_coefficients(steps, harmonics)
        seq_path = out_dir / f"sequence_m{m:+d}.csv"
        spec_path = out_dir / f"spectrum_m{m:+d}.csv"
        spacetime.sequence_to_csv(steps, seq_path)
        spectrum.to_csv(spec_path)
        written += [seq_path, spec_path]
        dom = spectrum.dominant()
        summary.append(f"single,{m},{dom},{spectrum.magnitude(dom):.8f},")

    if config.shift_fractions:
        base = spacetime.synthesize_single_harmonic(1, num)
        for frac in config.shift_fractions:
            # parse_config checked that frac * num is a whole number of steps
            shifted = spacetime.phase_shift_harmonic(base, round(frac * num) % num)
            spectrum = spacetime.harmonic_coefficients(shifted, harmonics)
            spec_path = out_dir / f"spectrum_shift{frac:.3f}.csv"
            spectrum.to_csv(spec_path)
            written.append(spec_path)
            summary.append(
                f"shift,{frac},{spectrum.dominant()},"
                f"{spectrum.magnitude(spectrum.dominant()):.8f},"
            )

    for i, targets in enumerate(config.multi_targets):
        result = spacetime.synthesize_multi_harmonic(list(targets), num, seed=config.seed)
        spectrum = spacetime.harmonic_coefficients(result.steps, harmonics)
        seq_path = out_dir / f"sequence_multi{i}.csv"
        spec_path = out_dir / f"spectrum_multi{i}.csv"
        spacetime.sequence_to_csv(result.steps, seq_path)
        spectrum.to_csv(spec_path)
        written += [seq_path, spec_path]
        dom = spectrum.dominant()
        summary.append(f"multi,{i},{dom},{spectrum.magnitude(dom):.8f},{result.residual:.8f}")

    summary_path = out_dir / "summary.csv"
    summary_path.write_text("\n".join(summary) + "\n")
    return written + [summary_path]


def codebook_csv(scheme_config: dict, path) -> None:
    scheme = im_schemes.build_scheme(scheme_config)
    rows = im_schemes.codebook_rows(scheme)
    lines = ["bits,indices,symbols"]
    lines += [f"{bits},{indices},{symbols}" for bits, indices, symbols in rows]
    Path(path).write_text("\n".join(lines) + "\n")
