"""Config-driven Monte Carlo experiments with deterministic parallelism.

Trials are simulated in fixed-size batches; batch b of SNR point p draws
its generator from (seed, p, b) only, and the early-stop rule is applied
to batches folded in index order.  Which batches count toward an estimate
is therefore a pure function of the config, so any thread count produces
byte-identical result files.
"""

import json
import math
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import aperture, detection, im_schemes, metaatom, spacetime
from .channel import complex_normal, los_matrix, stream_rng
from .errors import ConfigError
from .util import db_to_linear, write_csv

DEFAULT_MAX_TRIALS = 10_000_000
DEFAULT_MIN_ERRORS = 200
DEFAULT_BATCH_SIZE = 65_536
# 2**52 levels already space phases in [0, 2 pi) at about one double ulp
MAX_QUANTIZE_BITS = 52
# bytes one run may hold in any of its largest arrays, estimated from the
# config at parse time: a pattern sweep's kernels and text, one angle's
# element arrays, a BER codebook or batch draw, a capacity batch or values
MAX_RUN_BYTES = 1 << 29
MAX_PATTERN_SWEEP_BYTES = MAX_RUN_BYTES
# the BER engine and the codebook export hold every codeword, and the
# trial draws of one batch are not chunked
MAX_CODEWORDS = 1 << 16
MAX_BATCH_SIZE = 1 << 20

# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialPolicy:
    max_trials: int = DEFAULT_MAX_TRIALS
    min_errors: int = DEFAULT_MIN_ERRORS
    batch_size: int = DEFAULT_BATCH_SIZE


@dataclass(frozen=True)
class ChannelSpec:
    model: str                    # "awgn" | "rayleigh" | "rician"
    k_factor: float = 0.0
    los_structure: str = "dft"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 1
    output: str | None = None
    scheme: dict | None = None
    channel: ChannelSpec | None = None
    n_rx: int = 1
    snr_db: tuple = ()
    trials: TrialPolicy = field(default_factory=TrialPolicy)
    antennas: tuple = ()
    capacity_trials: int = 50_000
    geometry: dict | None = None
    scan_angles_deg: tuple = ()
    period_cells: int = 4
    grid_step_deg: tuple = (1.0, 1.0)
    element_exponent: float = 0.0
    couple_atom_loss: bool = False
    quantize_bits: int | None = None
    num_steps: int = 16
    single_harmonics: tuple = ()
    shift_fractions: tuple = ()
    multi_targets: tuple = ()
    harmonic_range: int | None = None
    output_dir: str | None = None


class _Section:
    """Pops keys from one config mapping, rejecting leftovers with paths."""

    def __init__(self, data, path):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        self._data = dict(data)
        self._path = path

    def _name(self, key):
        return f"{self._path}.{key}" if self._path else key

    def take(self, key, default=None, required=False, kind=None):
        if key not in self._data:
            if required:
                raise ConfigError(f"missing required key: {self._name(key)}")
            return default
        value = self._data.pop(key)
        names = kind if isinstance(kind, tuple) else (kind,)
        # exact types: JSON true/false would pass isinstance(value, int)
        if kind is not None and type(value) not in names:
            raise ConfigError(
                f"{self._name(key)} must be {'/'.join(k.__name__ for k in names)}"
            )
        return value

    def bounded(self, key, low, default=None, required=False, kind=(int, float),
                strict=False, high=None, strict_high=False):
        """take() for a finite number >= low (> low when ``strict``) and, given
        ``high``, <= high (< high when ``strict_high``)."""
        value = self.take(key, default, required, kind)
        if value is None:
            return value
        above = value > low if strict else value >= low
        below = high is None or (value < high if strict_high else value <= high)
        if not (math.isfinite(value) and above and below):
            limits = f"{'>' if strict else '>='} {low}"
            if high is not None:
                limits += f" and {'<' if strict_high else '<='} {high}"
            raise ConfigError(f"{self._name(key)} must be {limits}, got {value!r}")
        return value

    def finish(self):
        if self._data:
            extras = ", ".join(self._name(k) for k in sorted(self._data))
            raise ConfigError(f"unknown key(s): {extras}")


def _parse_trials(raw) -> TrialPolicy:
    if raw is None:
        return TrialPolicy()
    sec = _Section(raw, "trials")
    policy = TrialPolicy(
        max_trials=int(sec.take("max_trials", DEFAULT_MAX_TRIALS, kind=int)),
        min_errors=int(sec.take("min_errors", DEFAULT_MIN_ERRORS, kind=int)),
        batch_size=int(sec.take("batch_size", DEFAULT_BATCH_SIZE, kind=int)),
    )
    sec.finish()
    if policy.max_trials < 1 or policy.min_errors < 1 or policy.batch_size < 1:
        raise ConfigError("trials.* values must be >= 1")
    if policy.batch_size > MAX_BATCH_SIZE:
        raise ConfigError(f"trials.batch_size must be <= {MAX_BATCH_SIZE}, "
                          f"got {policy.batch_size}")
    return policy


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
    if scheme.model == "subcarrier":
        return scheme.block_size
    if scheme.model == "state":
        return scheme.num_states
    return scheme.n_tx * getattr(scheme, "n_slots", 1)


def _parse_channel(raw) -> ChannelSpec:
    sec = _Section(raw if raw is not None else {"model": "rayleigh"}, "channel")
    model = sec.take("model", required=True, kind=str)
    if model not in ("awgn", "rayleigh", "rician"):
        raise ConfigError(f"channel.model must be awgn/rayleigh/rician, got {model!r}")
    k_factor = 0.0
    los_structure = "dft"
    if model == "rician":
        k_factor = float(sec.take("K", required=True, kind=(int, float)))
        if not math.isfinite(k_factor) or k_factor < 0:
            raise ConfigError(f"channel.K must be a finite number >= 0, got {k_factor}")
        los_raw = sec.take("los")
        if los_raw is not None:
            los_sec = _Section(los_raw, "channel.los")
            los_structure = los_sec.take("structure", "dft", kind=str)
            los_sec.finish()
            if los_structure not in ("dft", "ones"):
                raise ConfigError("channel.los.structure must be 'dft' or 'ones'")
    sec.finish()
    return ChannelSpec(model, k_factor, los_structure)


def _is_number(value) -> bool:
    """A finite JSON number; true/false would pass isinstance(value, int)."""
    return type(value) in (int, float) and math.isfinite(value)


def _parse_list(raw, key, non_empty=False) -> list:
    if not isinstance(raw, list) or (non_empty and not raw):
        raise ConfigError(f"{key} must be a {'non-empty ' if non_empty else ''}list")
    return raw


def _parse_snr_grid(raw) -> tuple:
    values = []
    for v in _parse_list(raw, "snr_db", non_empty=True):
        if not _is_number(v):
            raise ConfigError(f"snr_db entries must be finite numbers, got {v!r}")
        values.append(float(v))
    return tuple(values)


def _parse_harmonic_targets(sec: _Section, num_steps: int) -> tuple:
    """single_harmonics, shift_fractions and multi_targets of a harmonics run."""
    def harmonic(m, key):
        # the synthesized harmonic aliases from |m| = L/2 on
        if type(m) is not int or abs(m) >= num_steps / 2:
            raise ConfigError(f"{key}: harmonic {m!r} must be an integer with "
                              f"|m| < num_steps/2 = {num_steps / 2:g}")
        return m

    singles = [harmonic(m, "single_harmonics")
               for m in _parse_list(sec.take("single_harmonics", []), "single_harmonics")]
    shifts = _parse_list(sec.take("shift_fractions", []), "shift_fractions")
    for f in shifts:
        if not _is_number(f):
            raise ConfigError(f"shift_fractions entries must be finite numbers, got {f!r}")
    targets = []
    for group in _parse_list(sec.take("multi_targets", []), "multi_targets"):
        one = []
        for entry in _parse_list(group, "multi_targets groups"):
            w = entry[1] if isinstance(entry, list) and len(entry) == 2 else None
            parts = w if isinstance(w, list) and len(w) == 2 else [w]
            if not all(_is_number(v) for v in parts):
                raise ConfigError("multi_targets entries must be [m, weight] pairs with a "
                                  f"number or [re, im] weight, got {entry!r}")
            one.append((harmonic(entry[0], "multi_targets"), complex(*parts)))
        if len({m for m, _ in one}) != len(one):
            raise ConfigError(f"multi_targets group repeats a harmonic: {group!r}")
        if sum(abs(w) ** 2 for _, w in one) > 1.0 + 1e-12:
            raise ConfigError(f"multi_targets group asks for more than unit power: {group!r}")
        targets.append(tuple(one))
    return tuple(singles), tuple(float(f) for f in shifts), tuple(targets)


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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    else:
        raw = source
    sec = _Section(raw, "")
    experiment = sec.take("experiment", required=True, kind=str)
    seed = sec.take("seed", 1, kind=int)
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")

    if experiment == "ber":
        scheme_cfg = sec.take("scheme", required=True)
        scheme = _parse_scheme(scheme_cfg)  # validates feasibility
        if scheme.model == "analytic":
            raise ConfigError(
                f"scheme type {scheme_cfg.get('type')!r} has no statistical-channel "
                "transmit model; it is exercised through the harmonic toolchain"
            )
        channel = _parse_channel(sec.take("channel"))
        n_rx = int(sec.take("n_rx", 1, kind=int))
        if n_rx < 1:
            raise ConfigError("n_rx must be >= 1")
        if scheme.model == "subcarrier" and n_rx != 1:
            raise ConfigError(f"n_rx must be 1 for subcarrier schemes, got {n_rx}")
        if channel.model == "awgn" and scheme.model not in ("vector", "subcarrier"):
            raise ConfigError("awgn channel supports only single-stream schemes")
        if channel.model == "awgn" and getattr(scheme, "n_tx", 1) != 1:
            raise ConfigError("awgn channel cannot separate transmit antennas; use fading")
        if channel.model == "rician" and scheme.model == "state":
            raise ConfigError(
                "channel-state schemes define their own per-state fading draws; "
                "use the rayleigh model"
            )
        trials = _parse_trials(sec.take("trials"))
        dim, count = _codeword_length(scheme), 1 << scheme.bits_per_interval
        _check_bytes("scheme", 16 * dim * count,
                     f"a codebook of {count} codewords of length {dim}")
        batch = min(trials.batch_size, trials.max_trials)
        _check_bytes("n_rx", 16 * batch * n_rx * dim,
                     f"one batch's channel draw ({batch} x {n_rx} x {dim})")
        config = ExperimentConfig(
            experiment="ber",
            seed=seed,
            scheme=dict(scheme_cfg),
            channel=channel,
            n_rx=n_rx,
            snr_db=_parse_snr_grid(sec.take("snr_db", required=True)),
            trials=trials,
            output=sec.take("output", kind=str),
        )
    elif experiment == "capacity":
        antennas_raw = sec.take("antennas", required=True)
        if not isinstance(antennas_raw, list) or not antennas_raw:
            raise ConfigError("antennas must be a non-empty list of [n_tx, n_rx] pairs")
        antennas = []
        for pair in antennas_raw:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(type(v) is int and v >= 1 for v in pair)):
                raise ConfigError(f"antennas entries must be [n_tx, n_rx] pairs, got {pair!r}")
            antennas.append((pair[0], pair[1]))
        channel = _parse_channel(sec.take("channel"))
        if channel.model != "rayleigh":
            raise ConfigError("capacity sweeps support only the rayleigh model")
        trials = int(sec.take("trials", 50_000, kind=int))
        if trials < 2:
            raise ConfigError("trials must be >= 2")
        _check_bytes("trials", 8 * trials, f"one capacity value per trial ({trials})")
        for n_tx, n_rx in antennas:
            _check_bytes("antennas", detection.capacity_batch_bytes(n_tx, n_rx, trials),
                         f"one batch of {n_tx}x{n_rx} channels")
        config = ExperimentConfig(
            experiment="capacity",
            seed=seed,
            antennas=tuple(antennas),
            snr_db=_parse_snr_grid(sec.take("snr_db", required=True)),
            capacity_trials=trials,
            channel=channel,
            output=sec.take("output", kind=str),
        )
    elif experiment == "pattern":
        geo_sec = _Section(sec.take("geometry", required=True), "geometry")
        geometry = {
            "rows": geo_sec.bounded("rows", 1, required=True, kind=int),
            "cols": geo_sec.bounded("cols", 1, required=True, kind=int),
            "dx_mm": float(geo_sec.bounded("dx_mm", 0, required=True, strict=True)),
            "dy_mm": float(geo_sec.bounded("dy_mm", 0, required=True, strict=True)),
            "fc_ghz": float(geo_sec.bounded("fc_ghz", 0, required=True, strict=True)),
        }
        geo_sec.finish()
        rows, cols = geometry["rows"], geometry["cols"]
        _check_bytes("geometry", aperture.element_bytes(rows, cols),
                     f"the per-angle element arrays of a {rows}x{cols} aperture")
        angles = _parse_list(sec.take("scan_angles_deg", required=True), "scan_angles_deg",
                             non_empty=True)
        for a in angles:
            # SteeringSpec takes a non-negative phase range, so only 0..90 deg steer
            if not _is_number(a) or not 0.0 <= a <= 90.0:
                raise ConfigError(f"scan_angles_deg entries must be numbers in [0, 90], got {a!r}")
        grid_raw = sec.take("grid")
        theta_step, phi_step = 1.0, 1.0
        if grid_raw is not None:
            grid_sec = _Section(grid_raw, "grid")
            # at least two elevations in 0..90 deg and two azimuths in 0..360 deg
            theta_step = float(grid_sec.bounded("theta_step_deg", 0, 1.0, strict=True,
                                                high=90))
            phi_step = float(grid_sec.bounded("phi_step_deg", 0, 1.0, strict=True,
                                              high=360, strict_high=True))
            grid_sec.finish()
        directions = aperture.direction_count(theta_step, phi_step)
        _check_bytes("grid", aperture.sweep_bytes(rows, cols, directions),
                     f"the shared kernels and text of {directions} directions on a "
                     f"{rows}x{cols} aperture")
        quantize_bits = sec.bounded("quantize_bits", 1, kind=int, high=MAX_QUANTIZE_BITS)
        period_cells = int(sec.bounded("period_cells", 1, 4, kind=int))
        geom = _aperture_geometry(geometry)
        for a in angles:
            phase_range = _steering_range(geom, float(a), period_cells)
            if phase_range > 2.0 * np.pi + 1e-12:
                raise ConfigError(
                    f"scan_angles_deg: scan angle {float(a)} deg needs "
                    f"{np.rad2deg(phase_range):.1f} deg of range over {period_cells} "
                    "cells; reduce period_cells"
                )
        config = ExperimentConfig(
            experiment="pattern",
            seed=seed,
            geometry=geometry,
            scan_angles_deg=tuple(float(a) for a in angles),
            period_cells=period_cells,
            grid_step_deg=(theta_step, phi_step),
            element_exponent=float(sec.bounded("element_exponent", 0, 0.0)),
            couple_atom_loss=bool(sec.take("couple_atom_loss", False, kind=bool)),
            quantize_bits=quantize_bits,
            output_dir=sec.take("output_dir", "patterns", kind=str),
        )
    elif experiment == "harmonics":
        num_steps = sec.bounded("num_steps", 2, 16, kind=int)
        singles, shifts, targets = _parse_harmonic_targets(sec, num_steps)
        config = ExperimentConfig(
            experiment="harmonics",
            seed=seed,
            num_steps=num_steps,
            single_harmonics=singles,
            shift_fractions=shifts,
            multi_targets=targets,
            harmonic_range=sec.bounded("harmonic_range", 0, kind=int),
            output_dir=sec.take("output_dir", "harmonics", kind=str),
        )
    elif experiment in ("codebook", "rate"):
        scheme_cfg = sec.take("scheme", required=True)
        if experiment == "codebook":
            _parse_scheme(scheme_cfg)
        else:
            im_schemes.rate_of(scheme_cfg)  # formula only: no codebook is built
        config = ExperimentConfig(
            experiment=experiment,
            seed=seed,
            scheme=dict(scheme_cfg),
            output=sec.take("output", kind=str),
        )
    else:
        raise ConfigError(
            f"experiment must be ber/capacity/pattern/harmonics/codebook/rate, got {experiment!r}"
        )
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
        slots = getattr(scheme, "n_slots", 1)
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

    One pool of ``threads`` workers serves the whole curve.  Every point
    runs in waves of ``threads`` consecutive batches; a finished wave is
    folded in index order and, unless the point has stopped, its next wave
    is queued behind the other points' work, so waves of different points
    overlap.  Batches past the stop in a wave are computed but never counted.
    """
    scheme = im_schemes.build_scheme(config.scheme)
    model = _BerModel(scheme, config.channel, config.n_rx)
    bits = scheme.bits_per_interval
    policy = config.trials
    n_batches = math.ceil(policy.max_trials / policy.batch_size)
    width = max(1, threads)
    snrs = [db_to_linear(snr_db) for snr_db in config.snr_db]
    trials = [0] * len(snrs)
    errors = [0] * len(snrs)

    def batch_size(b):
        return min(policy.batch_size, policy.max_trials - b * policy.batch_size)

    def run_batch(p, b):
        return model.simulate(stream_rng(config.seed, p, b), batch_size(b), snrs[p])

    pool = ThreadPoolExecutor(max_workers=width)
    try:
        def submit_wave(p, start):
            wave = range(start, min(start + width, n_batches))
            return start, [pool.submit(run_batch, p, b) for b in wave]

        waves = {p: submit_wave(p, 0) for p in range(len(snrs))}
        pending = {f for _, futures in waves.values() for f in futures}
        while pending:
            # finished futures must leave the set, or wait() returns at once
            _, pending = wait(pending, return_when=FIRST_COMPLETED)
            for p, (start, futures) in list(waves.items()):
                if not all(f.done() for f in futures):
                    continue
                del waves[p]
                results = [f.result() for f in futures]  # a failed batch raises here
                for b, result in enumerate(results, start):
                    errors[p] += result
                    trials[p] += batch_size(b)
                    if errors[p] >= policy.min_errors:
                        break
                else:
                    if start + width < n_batches:
                        waves[p] = submit_wave(p, start + width)
                        pending.update(waves[p][1])
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
    """Ergodic capacity for every (n_tx, n_rx) pair over the SNR grid."""
    rows = []
    for n_tx, n_rx in config.antennas:
        for snr_db in config.snr_db:
            est = detection.ergodic_capacity(
                n_tx, n_rx, db_to_linear(snr_db), config.capacity_trials, config.seed
            )
            rows.append((n_tx, n_rx, snr_db, est.mean, est.std_err, est.trials))
    return rows


def capacity_csv(rows, path) -> None:
    write_csv(path, rows, ("%d", "%d", "%.6f", "%.10e", "%.10e", "%d"),
              header="nt,nr,snr_db,capacity_bit_s_hz,std_err,trials")


def _atom_loss_amplitudes(phases: np.ndarray, table, freq_ghz: float,
                          resistance_ohm: float = 0.5) -> np.ndarray:
    """Per-element amplitudes of the nearest realizable tuning states.

    For each commanded phase, picks the capacitance whose tabulated phase is
    closest (wrapped distance) and returns that state's amplitude, modeling
    the finite tuning range of the physical cell.
    """
    states = [
        table.lookup(freq_ghz, metaatom.DiodeState(float(c), resistance_ohm))
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


def run_pattern(config: ExperimentConfig, out_base: Path):
    """Steered-pattern exports for each commanded scan angle.

    Writes per-angle coding, far-field, and UV CSVs plus a summary with the
    scan-equation prediction, realized peak, and peak directivity.  Every
    scan angle is reachable: parse_config checks its phase range.
    """
    geo = config.geometry
    geom = _aperture_geometry(geo)
    theta, phi = aperture.direction_grid(*config.grid_step_deg)
    # what every scan angle shares: the array kernels and the grid-column text
    kernels = aperture.ArrayKernels(geom, theta, phi)
    text = aperture.GridText(theta, phi)
    table = metaatom.default_response_table() if config.couple_atom_loss else None
    out_dir = out_base / config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = []
    written = []
    for angle_deg in config.scan_angles_deg:
        phase_range = _steering_range(geom, angle_deg, config.period_cells)
        spec = aperture.SteeringSpec(config.period_cells, phase_range, geom.dx)
        predicted = aperture.scan_angle(spec, geom.wavelength)
        steer = aperture.steering_phase(geom, spec)
        coding = aperture.compose_phase(
            np.zeros((geom.rows, geom.cols)), steer, np.zeros((geom.rows, geom.cols))
        )
        phase = coding.phase
        if config.quantize_bits is not None:
            phase = aperture.quantize_phase(phase, config.quantize_bits)
        amplitude = coding.amplitude
        if table is not None:
            amplitude = _atom_loss_amplitudes(phase, table, geo["fc_ghz"])
        coding = aperture.PhaseCoding(amplitude, phase)

        grid = aperture.radiation_pattern(coding, geom, theta, phi,
                                          config.element_exponent, kernels=kernels)
        peak_theta, peak_phi = grid.peak_direction()
        peak_lin, peak_dbi = aperture.peak_directivity(grid)
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
            ticks = frac * num
            if abs(ticks - round(ticks)) > 1e-9:
                raise ConfigError(
                    f"shift fraction {frac} is not an integer number of steps for L = {num}"
                )
            shifted = spacetime.phase_shift_harmonic(base, int(round(ticks)) % num)
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
