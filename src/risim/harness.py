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
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Annotated, ClassVar, NamedTuple, TypedDict

import numpy as np

from . import aperture, detection, im_schemes, metaatom, spacetime
from .channel import complex_normal, los_matrix, stream_rng
from .errors import ConfigError, Key, _Section, shown
from .util import db_to_linear, write_csv

# 2**52 levels already space phases in [0, 2 pi) at about one double ulp
MAX_QUANTIZE_BITS = 52
# bytes one run may hold in any of its largest arrays, estimated from the
# config at parse time: a pattern sweep's fields and text, one angle's
# element arrays, a BER codebook or batch draw, a capacity batch or values
MAX_RUN_BYTES = 1 << 29
# the BER engine and the codebook export hold every codeword, and the
# trial draws of one batch are not chunked
MAX_CODEWORDS = 1 << 16
MAX_BATCH_SIZE = 1 << 20
# largest |snr_db|: 10**(snr/10) overflows to inf past about 3082 dB; at
# 1e30 the metric, Gram and noise arithmetic stays far from overflow
MAX_SNR_DB = 300.0
# ints up to 2**53 are exact floats, so a steering range is a finite product
MAX_PERIOD_CELLS = 1 << 53
# series resistance of the varactor states a pattern run's atom loss uses
ATOM_RESISTANCE_OHM = 0.5

# --------------------------------------------------------------------------
# configuration: each key declared once, on the attribute of the config type
# it fills (errors.Key); a type's check() holds the rules tying keys together
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialPolicy:
    max_trials: Annotated[int, Key(1)] = 10_000_000
    min_errors: Annotated[int, Key(1)] = 200
    batch_size: Annotated[int, Key(1, MAX_BATCH_SIZE)] = 65_536


@dataclass(frozen=True)
class ChannelSpec:
    model: Annotated[str, Key(choices=("awgn", "rayleigh", "rician"))]
    # the keys of a rician channel only; any other model refuses them as unknown
    k_factor: Annotated[float, Key(0, json="K", required=True, when=("model", "rician"))] = 0.0
    los_structure: Annotated[str, Key(choices=("dft", "ones"), json="los.structure",
                                      when=("model", "rician"))] = "dft"


_POSITIVE = Annotated[float, Key(0, strict=True)]
Geometry = TypedDict("Geometry", {"rows": Annotated[int, Key(1)], "cols": Annotated[int, Key(1)],
                                  "dx_mm": _POSITIVE, "dy_mm": _POSITIVE, "fc_ghz": _POSITIVE})


class GridSteps(NamedTuple):
    # at least two elevations in 0..90 deg and two azimuths in 0..360 deg
    theta_step_deg: Annotated[float, Key(0, 90, strict=True)] = 1.0
    phi_step_deg: Annotated[float, Key(0, 360, strict=True, strict_high=True)] = 1.0


_SNR_DB = Annotated[tuple[float, ...], Key(-MAX_SNR_DB, MAX_SNR_DB)]


def _parse_scheme(raw) -> im_schemes.Scheme:
    """A scheme whose whole codebook may be built."""
    scheme = im_schemes.build_scheme(raw)
    if 1 << scheme.bits_per_interval > MAX_CODEWORDS:
        raise ConfigError(f"scheme has 2^{scheme.bits_per_interval} codewords; "
                          f"at most {MAX_CODEWORDS} are supported")
    return scheme


def _check_bytes(key: str, need: int, what: str, *values) -> None:
    """Refuse ``need`` bytes over the run budget; ``values`` fill ``what``."""
    if need > MAX_RUN_BYTES:
        what = what.format(*map(shown, values))
        raise ConfigError(f"{key}: {what} would take {shown(need)} bytes, over the budget "
                          f"of {MAX_RUN_BYTES}")


def _codeword_length(scheme) -> int:
    """Entries of one codeword, from the scheme's parameters alone."""
    return scheme.dim * scheme.n_slots


def _draw_bytes(trials: TrialPolicy, n_rx: int, scheme) -> int:
    """Bytes of one batch's channel draw."""
    return 16 * min(trials.batch_size, trials.max_trials) * n_rx * _codeword_length(scheme)


@dataclass(frozen=True, kw_only=True)
class _Experiment:
    seed: Annotated[int, Key(0)] = 1   # every experiment's key besides "experiment"
    # the options of the experiment's risim command besides --config, and its help
    options: ClassVar[tuple[str, ...]] = ("--seed", "--out")
    help: ClassVar[str]

    def run(self, out_base: Path, threads: int = 1) -> list[str]:
        """Run the experiment, writing its files against ``out_base``, and
        return the lines its command prints."""
        raise NotImplementedError


def _check_output(output: str | None) -> None:
    """Refuse an ``output`` that names no file: its last component is "." or
    "..", or it has none ("/"); "" and None mean the default name."""
    if output and output.rstrip("/").rpartition("/")[2] in ("", ".", ".."):
        raise ConfigError(f"output must name a file, got {output!r}")


def _write(out_base: Path, name: str, write) -> list[str]:
    """``write(path)`` of ``name`` against ``out_base`` (an absolute ``name``
    stands alone), whose directory is made first; the line the command prints."""
    path = out_base / name
    path.parent.mkdir(parents=True, exist_ok=True)
    write(path)
    return [f"wrote {path}"]


@dataclass(frozen=True, kw_only=True)
class BerConfig(_Experiment):
    """A BER curve of one scheme over one channel model (``run_ber``)."""
    experiment: ClassVar[str] = "ber"
    options = ("--seed", "--out", "--threads")
    help = "Monte Carlo bit-error-rate sweep."
    scheme: dict
    channel: ChannelSpec = ChannelSpec("rayleigh")
    n_rx: Annotated[int, Key(1)] = 1
    trials: TrialPolicy = TrialPolicy()
    snr_db: _SNR_DB
    output: str | None = None

    def check(self):
        _check_output(self.output)
        scheme = _parse_scheme(self.scheme)  # validates feasibility
        if scheme.model == "analytic":
            raise ConfigError(f"scheme type {self.scheme.get('type')!r} has no statistical-channel "
                              "transmit model; it is exercised through the harmonic toolchain")
        if scheme.model == "subcarrier" and self.n_rx != 1:
            raise ConfigError(f"n_rx must be 1 for subcarrier schemes, got {self.n_rx}")
        model = self.channel.model
        if model == "awgn" and scheme.model not in ("vector", "subcarrier"):
            raise ConfigError("awgn channel supports only single-stream schemes")
        if model == "awgn" and getattr(scheme, "n_tx", 1) != 1:
            raise ConfigError("awgn channel cannot separate transmit antennas; use fading")
        if model == "rician" and scheme.model == "state":
            raise ConfigError("channel-state schemes define their own per-state fading draws; "
                              "use the rayleigh model")
        dim, count = _codeword_length(scheme), 1 << scheme.bits_per_interval
        _check_bytes("scheme", 16 * dim * count, "a codebook of {} codewords of length {}",
                     count, dim)
        batch = min(self.trials.batch_size, self.trials.max_trials)
        _check_bytes("n_rx", _draw_bytes(self.trials, self.n_rx, scheme),
                     "one batch's channel draw ({} x {} x {})", batch, self.n_rx, dim)

    def run(self, out_base, threads=1):
        curve = run_ber(self, threads=threads)   # the directory is made once it is done
        return _write(out_base, self.output or "ber.csv", curve.to_csv)


@dataclass(frozen=True, kw_only=True)
class CapacityConfig(_Experiment):
    """Ergodic Rayleigh capacity per antenna pair and SNR (``run_capacity``)."""
    experiment: ClassVar[str] = "capacity"
    help = "Ergodic capacity sweep over antenna counts and SNR."
    antennas: Annotated[tuple[tuple[int, int], ...], Key(1)]    # [n_tx, n_rx] pairs
    # read as in a BER config, but the sweep draws Rayleigh channels only
    channel: ChannelSpec = ChannelSpec("rayleigh")
    snr_db: _SNR_DB
    capacity_trials: Annotated[int, Key(2, json="trials")] = 50_000
    output: str | None = None

    def check(self):
        _check_output(self.output)
        if self.channel.model != "rayleigh":
            raise ConfigError("channel.model: capacity sweeps support only the rayleigh model")
        points, trials = len(self.snr_db), self.capacity_trials
        _check_bytes("trials", 8 * points * trials,
                     "one capacity value per SNR point and trial ({} x {})", points, trials)
        for n_tx, n_rx in self.antennas:
            _check_bytes("antennas", detection.capacity_batch_bytes(n_tx, n_rx, trials, points),
                         "one batch of {}x{} channels", n_tx, n_rx)

    def run(self, out_base, threads=1):
        rows = run_capacity(self)
        return _write(out_base, self.output or "capacity.csv", lambda p: capacity_csv(rows, p))


_FILE_TAGS = {   # the file tag of each entry of a listed key; runs name their files by it
    "scan_angles_deg": lambda angle: f"scan{angle:+06.1f}".replace(".", "p"),
    "single_harmonics": lambda m: f"m{m:+d}",
    "shift_fractions": lambda frac: f"shift{frac:.3f}",
}


def _distinct_files(key: str, values) -> None:
    first = {}
    for i, tag in enumerate(map(_FILE_TAGS[key], values)):
        if first.setdefault(tag, i) != i:
            raise ConfigError(f"{key}: {values[first[tag]]!r} and {values[i]!r} write {tag} files")


@dataclass(frozen=True, kw_only=True)
class PatternConfig(_Experiment):
    """Steered far-field patterns of one aperture (``run_pattern``)."""
    experiment: ClassVar[str] = "pattern"
    help = "Far-field pattern exports for commanded scan angles."
    geometry: Geometry
    # SteeringSpec takes a non-negative phase range, so only 0..90 deg steer
    scan_angles_deg: Annotated[tuple[float, ...], Key(0.0, 90.0)]
    grid_step_deg: Annotated[GridSteps, Key(json="grid")] = GridSteps()
    quantize_bits: Annotated[int | None, Key(1, MAX_QUANTIZE_BITS)] = None
    period_cells: Annotated[int, Key(1, MAX_PERIOD_CELLS)] = 4
    element_exponent: Annotated[float, Key(0)] = 0.0
    couple_atom_loss: bool = False
    output_dir: str = "patterns"

    def check(self):
        geometry = self.geometry
        for key, to_si in (("dx_mm", 1e-3), ("dy_mm", 1e-3), ("fc_ghz", 1e9)):
            # in metres a subnormal spacing underflows to 0; in Hz a carrier
            # past 1.8e299 GHz overflows to inf, a wavelength of 0
            if not 0 < geometry[key] * to_si < math.inf:
                raise ConfigError(f"geometry.{key} = {geometry[key]!r} is out of range in SI units")
        rows, cols = geometry["rows"], geometry["cols"]
        _check_bytes("geometry", aperture.element_bytes(rows, cols),
                     "the per-angle element arrays of a {}x{} aperture", rows, cols)
        _distinct_files("scan_angles_deg", self.scan_angles_deg)
        directions = aperture.direction_count(*self.grid_step_deg)
        _check_bytes("grid", aperture.sweep_bytes(rows, cols, directions),
                     "the fields of {} scan angles and the text of {} directions on a "
                     "{}x{} aperture", rows + cols, directions, rows, cols)
        geom = _aperture_geometry(geometry)
        if not math.isfinite(geom.wavenumber * geom.dx):   # a steering range would be nan
            raise ConfigError(f"geometry: dx_mm = {geometry['dx_mm']!r} at fc_ghz = "
                              f"{geometry['fc_ghz']!r} puts the phase step k dx past float range")
        for a in self.scan_angles_deg:
            with np.errstate(over="ignore"):   # an inf range is refused as any too large
                phase_range = _steering_range(geom, a, self.period_cells)
            if not phase_range <= 2.0 * np.pi + 1e-12:
                raise ConfigError(f"scan_angles_deg: scan angle {a} deg needs "
                                  f"{np.rad2deg(phase_range):.1f} deg of range over "
                                  f"{self.period_cells} cells; reduce period_cells")

    def run(self, out_base, threads=1):
        return [f"wrote {path}" for path in run_pattern(self, out_base)]


@dataclass(frozen=True, kw_only=True)
class HarmonicsConfig(_Experiment):
    """Harmonic spectra of time-coded atoms (``run_harmonics``)."""
    experiment: ClassVar[str] = "harmonics"
    help = "Harmonic spectrum exports (single tones, shifts, multi-tone)."
    num_steps: Annotated[int, Key(2)] = 16
    harmonic_range: Annotated[int | None, Key(0)] = None    # None reports |m| <= num_steps
    single_harmonics: tuple[int, ...] = ()
    shift_fractions: tuple[float, ...] = ()
    multi_targets: tuple = ()   # groups of [m, weight] pairs, read by check()
    output_dir: str = "harmonics"

    def check(self):
        num_steps, shifts = self.num_steps, self.shift_fractions
        m_range, key = ((num_steps, "num_steps") if self.harmonic_range is None
                        else (self.harmonic_range, "harmonic_range"))
        # checked before the lists, so num_steps is small enough for float arithmetic
        _check_bytes(key, spacetime.spectrum_bytes(num_steps, m_range),
                     "one spectrum of {} harmonics over {} steps", 2 * m_range + 1, num_steps)
        # the synthesized harmonic aliases from |m| = L/2 on
        top = (num_steps - 1) // 2
        harmonic = Key(-top, top)
        harmonic.check(self.single_harmonics, "single_harmonics entries", (int,))
        _distinct_files("single_harmonics", self.single_harmonics)
        if shifts and num_steps < 3:
            raise ConfigError(f"shift_fractions: a shift delays the ramp of harmonic 1, which "
                              f"aliases for num_steps = {num_steps}; need num_steps >= 3")
        for f in shifts:
            ticks = f * num_steps  # a shift is a whole number of the L steps
            if not math.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-9:
                raise ConfigError(f"shift_fractions: {f!r} is not an integer number of steps "
                                  f"for num_steps = {num_steps}")
        _distinct_files("shift_fractions", shifts)
        targets = []
        for group in self.multi_targets:
            if not isinstance(group, list):
                raise ConfigError(f"multi_targets groups must be lists, got {shown(group)}")
            one = []
            for entry in group:
                w = entry[1] if isinstance(entry, list) and len(entry) == 2 else None
                parts = w if isinstance(w, list) and len(w) == 2 else [w]
                if not all(Key().fits(v, (int, float)) for v in parts):
                    raise ConfigError("multi_targets entries must be [m, weight] pairs with a "
                                      f"number or [re, im] weight, got {shown(entry)}")
                harmonic.check(entry[:1], "multi_targets harmonics", (int,))
                one.append((entry[0], complex(*parts)))
            if len({m for m, _ in one}) != len(one):
                raise ConfigError(f"multi_targets group repeats a harmonic: {shown(group)}")
            if sum(abs(w) ** 2 for _, w in one) > 1.0 + 1e-12:
                raise ConfigError("multi_targets group asks for more than unit power: "
                                  f"{shown(group)}")
            targets.append(tuple(one))
        object.__setattr__(self, "multi_targets", tuple(targets))   # as (m, complex weight)

    def run(self, out_base, threads=1):
        return [f"wrote {path}" for path in run_harmonics(self, out_base)]


@dataclass(frozen=True, kw_only=True)
class CodebookConfig(_Experiment):
    """A scheme's whole codeword table (``codebook_csv``)."""
    experiment: ClassVar[str] = "codebook"
    options = ("--out",)
    help = "Dump a scheme's full codeword table for audit."
    scheme: dict
    output: str | None = None

    def check(self):
        _check_output(self.output)
        _parse_scheme(self.scheme)   # the whole codebook must fit

    def run(self, out_base, threads=1):
        return _write(out_base, self.output or "codebook.csv",
                      lambda path: codebook_csv(self.scheme, path))


@dataclass(frozen=True, kw_only=True)
class RateConfig(CodebookConfig):
    """A scheme's throughput (``im_schemes.rate_of``)."""
    experiment: ClassVar[str] = "rate"
    options = ()
    help = "Print the throughput of the configured scheme."

    def check(self):
        im_schemes.rate_of(self.scheme)   # a formula: no codebook is built

    def run(self, out_base, threads=1):
        return [f"{im_schemes.rate_of(self.scheme):.6f}"]


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
    return sec.read(EXPERIMENTS[sec.value("experiment", str, Key(choices=tuple(EXPERIMENTS)))])


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
                 "{} batches' channel draws in flight", in_flight)
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
    channel draw per pair for the whole grid.  Pairs run largest n_tx n_rx
    first (ties in config order), before smaller pairs have grown the heap,
    and a repeated pair runs once; each pair has its own stream, so the rows,
    in config order, are those of running the pairs in turn."""
    # one scalar power per point: the vectorised power rounds differently
    snrs = [db_to_linear(snr_db) for snr_db in config.snr_db]
    estimates = {}
    for n_tx, n_rx in sorted(dict.fromkeys(config.antennas), key=lambda p: -p[0] * p[1]):
        estimates[n_tx, n_rx] = detection.ergodic_capacity(n_tx, n_rx, snrs,
                                                           config.capacity_trials, config.seed)
    return [(n_tx, n_rx, snr_db, est.mean, est.std_err, est.trials)
            for n_tx, n_rx in config.antennas
            for snr_db, est in zip(config.snr_db, estimates[n_tx, n_rx])]


def capacity_csv(rows, path) -> None:
    write_csv(path, rows, ("%d", "%d", "%.6f", "%.10e", "%.10e", "%d"),
              header="nt,nr,snr_db,capacity_bit_s_hz,std_err,trials")


def _atom_loss_amplitudes(phases: np.ndarray, table, freq_ghz: float) -> np.ndarray:
    """Per-element amplitudes of the nearest realizable tuning states.

    For each commanded phase, picks the capacitance whose tabulated phase is
    closest (wrapped distance) and returns that state's amplitude, modeling
    the finite tuning range of the physical cell.
    """
    states = [table.lookup(freq_ghz, metaatom.DiodeState(float(c), ATOM_RESISTANCE_OHM))
              for c in table.c_pf]
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
    return aperture.ApertureGeometry(geo["rows"], geo["cols"], geo["dx_mm"] * 1e-3,
                                     geo["dy_mm"] * 1e-3, geo["fc_ghz"] * 1e9)


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
    # the grid-column text every scan angle shares, formatted before any
    # field exists so that its temporaries never sit on top of a group's
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

            tag = _FILE_TAGS["scan_angles_deg"](angle_deg)
            written += [out_dir / f"{name}_{tag}.csv" for name in ("coding", "farfield", "farfield_uv")]
            aperture.coding_to_csv(coding, written[-3])
            grid.to_csv(written[-2], text)
            grid.to_uv_csv(written[-1], text)
            summary.append((angle_deg, np.rad2deg(predicted), np.rad2deg(peak_theta),
                            np.rad2deg(peak_phi), peak_dbi, norm))
    summary_path = out_dir / "summary.csv"
    write_csv(summary_path, summary, ("%.3f", "%.6f", "%.6f", "%.6f", "%.6f", "%.8f"),
              header="angle_cmd_deg,angle_pred_deg,peak_theta_deg,peak_phi_deg,"
                     "peak_directivity_dbi,normalization")
    return written + [summary_path]


def _harmonic_codings(config: HarmonicsConfig):
    """(kind, param, file tag, steps, residual text, writes a sequence) of
    every coding of a harmonics run, in file order, built one at a time."""
    num = config.num_steps
    for m in config.single_harmonics:
        steps = spacetime.synthesize_single_harmonic(m, num)
        yield "single", m, _FILE_TAGS["single_harmonics"](m), steps, "", True
    if config.shift_fractions:   # harmonic 1 aliases at num_steps 2
        base = spacetime.synthesize_single_harmonic(1, num)
        for frac in config.shift_fractions:
            # parse_config checked that frac * num is a whole number of steps
            shifted = spacetime.phase_shift_harmonic(base, round(frac * num) % num)
            yield "shift", frac, _FILE_TAGS["shift_fractions"](frac), shifted, "", False
    for i, targets in enumerate(config.multi_targets):
        result = spacetime.synthesize_multi_harmonic(list(targets), num, seed=config.seed)
        yield "multi", i, f"multi{i}", result.steps, f"{result.residual:.8f}", True


def run_harmonics(config: ExperimentConfig, out_base: Path):
    """Harmonic-synthesis exports: single tones, phase shifts, multi-tone."""
    m_range = config.harmonic_range if config.harmonic_range is not None else config.num_steps
    harmonics = range(-m_range, m_range + 1)
    out_dir = out_base / config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary = ["kind,param,dominant_m,dominant_mag,residual"]
    for kind, param, tag, steps, residual, with_sequence in _harmonic_codings(config):
        if with_sequence:
            written.append(out_dir / f"sequence_{tag}.csv")
            spacetime.sequence_to_csv(steps, written[-1])
        spectrum = spacetime.harmonic_coefficients(steps, harmonics)
        written.append(out_dir / f"spectrum_{tag}.csv")
        spectrum.to_csv(written[-1])
        dom = spectrum.dominant()
        summary.append(f"{kind},{param},{dom},{spectrum.magnitude(dom):.8f},{residual}")

    summary_path = out_dir / "summary.csv"
    summary_path.write_text("\n".join(summary) + "\n")
    return written + [summary_path]


def codebook_csv(scheme_config: dict, path) -> None:
    rows = im_schemes.codebook_rows(im_schemes.build_scheme(scheme_config))
    lines = ["bits,indices,symbols", *map(",".join, rows)]
    Path(path).write_text("\n".join(lines) + "\n")
