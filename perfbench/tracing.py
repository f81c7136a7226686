"""Layer timers installed from outside the risim package.

The traced run replaces module attributes (functions, methods and the
stream-generator factory) with wrappers that time each call and count its
work, then reads the totals after the run.  Nothing inside ``src/`` knows
about it.  Random draws go through a proxy that forwards every call to the
real ``numpy.random.Generator``, so the streams, and hence the outputs, are
the same as in an untraced run.

A wrapped target that no longer exists is recorded in ``Tracer.absent``
with the reason instead of failing the run.
"""

import functools
import os
import threading
import time
from collections import defaultdict


class Tracer:
    """Inclusive time, self time and counts per metric, across threads.

    Self time is a span's duration minus the time of the wrapped calls made
    inside it on the same thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.batches = []        # (point, batch, start, end) per simulated batch
        self.absent = {}         # "module.attr" -> reason

    def call(self, name, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            inner = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - inner
                self.counts[name + ".calls"] += 1

    def add(self, name, amount):
        with self._lock:
            self.counts[name] += amount

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a timed wrapper.

        ``count(args, kwargs, result)`` may return {counter: amount} to add.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            where = "missing owner" if owner is None else getattr(owner, "__name__", owner)
            self.absent[f"{where}.{attr}"] = "not found"
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if count is not None:
                for counter, amount in count(args, kwargs, result).items():
                    self.add(counter, amount)
            return result

        setattr(owner, attr, wrapper)


class TimedGenerator:
    """Forwards to a numpy Generator, timing the draws the simulator makes."""

    def __init__(self, generator, tracer, key):
        self._generator = generator
        self._tracer = tracer
        self.key = key

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("channel.normal", self._generator.standard_normal,
                                *args, **kwargs)
        self._tracer.add("channel.normal_samples", getattr(out, "size", 1))
        return out

    def integers(self, *args, **kwargs):
        return self._tracer.call("channel.integers", self._generator.integers,
                                 *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


def install(tracer):
    """Wrap the entry points of every measured layer in the risim package."""
    from risim import aperture, channel, detection, harness, im_schemes, metaatom

    original_stream_rng = getattr(channel, "stream_rng", None)
    if callable(original_stream_rng):
        def stream_rng(*key):
            generator = tracer.call("channel.stream_rng", original_stream_rng, *key)
            return TimedGenerator(generator, tracer, key)

        channel.stream_rng = stream_rng
        if hasattr(harness, "stream_rng"):
            harness.stream_rng = stream_rng
        else:
            tracer.absent["risim.harness.stream_rng"] = "not found"
    else:
        tracer.absent["risim.channel.stream_rng"] = "not found"

    model = getattr(harness, "_BerModel", None)
    if model is None:
        tracer.absent["risim.harness._BerModel"] = "not found"
    else:
        _wrap_simulate(tracer, model)
        tracer.wrap(model, "_draw_channel", "harness.draw_channel")
        for detector in ("_detect_vector", "_detect_matrix", "_detect_state"):
            tracer.wrap(model, detector, "detection.ml", count=_hypotheses)

    tracer.wrap(detection, "ergodic_capacity", "detection.capacity")

    scheme = getattr(im_schemes, "Scheme", None)
    codebook_owners = [cls for cls in _subclasses(scheme) if "codebook" in vars(cls)]
    if not codebook_owners:
        tracer.absent["risim.im_schemes.Scheme.codebook"] = "not found"
    for cls in codebook_owners:
        tracer.wrap(cls, "codebook", "im_schemes.codebook",
                    count=lambda a, k, r: {"im_schemes.codewords": r.count})

    tracer.wrap(aperture, "radiation_pattern", "aperture.pattern", count=_directions)
    tracer.wrap(aperture, "peak_directivity", "aperture.directivity")
    tracer.wrap(aperture, "directivity_normalization", "aperture.directivity")
    tracer.wrap(aperture, "coding_to_csv", "aperture.csv_write", count=_csv_bytes)
    grid = getattr(aperture, "FarFieldGrid", None)
    tracer.wrap(grid, "to_csv", "aperture.csv_write", count=_csv_bytes)
    tracer.wrap(grid, "to_uv_csv", "aperture.csv_write", count=_csv_bytes)

    tracer.wrap(metaatom, "default_response_table", "metaatom.table_load")
    tracer.wrap(getattr(metaatom, "ResponseTable", None), "lookup", "metaatom.lookup",
                count=lambda a, k, r: {"metaatom.lookups": 1})


def _subclasses(cls):
    if cls is None:
        return []
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return found


def _wrap_simulate(tracer, model):
    original = getattr(model, "simulate", None)
    if not callable(original):
        tracer.absent["risim.harness._BerModel.simulate"] = "not found"
        return

    @functools.wraps(original)
    def simulate(self, rng, *args, **kwargs):
        start = time.perf_counter()
        result = tracer.call("harness.simulate", original, self, rng, *args, **kwargs)
        end = time.perf_counter()
        point, batch = getattr(rng, "key", (None, None))[-2:]
        with tracer._lock:
            tracer.batches.append((point, batch, start, end))
        return result

    model.simulate = simulate


def _hypotheses(args, kwargs, result):
    model, y = args[0], args[1]
    return {"detection.hypotheses": int(y.shape[0]) * int(model.count)}


def _directions(args, kwargs, result):
    return {"aperture.directions": int(result.field.size)}


def _csv_bytes(args, kwargs, result):
    # coding_to_csv(coding, path) and FarFieldGrid.to_csv(self, path)
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"aperture.csv_bytes": os.path.getsize(path)}


def layer_metrics(tracer, threads):
    """Per-layer figures of one traced run (time metrics in seconds)."""
    s, own, n = tracer.seconds, tracer.self_seconds, tracer.counts
    durations = sorted(end - start for _, _, start, end in tracer.batches)
    waves = defaultdict(list)
    for i, (point, batch, start, end) in enumerate(tracer.batches):
        # without a (seed, point, batch) stream key each batch is its own wave
        wave = (point, batch // threads) if batch is not None else (None, i)
        waves[wave].append((start, end))
    idle = 0.0
    for spans in waves.values():
        span = max(e for _, e in spans) - min(b for b, _ in spans)
        idle += threads * span - sum(e - b for b, e in spans)
    return {
        "detection.ml_s": s["detection.ml"],
        "detection.ml_calls": n["detection.ml.calls"],
        "detection.hypotheses": n["detection.hypotheses"],
        "detection.capacity_s": s["detection.capacity"],
        "detection.capacity_linalg_s": own["detection.capacity"],
        "channel.stream_rng_s": s["channel.stream_rng"],
        "channel.normal_s": s["channel.normal"],
        "channel.normal_samples": n["channel.normal_samples"],
        "channel.integers_s": s["channel.integers"],
        "harness.draw_channel_s": s["harness.draw_channel"],
        "harness.simulate_self_s": own["harness.simulate"],
        "harness.batches_computed": len(durations),
        "harness.wave_idle_s": idle,
        "im_schemes.codebook_s": s["im_schemes.codebook"],
        "im_schemes.codewords": n["im_schemes.codewords"],
        "aperture.pattern_s": s["aperture.pattern"],
        "aperture.directions": n["aperture.directions"],
        "aperture.directivity_s": s["aperture.directivity"],
        "aperture.csv_write_s": s["aperture.csv_write"],
        "aperture.csv_bytes": n["aperture.csv_bytes"],
        "metaatom.table_load_s": s["metaatom.table_load"],
        "metaatom.lookups": n["metaatom.lookups"],
    }, [d * 1e3 for d in durations]
