"""One repeat of a benchmark workload, in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the config file, the output directory, the thread count
and whether to trace.  The worker imports risim from the
``src`` directory next to this one, times set-up and the run, reads back the
CSVs it wrote and prints one JSON line.  Only the standard library (and the
stdlib-only helpers next to this file) is imported before the set-up timer
starts.
"""

import ctypes
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(spec):
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import risim
    if Path(risim.__file__).resolve().parent != (SRC / "risim").resolve():
        raise SystemExit(f"risim was imported from {risim.__file__}, not from {SRC}")
    from risim import aperture, harness, im_schemes, metaatom

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    config = harness.parse_config(spec["config"])
    facts = {}
    if config.experiment == "ber":
        facts["codewords"] = im_schemes.build_scheme(config.scheme).codebook().count
    if config.experiment == "pattern" and config.couple_atom_loss:
        facts["table_states"] = len(metaatom.default_response_table().c_pf)
    setup_s = time.perf_counter() - start

    out_dir = Path(spec["out_dir"])
    start = time.perf_counter()
    if config.experiment == "ber":
        harness.run_ber(config, threads=spec["threads"]).to_csv(out_dir / config.output)
    elif config.experiment == "capacity":
        harness.capacity_csv(harness.run_capacity(config), out_dir / config.output)
    elif config.experiment == "pattern":
        harness.run_pattern(config, out_dir)
    else:
        raise SystemExit(f"no runner for experiment {config.experiment!r}")
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if config.experiment == "pattern":
        theta, phi = aperture.direction_grid(*config.grid_step_deg)
        facts["grid_directions"] = int(theta.size * phi.size)
        facts["csv_bytes"] = sum(p.stat().st_size for p in (out_dir / config.output_dir).glob("*.csv")
                                 if p.name != "summary.csv")

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "outputs": workloads.read_outputs(config.experiment, out_dir),
        "digest": _digest(out_dir),
        "facts": facts,
        "env": _environment(),
    }
    if tracer is not None:
        record["layers"], record["batch_ms"] = tracing.layer_metrics(tracer, spec["threads"])
        record["absent"] = tracer.absent
    print(json.dumps(record))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
