"""risim benchmark: Monte Carlo throughput per workload, output-checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload ber_sm_detect --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One invocation runs one workload for ``--seconds`` seconds: it writes the
workload's config for ``--seed``, then starts fresh worker processes, one
repeat each, until the time is up (at least three repeats).  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, the
medians over the repeats; with ``--trace 1`` it alternates traced and
untraced repeats and prints the per-layer metrics.  Every repeat's CSVs are
checked: against reference.json at the default seed, and against
seed-independent invariants at any seed.  ``--workload all`` runs every
workload in its own process, alternating their order between rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".bench_out"

MIN_REPEATS = 3
ROUNDS_ALL = 2            # rounds of --workload all, in alternating order
WORKER_TIMEOUT_S = 120
# One BLAS thread per process: with --threads 2 the busiest workload then
# keeps exactly nproc = 2 threads in flight.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    """The repeats of one workload at one seed, with their checks."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.kind = self.spec["kind"]
        self.config = self.spec["config"](seed)
        self.reference = None
        if seed == workloads.DEFAULT_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text())[workload]
        self.scratch = SCRATCH / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []

    def launch(self, config, threads, trace):
        """One worker process; returns its record, or None if it failed."""
        self.attempted += 1
        tag = self.scratch / str(self.attempted)
        out_dir = tag / "out"
        out_dir.mkdir(parents=True)
        config_path = tag / "config.json"
        config_path.write_text(json.dumps(config))
        spec = {"config": str(config_path), "out_dir": str(out_dir),
                "threads": threads, "trace": trace}
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                                  capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                                  env={**os.environ, **PINNED_ENV}, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return self.fail(f"worker timed out after {WORKER_TIMEOUT_S} s")
        finally:
            shutil.rmtree(tag, ignore_errors=True)
        if proc.returncode != 0:
            return self.fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        return None

    def check(self, record, config=None):
        """Output checks of one repeat; a failed check fails the repeat."""
        problems = workloads.check_invariants(self.kind, config or self.config, record["outputs"])
        if self.reference is not None and config is None:
            problems += workloads.check_reference(self.kind, record["outputs"], self.reference)
        if problems:
            self.fail("; ".join(problems))
        return not problems

    def measure(self, seconds, trace):
        """Timed repeats until ``seconds`` have passed; returns (untraced, traced)."""
        untraced, traced = [], []
        deadline = time.monotonic() + seconds
        threads = self.spec["threads"]
        round_index = 0
        while True:
            order = (False, True) if round_index % 2 == 0 else (True, False)
            for traced_now in (order if trace else (False,)):
                record = self.launch(self.config, threads, traced_now)
                if record is not None and self.check(record):
                    (traced if traced_now else untraced).append(record)
            round_index += 1
            enough = len(untraced) >= MIN_REPEATS and (not trace or len(traced) >= MIN_REPEATS)
            if time.monotonic() >= deadline and (enough or self.attempted > 4 * MIN_REPEATS):
                return untraced, traced

    def compare_digests(self, records, what):
        """All records must have written byte-identical CSVs."""
        digests = {r["digest"] for r in records}
        if len(digests) > 1:
            self.fail(f"{what}: CSV bytes differ between runs of the same config")


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run, untraced):
    facts = untraced[0]["facts"]
    rates = [workloads.work_items(run.kind, r["outputs"], facts) / r["wall_s"] for r in untraced]
    return {
        "wall_s": statistics.median([r["wall_s"] for r in untraced]),
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median([r["setup_s"] for r in untraced]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(run, untraced, traced):
    layers = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                run.notes.append(f"count {name} differs between traced repeats: {values}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    folded = 0
    if run.kind == "ber":
        size = run.config["trials"]["batch_size"]
        folded = sum(math.ceil(row["trials"] / size) for row in traced[0]["outputs"])
    computed = layers["harness.batches_computed"]
    batch_ms = [ms for r in traced for ms in r["batch_ms"]]
    layers.update({
        "harness.batches_folded": folded,
        "harness.batch_useful_ratio": folded / computed if computed else 0.0,
        "harness.batch_ms_p50": _percentile(batch_ms, 0.5) if batch_ms else 0.0,
        "harness.batch_ms_p90": _percentile(batch_ms, 0.9) if batch_ms else 0.0,
        "trace.overhead_ratio": (statistics.median([r["wall_s"] for r in traced])
                                 / statistics.median([r["wall_s"] for r in untraced])),
    })
    return layers


def environment(records):
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    env = {"commit": commit, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), **PINNED_ENV}
    if records:
        env.update(records[0]["env"])
    return env


def _remove_scratch(run):
    shutil.rmtree(run.scratch, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run is still using it


def run_workload(args):
    run = Run(args.workload, args.seed)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    single = None
    try:
        if run.workload == "ber_ofdm_im_threads":
            # thread count must not change a single byte of the result
            single = run.launch(run.config, 1, False)
        elif run.workload == "capacity_sweep":
            siso_config = workloads.capacity_siso_check(args.seed)
            siso = run.launch(siso_config, 1, False)
            if siso is not None and run.check(siso, siso_config):
                problems = workloads.check_siso_capacity(siso["outputs"])
                if problems:
                    run.fail("; ".join(problems))
        untraced, traced = run.measure(args.seconds, args.trace)
    finally:
        _remove_scratch(run)
    if not untraced or (args.trace and not traced):
        print("\n".join(run.problems), file=sys.stderr)
        raise SystemExit("no repeat completed; no metrics to report")
    run.compare_digests(untraced + traced, "repeats (traced and untraced)")
    if single is not None:
        if single["digest"] != untraced[0]["digest"]:
            run.fail("threads=2 result differs from threads=1")

    if args.trace:
        values = per_layer(run, untraced, traced)
        declared = bench["per_layer"]
        absent = {k: v for r in traced for k, v in r["absent"].items()}
    else:
        values = end_to_end(run, untraced)
        declared = bench["end_to_end"]
        absent = {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {run.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced repeats")
    print("env " + json.dumps(environment(untraced)))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':32s} {run.failed / run.attempted:>16.6g} "
          f"({run.failed} of {run.attempted} worker runs)")
    for target, reason in absent.items():
        print(f"  absent: {target} ({reason}); its metrics read 0")
    for note in run.notes:
        print(f"  note: {note}")
    for problem in run.problems:
        print(f"  problem: {problem}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def write_reference():
    """Store the checked outputs of every workload at the default seed."""
    reference = {}
    for name in workloads.WORKLOADS:
        run = Run(name, workloads.DEFAULT_SEED)
        run.reference = None
        try:
            record = run.launch(run.config, run.spec["threads"], False)
        finally:
            _remove_scratch(run)
        if record is None or not run.check(record):
            raise SystemExit(f"{name}: {run.problems}")
        reference[name] = record["outputs"]
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def run_all(args):
    """Every workload in its own process; order alternates between rounds."""
    names = list(workloads.WORKLOADS)
    results = {name: [] for name in names}
    for round_index in range(ROUNDS_ALL):
        for name in (names if round_index % 2 == 0 else names[::-1]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"workload {name} exited {proc.returncode}")
            results[name].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    metrics = {}
    attempted = failed = 0
    print(f"{'workload':22s} {'metric':32s} {'median':>14s} unit")
    for name, rounds in results.items():
        attempted += sum(r["attempted"] for r in rounds)
        failed += sum(r["failed"] for r in rounds)
        for metric in rounds[0]["metrics"]:
            value = statistics.median([r["metrics"][metric]["value"] for r in rounds])
            unit = rounds[0]["metrics"][metric]["unit"]
            metrics[f"{name}.{metric}"] = {"value": value, "unit": unit}
            print(f"{name:22s} {metric:32s} {value:>14.6g} {unit}")
        frac = sum(r["failed"] for r in rounds) / sum(r["attempted"] for r in rounds)
        print(f"{name:22s} {'failed_frac':32s} {frac:>14.6g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from the current program and exit")
    parser.add_argument("--workload",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    needed = [ROOT / "src" / "risim" / "__init__.py", ROOT / "BENCHMARK.json"]
    for path in needed + ([] if args.write_reference else [REFERENCE]):
        if not path.is_file():
            print(f"perfbench: {path.relative_to(ROOT)} is missing; run from a full "
                  "checkout of the repository", file=sys.stderr)
            return 2
    if args.write_reference:
        write_reference()
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
