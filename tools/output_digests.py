#!/usr/bin/env python3
"""Print a sha256 digest of every file the shipped configs write.

Runs each ``configs/*.json`` through the risim command line of this
checkout (``src/`` is put first on the import path), each into its own
subdirectory of a temporary directory, and prints one
``sha256  relative/path`` line per written file, sorted by path, after
two ``# numpy ...`` and ``# blas ...`` lines naming the versions the
bytes were made under.

Each config runs with the options its experiment declares
(``harness.EXPERIMENTS``): ``--out`` its subdirectory, and ``--threads N``.
Given several counts (``--threads 1 2``), each config whose command takes
``--threads`` runs at each of them, and a file whose bytes differ between
two counts is reported on stderr and makes the script exit 1; the listing
is that of the first count.

``tests/output_digests.txt`` holds the listing of the committed outputs,
and ``tests/test_output_digests.py`` checks it with ``--threads 1 2``.  A
change that alters result bytes on purpose writes the listing anew and
names each changed file:

    python3 tools/output_digests.py > tests/output_digests.txt
    git diff tests/output_digests.txt

A config whose run does not exit 0 is reported on stderr and makes the
script exit 1 as well.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from risim.cli import main  # noqa: E402
from risim.harness import EXPERIMENTS  # noqa: E402


def environment() -> list:
    """The versions the result bytes depend on, as listing lines."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}", f"# blas {blas['name']} {blas['version']}"]


def run_config(config: Path, experiment: str, out_dir: Path, threads: int) -> int:
    given = {"--out": str(out_dir), "--threads": str(threads)}
    argv = [experiment, "--config", str(config)]
    for option in EXPERIMENTS[experiment].options:
        if option in given:   # a --seed is left to the config
            argv += [option, given[option]]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def digests(out_base: Path):
    for path in sorted(p for p in out_base.rglob("*") if p.is_file()):
        yield hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out_base)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every file the shipped configs write")
    parser.add_argument("--threads", type=int, nargs="+", default=[1],
                        help="worker threads of every run that takes them (default 1); given "
                             "several counts, each such config runs at each and must write "
                             "the same bytes")
    counts = parser.parse_args(argv).threads
    problems = []
    print("\n".join(environment()))
    with tempfile.TemporaryDirectory() as tmp:
        bases = [Path(tmp) / str(i) for i in range(len(counts))]
        for config in sorted((ROOT / "configs").glob("*.json")):
            experiment = json.loads(config.read_text())["experiment"]
            threaded = "--threads" in EXPERIMENTS[experiment].options
            for base, threads in zip(bases, counts if threaded else counts[:1]):
                if run_config(config, experiment, base / config.stem, threads) != 0:
                    problems.append(f"run failed: configs/{config.name} at --threads {threads}")
        listing = {rel: digest for digest, rel in digests(bases[0])}
        for base, threads in zip(bases[1:], counts[1:]):
            for digest, rel in digests(base):   # the files of the threaded runs
                if listing.get(rel) != digest:
                    problems.append(f"{rel.as_posix()} differs at --threads {threads} "
                                    f"and {counts[0]}")
        for rel, digest in listing.items():
            print(f"{digest}  {rel.as_posix()}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(run())
