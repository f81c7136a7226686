#!/usr/bin/env python3
"""Print a sha256 digest of every file the shipped configs write.

Runs each ``configs/*.json`` through the risim command line of this
checkout (``src/`` is put first on the import path), each into its own
subdirectory of a temporary directory, and prints one
``sha256  relative/path`` line per written file, sorted by path.  Two
checkouts write byte-identical results exactly when their outputs are
equal:

    python3 tools/output_digests.py > after.txt    # in each checkout
    diff before.txt after.txt

``--threads N`` is passed to every ``ber`` run, so the listings at two
thread counts of one checkout must be identical as well:

    python3 tools/output_digests.py --threads 1 > t1.txt
    python3 tools/output_digests.py --threads 2 > t2.txt
    diff t1.txt t2.txt

A config whose run does not exit 0 is reported on stderr and makes the
script exit 1.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from risim.cli import main  # noqa: E402


def run_config(config: Path, out_dir: Path, threads: int) -> int:
    experiment = json.loads(config.read_text())["experiment"]
    argv = [experiment, "--config", str(config)]
    if experiment != "rate":  # rate prints its number and writes no file
        argv += ["--out", str(out_dir)]
    if experiment == "ber":
        argv += ["--threads", str(threads)]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def digests(out_base: Path):
    for path in sorted(p for p in out_base.rglob("*") if p.is_file()):
        yield hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out_base)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every file the shipped configs write")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads of every ber run (default 1)")
    threads = parser.parse_args(argv).threads
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        out_base = Path(tmp)
        for config in sorted((ROOT / "configs").glob("*.json")):
            if run_config(config, out_base / config.stem, threads) != 0:
                failed.append(config.name)
        for digest, rel in digests(out_base):
            print(f"{digest}  {rel.as_posix()}")
    for name in failed:
        print(f"run failed: configs/{name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
