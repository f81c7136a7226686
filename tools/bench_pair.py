#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against this checkout.

Exports ``--parent`` and the working tree's tracked files (``git stash
create``: edits and staged new files count, untracked files do not) with
``git archive`` into fresh temporary directories, so that no
``__pycache__`` favours either side.  Then runs each side's own
``perfbench/run.py --workload W --seed S --trace 0`` ``--pairs`` times per
workload and seed, alternating which side goes first in each pair.  Both
sides run for the ``run_seconds`` of this checkout's BENCHMARK.json.  The
output file holds every run's result line and ``env`` line and, per
end-to-end metric, each side's median and quartiles, the number of pairs
the change won (ties count for neither), whether the change's median is
worse than the parent's by more than the metric's bound, whether a gain is
shown and whether the runs spread too widely to tell (see ``summarize``):

    python3 tools/bench_pair.py --parent HEAD~1 --workload ber_ofdm_im_threads \\
        --seed 1 7 --pairs 10 --out BENCH_18.json

The file is rewritten after every pair, so an interrupted run keeps the
pairs it finished.  A run that exits non-zero stops the tool with exit 1.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The files of ``rev`` (its committed tree) under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def checkouts(parent: str, into: Path) -> dict:
    """Both sides exported under ``into``, neither with a ``__pycache__``:
    each run compiles its own source, as in a fresh checkout."""
    sides = {side: into / side for side in SIDES}
    export(parent, sides["parent"])
    export(git("stash", "create") or "HEAD", sides["change"])   # "" for a clean tree
    return sides


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` invocation, which writes no bytecode into
    ``checkout``: its result and ``env`` lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pair: {' '.join(cmd)} in {checkout} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"result": json.loads(lines[-1]), "env": env}


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, declared) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the pairs the
    change won, and whether its median is worse than the parent's by more
    than the bound (a fraction of the parent's median).  ``gain_shown``: the
    change won at least 9 in 10 pairs and its median is better by more than
    the parent's IQR.  ``unresolved``: the parent's IQR is wider than the
    bound, and some change run is no better than some parent run, so the
    runs spread too widely to tell a change within the bound."""
    summary = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}

        def better(a, b):
            return a < b if lower else a > b

        wins = sum(better(c, p) for p, c in zip(values["parent"], values["change"]))
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        worse = (change - parent) if lower else (parent - change)
        bound = metric["bound"] * abs(parent)
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], **stats,
            "change_wins": wins, "pairs": len(pairs),
            "worse_than_bound": worse > bound,
            "gain_shown": 10 * wins >= 9 * len(pairs) and -worse > stats["parent"]["iqr"],
            "unresolved": stats["parent"]["iqr"] > bound and not all(
                better(c, p) for c in values["change"] for p in values["parent"]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "sets": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        sides = checkouts(args.parent, Path(tmp))
        for workload in args.workload:
            for seed in args.seed:
                current = {"workload": workload, "seed": seed, "pairs": []}
                record["sets"].append(current)
                for index in range(args.pairs):
                    order = SIDES if index % 2 == 0 else SIDES[::-1]
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(sides[side], workload, seed, seconds)
                    current["pairs"].append(pair)
                    current["summary"] = summarize(current["pairs"], bench["end_to_end"])
                    args.out.write_text(json.dumps(record, indent=1) + "\n")
                    wall = current["summary"]["wall_s"]
                    print(f"{workload} seed {seed} pair {index + 1}/{args.pairs}: wall_s "
                          f"{pair['parent']['result']['metrics']['wall_s']['value']:.4f} -> "
                          f"{pair['change']['result']['metrics']['wall_s']['value']:.4f} "
                          f"(change won {wall['change_wins']})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
