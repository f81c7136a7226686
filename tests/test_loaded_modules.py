"""Only a run that makes a random stream loads ``numpy.random``, and no run
loads ``click``.

A fresh interpreter runs ``risim.cli.main`` on the shipped pattern, codebook
and rate configs, none of which draws a random number, and then on a small
capacity config, which does.  After each run it reports the exit code and
whether ``numpy.random`` and ``click`` are in ``sys.modules``, as
``tests/test_blas_threads.py`` asks a fresh interpreter for its OpenBLAS
thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# argv: the output directory, then (command, config path) pairs; prints one
# [exit code, numpy.random loaded, click loaded] triple per run, as JSON
PROBE = """
import json, sys
from risim.cli import main
out, runs = sys.argv[1], sys.argv[2:]
report = []
for command, path in zip(runs[::2], runs[1::2]):
    code = main([command, "--config", path, *([] if command == "rate" else ["--out", out])])
    report.append([code, "numpy.random" in sys.modules, "click" in sys.modules])
print(json.dumps(report))
"""


def test_only_runs_that_draw_load_numpy_random(tmp_path):
    capacity = tmp_path / "capacity.json"
    capacity.write_text(json.dumps({"experiment": "capacity", "antennas": [[1, 1]],
                                    "snr_db": [0.0], "trials": 2}))
    runs = [("pattern", ROOT / "configs" / "pattern_steering.json"),
            ("codebook", ROOT / "configs" / "codebook_sm.json"),
            ("rate", ROOT / "configs" / "rate_sm.json"),
            ("capacity", capacity)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "out"),
                           *(str(part) for run in runs for part in run)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == [[0, False, False], [0, False, False], [0, False, False],
                      [0, True, False]]
