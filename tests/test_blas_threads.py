"""Importing risim gives OpenBLAS one thread, unless OPENBLAS_NUM_THREADS is set.

Each case runs a fresh interpreter that imports risim, then numpy, and asks
the loaded OpenBLAS for its thread count, as ``perfbench/worker.py`` does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# prints the count, or 0 where numpy loaded no OpenBLAS that can be asked
PROBE = """
import ctypes
import risim, numpy
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
gets = [getattr(ctypes.CDLL(lib), name, None) for lib in libs
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")]
get = next((g for g in gets if g is not None), lambda: 0)
get.restype = ctypes.c_int
print(get())
"""


def blas_threads(setting):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return int(done.stdout)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
def test_blas_thread_count_is_one_unless_set(setting, threads):
    count = blas_threads(setting)
    if count == 0:
        pytest.skip("numpy loaded no OpenBLAS whose thread count can be read")
    assert count == threads
