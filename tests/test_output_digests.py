"""Every file the shipped configs write is byte-identical to the committed
listing ``tests/output_digests.txt``, at one and at two BER threads.

A change that alters result bytes on purpose writes the listing anew with
``python3 tools/output_digests.py > tests/output_digests.txt``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LISTING = ROOT / "tests" / "output_digests.txt"


def split(listing: str):
    """The 'name version' lines after '# ', and a map from each file to its digest."""
    lines = listing.splitlines()
    env = [line[2:] for line in lines if line.startswith("#")]
    files = dict(reversed(line.split("  ", 1)) for line in lines if not line.startswith("#"))
    return env, files


def test_outputs_at_one_and_two_threads_match_the_committed_listing():
    # the tool runs every ber config at both counts and exits 1 if they differ
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py"),
                          "--threads", "1", "2"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    want_env, want = split(LISTING.read_text())
    env, got = split(run.stdout)
    if env != want_env:
        pytest.fail(f"{LISTING.name} was made under {'; '.join(want_env)}, this run has "
                    f"{'; '.join(env)}; check byte identity against the listing of the "
                    f"parent commit made under these versions")
    changed = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
    assert not changed, f"these files differ from {LISTING.name}: {changed}"
