"""Workload definitions for the risim benchmark.

Each workload turns a seed into one experiment config, names the harness
entry point that runs it, and knows how to check the CSVs it writes.  This
module imports only the standard library: the parent process of the
benchmark never imports risim or numpy.
"""

import csv
import math
import random
from pathlib import Path

DEFAULT_SEED = 1          # reference outputs in reference.json are for this seed
BATCH = 65_536

# Seed-independent acceptance values.
SISO_CAPACITY_10DB = 2.906        # E[log2(1 + 10 |h|^2)], |h|^2 ~ Exp(1)
SISO_CAPACITY_TOL = 0.02
SISO_CHECK_TRIALS = 400_000       # standard error ~0.002, a tenth of the tolerance
PEAK_TOL_DEG = 1.0


def _ber(scheme, snr_db, n_rx, seed, min_errors, max_batches):
    return {
        "experiment": "ber",
        "scheme": scheme,
        "channel": {"model": "rayleigh"},
        "n_rx": n_rx,
        "snr_db": snr_db,
        "seed": seed,
        "trials": {"max_trials": max_batches * BATCH, "min_errors": min_errors,
                   "batch_size": BATCH},
        "output": "ber.csv",
    }


# The stop rule is chosen so the number of batches does not depend on the
# seed: low-SNR points reach min_errors in their first batch with a margin
# of several standard deviations, and high-SNR points hit max_trials before
# they could reach it.  Seeds then change the draws but not the work.
def ber_sm_detect(seed):
    return _ber({"type": "sm", "n_tx": 4, "order": 4, "constellation": "psk"},
                [5, 10, 15, 20, 25], 2, seed, min_errors=1000, max_batches=6)


def ber_ofdm_im_threads(seed):
    return _ber({"type": "ofdm_im", "n": 4, "k": 2, "order": 2},
                [10, 15, 20, 25, 30], 1, seed, min_errors=600, max_batches=3)


def capacity_sweep(seed):
    return {
        "experiment": "capacity",
        "antennas": [[1, 1], [2, 2], [4, 4], [8, 8], [16, 16]],
        "snr_db": [0, 5, 10, 15, 20],
        "trials": 20_000,
        "seed": seed,
        "output": "capacity.csv",
    }


def capacity_siso_check(seed):
    """1x1 at 10 dB with enough trials that the closed form is a fair test."""
    return {
        "experiment": "capacity",
        "antennas": [[1, 1]],
        "snr_db": [10],
        "trials": SISO_CHECK_TRIALS,
        "seed": seed,
        "output": "capacity.csv",
    }


def pattern_export(seed):
    # Every angle in 0..60 deg steers within the tolerance on this aperture.
    angles = sorted(random.Random(seed).sample(range(0, 61), 4))
    return {
        "experiment": "pattern",
        "geometry": {"rows": 20, "cols": 20, "dx_mm": 2.8, "dy_mm": 2.8, "fc_ghz": 28.0},
        "scan_angles_deg": angles,
        "period_cells": 4,
        "couple_atom_loss": True,
        "seed": seed,
        "output_dir": "patterns",
    }


WORKLOADS = {
    "ber_sm_detect": {"kind": "ber", "threads": 1, "config": ber_sm_detect},
    "ber_ofdm_im_threads": {"kind": "ber", "threads": 2, "config": ber_ofdm_im_threads},
    "capacity_sweep": {"kind": "capacity", "threads": 1, "config": capacity_sweep},
    "pattern_export": {"kind": "pattern", "threads": 1, "config": pattern_export},
}


# --------------------------------------------------------------------------
# outputs
# --------------------------------------------------------------------------

def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_outputs(kind, out_dir):
    """The checked columns of a run's CSVs, as plain JSON values."""
    out_dir = Path(out_dir)
    if kind == "ber":
        return [{"snr_db": float(r["snr_db"]), "trials": int(r["trials"]),
                 "bit_errors": int(r["bit_errors"])} for r in _rows(out_dir / "ber.csv")]
    if kind == "capacity":
        return [{"nt": int(r["nt"]), "nr": int(r["nr"]), "snr_db": float(r["snr_db"]),
                 "mean": float(r["capacity_bit_s_hz"]), "trials": int(r["trials"])} for r in _rows(out_dir / "capacity.csv")]
    return [{"angle_cmd_deg": float(r["angle_cmd_deg"]),
             "peak_theta_deg": float(r["peak_theta_deg"]),
             "peak_phi_deg": float(r["peak_phi_deg"]),
             "peak_directivity_dbi": float(r["peak_directivity_dbi"])}
            for r in _rows(out_dir / "patterns" / "summary.csv")]


def work_items(kind, outputs, facts):
    """What one run completed: trials for BER and capacity, far-field
    directions for the pattern export."""
    if kind == "pattern":
        return len(outputs) * facts["grid_directions"]
    return sum(row["trials"] for row in outputs)


def check_invariants(kind, config, outputs):
    """Seed-independent checks; returns a list of failure messages."""
    problems = []
    if kind == "ber":
        policy = config["trials"]
        if [row["snr_db"] for row in outputs] != [float(s) for s in config["snr_db"]]:
            problems.append("BER points do not match the SNR grid")
        for row in outputs:
            if row["bit_errors"] < policy["min_errors"] and row["trials"] != policy["max_trials"]:
                problems.append(f"BER point {row['snr_db']} dB stopped early: {row}")
    elif kind == "capacity":
        pairs = [tuple(p) for p in config["antennas"]]
        grid = {(r["nt"], r["nr"], r["snr_db"]): r["mean"] for r in outputs}
        if len(grid) != len(pairs) * len(config["snr_db"]):
            problems.append("capacity rows do not cover the antenna x SNR grid")
            return problems
        snrs = [float(s) for s in config["snr_db"]]
        for nt, nr in pairs:
            curve = [grid[(nt, nr, s)] for s in snrs]
            if any(b <= a for a, b in zip(curve, curve[1:])):
                problems.append(f"capacity of {nt}x{nr} does not grow with SNR")
        for s in snrs:
            sizes = [grid[(nt, nr, s)] for nt, nr in pairs]
            if any(b <= a for a, b in zip(sizes, sizes[1:])):
                problems.append(f"capacity at {s} dB does not grow with the array size")
    else:
        if [row["angle_cmd_deg"] for row in outputs] != [float(a) for a in config["scan_angles_deg"]]:
            problems.append("pattern summary does not match the commanded angles")
        for row in outputs:
            if abs(row["peak_theta_deg"] - row["angle_cmd_deg"]) > PEAK_TOL_DEG:
                problems.append(f"peak {row['peak_theta_deg']} deg is off its command "
                                f"{row['angle_cmd_deg']} deg")
    return problems


def check_siso_capacity(outputs):
    mean = outputs[0]["mean"]
    if abs(mean - SISO_CAPACITY_10DB) > SISO_CAPACITY_TOL:
        return [f"1x1 capacity at 10 dB is {mean}, not within {SISO_CAPACITY_TOL} "
                f"of {SISO_CAPACITY_10DB}"]
    return []


def check_reference(kind, outputs, reference):
    """Compare against the stored outputs of the default seed.

    BER trials and bit errors must match exactly, capacity means to 1e-9
    relative, pattern peaks to 1e-6 deg / dB (they are printed with six
    decimals).  Confidence-interval columns are not compared.
    """
    if len(outputs) != len(reference):
        return [f"{len(outputs)} output rows, reference has {len(reference)}"]
    problems = []
    for got, want in zip(outputs, reference):
        if kind == "ber":
            same = all(got[k] == want[k] for k in ("snr_db", "trials", "bit_errors"))
        elif kind == "capacity":
            same = (all(got[k] == want[k] for k in ("nt", "nr", "snr_db", "trials"))
                    and math.isclose(got["mean"], want["mean"], rel_tol=1e-9))
        else:
            same = all(abs(got[k] - want[k]) <= 1e-6 for k in want)
        if not same:
            problems.append(f"output {got} differs from reference {want}")
    return problems


def expected_counts(workload, config, outputs, facts):
    """Layer counts implied by an untraced run's outputs and array shapes.

    A traced run must report exactly these; the benchmark's tests compare
    them.  Only counts fixed by the experiment's semantics are derived here
    (batches, Gaussian samples, ML hypotheses, directions, CSV bytes).
    """
    spec = WORKLOADS[workload]
    kind = spec["kind"]
    if kind == "ber":
        policy = config["trials"]
        size, cap = policy["batch_size"], policy["max_trials"]
        n_batches = math.ceil(cap / size)
        threads = spec["threads"]
        scheme = config["scheme"]
        vector = scheme["type"] == "sm"
        if vector:
            normals_per_trial = 2 * (config["n_rx"] * scheme["n_tx"] + config["n_rx"])
        else:
            normals_per_trial = 2 * 2 * scheme["n"]
        folded = computed = trials_computed = 0
        for row in outputs:
            f = math.ceil(row["trials"] / size)
            c = f if threads == 1 else min(n_batches, math.ceil(f / threads) * threads)
            folded += f
            computed += c
            trials_computed += sum(min(size, cap - b * size) for b in range(c))
        return {
            "harness.batches_folded": folded,
            "harness.batches_computed": computed,
            "channel.normal_samples": trials_computed * normals_per_trial,
            "detection.hypotheses": trials_computed * facts["codewords"] if vector else 0,
        }
    if kind == "capacity":
        return {"channel.normal_samples":
                sum(2 * r["trials"] * r["nt"] * r["nr"] for r in outputs)}
    return {
        "aperture.directions": len(outputs) * facts["grid_directions"],
        "aperture.csv_bytes": facts["csv_bytes"],
        "metaatom.lookups": len(outputs) * facts["table_states"],
    }
