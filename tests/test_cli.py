import json
from pathlib import Path

import pytest

from risim import harness
from risim.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_rate_prints_value(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "rate",
        "scheme": {"type": "sm", "n_tx": 4, "order": 4},
    })
    assert main(["rate", "--config", cfg]) == 0
    assert capsys.readouterr().out.strip() == "4.000000"


def test_codebook_writes_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "codebook",
        "scheme": {"type": "ssk", "n_tx": 4},
        "output": "book.csv",
    })
    assert main(["codebook", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "book.csv").read_text().splitlines()
    assert lines[0] == "bits,indices,symbols"
    assert len(lines) == 5


def test_ber_writes_curve(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "ber",
        "scheme": {"type": "psk", "order": 2},
        "channel": {"model": "awgn"},
        "snr_db": [0.0],
        "seed": 2,
        "trials": {"max_trials": 20000, "min_errors": 100},
        "output": "curve.csv",
    })
    assert main(["ber", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("payload, files", [
    ({"experiment": "ber", "scheme": {"type": "psk", "order": 2},
      "channel": {"model": "rayleigh"}, "snr_db": [5.0], "seed": 2,
      "trials": {"max_trials": 20000, "min_errors": 10 ** 9}, "output": "curve.csv"},
     ["curve.csv"]),
    # the seed draws the phase of the samples a multi-tone synthesis leaves at zero
    ({"experiment": "harmonics", "num_steps": 6, "multi_targets": [[[1, 0.5], [-1, 0.5]]],
      "seed": 2},
     ["harmonics/sequence_multi0.csv", "harmonics/spectrum_multi0.csv"]),
], ids=["ber", "harmonics"])
def test_seed_override_changes_output(tmp_path, payload, files):
    cfg = write_config(tmp_path, payload)
    command = payload["experiment"]
    assert main([command, "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main([command, "--config", cfg, "--seed", "3", "--out", str(tmp_path / "b")]) == 0
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()


def test_negative_seed_override_exits_2_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "experiment": "ber",
        "scheme": {"type": "psk", "order": 2},
        "snr_db": [0.0],
    })
    assert main(["ber", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, key", [
    # a sweep draws Rayleigh channels only, so a capacity config has no channel key
    ({"experiment": "capacity", "antennas": [[1, 1]], "snr_db": [0.0], "trials": 2,
      "channel": {"model": "rayleigh"}}, "channel"),
    # a rate is printed, so a rate config has no output key
    ({"experiment": "rate", "scheme": {"type": "sm", "n_tx": 4, "order": 4},
      "output": "rate.csv"}, "output"),
    # a codebook is a table and a rate a formula, so neither draws from a seed
    ({"experiment": "codebook", "scheme": {"type": "sm", "n_tx": 4, "order": 4}, "seed": 1},
     "seed"),
    ({"experiment": "rate", "scheme": {"type": "sm", "n_tx": 4, "order": 4}, "seed": 1}, "seed"),
], ids=["capacity-channel", "rate-output", "codebook-seed", "rate-seed"])
def test_capacity_config_with_a_channel_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                                          payload, key):
    cfg = write_config(tmp_path, payload)
    monkeypatch.setenv("RISIM_OUT_DIR", str(tmp_path / "out"))   # rate takes no --out
    assert main([payload["experiment"], "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_interrupted_run_exits_3(tmp_path, monkeypatch):
    def interrupt(config, threads=1):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_ber", interrupt)
    cfg = write_config(tmp_path, {"experiment": "ber", "scheme": {"type": "psk", "order": 2},
                                  "snr_db": [0.0]})
    assert main(["ber", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["--config", "{cfg}", "--thr", "2"],
                                  ["--conf", "{cfg}"],
                                  ["--config", "{cfg}", "--se", "3"]],
                         ids=["thr", "conf", "se"])
def test_abbreviated_option_exits_2(tmp_path, capsys, args):
    cfg = write_config(tmp_path, {"experiment": "ber", "scheme": {"type": "psk", "order": 2},
                                  "channel": {"model": "awgn"}, "snr_db": [0.0],
                                  "trials": {"max_trials": 1000, "min_errors": 10}})
    argv = ["ber", *(arg.format(cfg=cfg) for arg in args), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert not capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    assert not capsys.readouterr().out


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RISIM_OUT_DIR", str(tmp_path / "env_out"))
    cfg = write_config(tmp_path, {
        "experiment": "codebook",
        "scheme": {"type": "psk", "order": 2},
        "output": "book.csv",
    })
    assert main(["codebook", "--config", cfg]) == 0
    assert (tmp_path / "env_out" / "book.csv").exists()


def test_config_error_exit_code_2(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "ber",
        "scheme": {"type": "sm", "n_tx": 3, "order": 4},  # nT not a power of two
        "channel": {"model": "rayleigh"},
        "snr_db": [0.0],
    })
    assert main(["ber", "--config", cfg]) == 2


def test_missing_config_exit_code_2(tmp_path):
    assert main(["ber", "--config", str(tmp_path / "nope.json")]) == 2


def test_wrong_experiment_type_exit_code_2(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "capacity",
        "antennas": [[1, 1]],
        "snr_db": [0.0],
    })
    assert main(["ber", "--config", cfg]) == 2


def test_pattern_and_harmonics_commands(tmp_path):
    pattern_cfg = write_config(tmp_path, {
        "experiment": "pattern",
        "geometry": {"rows": 4, "cols": 4, "dx_mm": 2.8, "dy_mm": 2.8, "fc_ghz": 28.0},
        "scan_angles_deg": [0],
        "period_cells": 4,
        "grid": {"theta_step_deg": 5.0, "phi_step_deg": 10.0},
        "output_dir": "pat",
    }, name="pattern.json")
    assert main(["pattern", "--config", pattern_cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pat" / "summary.csv").exists()

    harm_cfg = write_config(tmp_path, {
        "experiment": "harmonics",
        "num_steps": 8,
        "single_harmonics": [1],
        "output_dir": "harm",
    }, name="harm.json")
    assert main(["harmonics", "--config", harm_cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "harm" / "summary.csv").exists()


def test_capacity_command(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "capacity",
        "antennas": [[1, 1]],
        "snr_db": [10.0],
        "trials": 2000,
        "output": "cap.csv",
    })
    assert main(["capacity", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cap.csv").exists()


OUTPUT_CONFIGS = {   # one small config of each command that writes its config's output
    "ber": {"experiment": "ber", "scheme": {"type": "psk", "order": 2},
            "channel": {"model": "awgn"}, "snr_db": [0.0],
            "trials": {"max_trials": 1000, "min_errors": 10}},
    "capacity": {"experiment": "capacity", "antennas": [[2, 2]], "snr_db": [10.0],
                 "trials": 100},
    "codebook": {"experiment": "codebook", "scheme": {"type": "ssk", "n_tx": 4}},
}


@pytest.mark.parametrize("output", ["sub/x.csv", "a/b/x.csv", ".", "..", "/", "sub/.", "sub/.."])
@pytest.mark.parametrize("command", sorted(OUTPUT_CONFIGS))
def test_config_output_gets_its_directories_or_exits_2(tmp_path, capsys, command, output):
    cfg = write_config(tmp_path, {**OUTPUT_CONFIGS[command], "output": output})
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    if output.endswith(".csv"):
        assert code == 0
        assert (tmp_path / "out" / output).is_file()
    else:   # names no file: refused at parse, before anything is written
        assert code == 2
        assert "output" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", [
    "ber_awgn_bpsk.json",
    "ber_rayleigh_sm4_qpsk.json",
    "ber_rician_sm4x4_k1.json",
    "capacity_rayleigh.json",
    "pattern_steering.json",
    "harmonics_demo.json",
    "codebook_sm.json",
])
def test_shipped_configs_parse(name):
    from risim.harness import parse_config

    parse_config(CONFIGS / name)
