"""Malformed values that must fail at parse time with exit code 2."""

import json

import pytest

from risim.cli import main
from risim.errors import ConfigError
from risim.harness import parse_config


def rician_config(k):
    return {
        "experiment": "ber",
        "scheme": {"type": "sm", "n_tx": 2, "order": 2},
        "channel": {"model": "rician", "K": k},
        "n_rx": 2,
        "snr_db": [10],
        "trials": {"max_trials": 1000, "min_errors": 10},
        "output": "curve.csv",
    }


@pytest.mark.parametrize("k", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_k_factor_exits_2(tmp_path, capsys, k):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(rician_config(k)))  # writes NaN / Infinity
    assert main(["ber", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "channel.K" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("key", ["n_rx", "seed", "trials.min_errors"])
def test_json_booleans_rejected_for_integer_keys(tmp_path, capsys, key):
    cfg = rician_config(1.0)
    section, _, name = key.rpartition(".")
    (cfg[section] if section else cfg)[name] = True
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["ber", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"{key} must be int" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)

