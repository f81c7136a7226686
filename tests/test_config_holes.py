"""Malformed values that must fail at parse time with exit code 2."""

import json
import math
import tracemalloc
from pathlib import Path

import pytest

from risim import aperture, detection, harness, im_schemes, spacetime
from risim.cli import main
from risim.errors import ConfigError
from risim.harness import (MAX_BATCH_SIZE, MAX_PATTERN_SWEEP_BYTES, MAX_RUN_BYTES,
                           _codeword_length, parse_config, run_harmonics)


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



def pattern_config(**changes):
    cfg = {
        "experiment": "pattern",
        "geometry": {"rows": 4, "cols": 4, "dx_mm": 5.0, "dy_mm": 5.0, "fc_ghz": 28.0},
        "scan_angles_deg": [10],
        "grid": {"theta_step_deg": 10.0, "phi_step_deg": 30.0},
        "output_dir": "patterns",
    }
    for key, value in changes.items():
        section, _, name = key.rpartition(".")
        (cfg[section] if section else cfg)[name] = value
    return cfg


def assert_exit_2(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))  # writes NaN / Infinity for non-finite floats
    out = [] if command == "rate" else ["--out", str(tmp_path)]  # rate writes nothing
    assert main([command, "--config", str(path), *out]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "patterns").exists()
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)


@pytest.mark.parametrize("key, value", [
    ("geometry.rows", 0),
    ("geometry.cols", -1),
    ("geometry.dx_mm", 0.0),
    ("geometry.dy_mm", -2.0),
    ("geometry.fc_ghz", float("nan")),
    ("geometry.fc_ghz", float("inf")),
    ("grid.theta_step_deg", 0),
    ("grid.phi_step_deg", float("nan")),
    ("quantize_bits", 0),
    ("period_cells", 0),
    ("element_exponent", float("nan")),
    ("scan_angles_deg", ["ten"]),
    ("scan_angles_deg", [float("nan")]),
    ("scan_angles_deg", [True]),
    ("scan_angles_deg", [-5]),
    # 0 m once converted from mm, and an infinite carrier in Hz
    ("geometry.dx_mm", 5e-324),
    ("geometry.dy_mm", 5e-324),
    ("geometry.fc_ghz", 1e308),
])
def test_bad_pattern_values_exit_2(tmp_path, capsys, key, value):
    assert_exit_2(tmp_path, capsys, "pattern", pattern_config(**{key: value}), key)


@pytest.mark.parametrize("key", ["grid.theta_step_deg", "grid.phi_step_deg"])
def test_subnormal_grid_step_exits_2(tmp_path, capsys, key):
    # the direction count used to overflow and raise OverflowError
    assert_exit_2(tmp_path, capsys, "pattern", pattern_config(**{key: 5e-324}), "grid")


def test_pattern_config_accepts_valid_edges():
    cfg = pattern_config(scan_angles_deg=[0, 10.5], quantize_bits=1, period_cells=1,
                         element_exponent=0)
    parse_config(cfg)


def test_json_boolean_snr_entry_rejected(tmp_path, capsys):
    cfg = rician_config(1.0)
    cfg["snr_db"] = [10, True]
    assert_exit_2(tmp_path, capsys, "ber", cfg, "snr_db")


@pytest.mark.parametrize("pair", [[True, 2], [2, True]])
def test_json_boolean_antenna_count_rejected(tmp_path, capsys, pair):
    cfg = {"experiment": "capacity", "antennas": [[1, 1], pair], "snr_db": [0],
           "trials": 100, "output": "capacity.csv"}
    assert_exit_2(tmp_path, capsys, "capacity", cfg, "antennas")


@pytest.mark.parametrize("scheme, key", [
    ({"type": "sm", "n_tx": True, "order": 2}, "scheme.n_tx"),
    ({"type": "sm", "n_tx": 2, "order": True}, "scheme.order"),
    ({"type": "ofdm_im", "n": 4, "k": True, "order": 2}, "scheme.k"),
    ({"type": "stsk", "q_matrices": 4, "order": 2, "n_tx": 2, "n_slots": 2,
      "dispersion_seed": False}, "scheme.dispersion_seed"),
])
def test_json_boolean_scheme_parameters_rejected(tmp_path, capsys, scheme, key):
    cfg = rician_config(1.0)
    cfg["channel"] = {"model": "rayleigh"}
    cfg["scheme"] = scheme
    assert_exit_2(tmp_path, capsys, "ber", cfg, key)


@pytest.mark.parametrize("scheme, key", [
    ({"type": "qsm", "n_tx": True, "order": 4}, "scheme.n_tx"),
    ({"type": "ra_ssk", "n_tx": 2, "states_per_antenna": [2, True]},
     "scheme.states_per_antenna"),
])
def test_json_boolean_rate_only_parameters_rejected(tmp_path, capsys, scheme, key):
    cfg = {"experiment": "rate", "scheme": scheme}
    assert_exit_2(tmp_path, capsys, "rate", cfg, key)


def test_int_list_without_lower_bound_is_not_called_finite(tmp_path, capsys):
    # "finite" is said only of keys that take floats
    cfg = {"experiment": "rate", "scheme": {"type": "sim_ook", "harmonics": ["1", 2]}}
    assert_exit_2(tmp_path, capsys, "rate", cfg,
                  "scheme.harmonics entries must be int, got '1'")


@pytest.mark.parametrize("key, value", [
    ("grid.theta_step_deg", 120),
    ("grid.theta_step_deg", 90.5),
    ("grid.phi_step_deg", 400),
    ("grid.phi_step_deg", 360),
    ("quantize_bits", 2000),
    ("quantize_bits", 53),
])
def test_pattern_values_above_their_bounds_exit_2(tmp_path, capsys, key, value):
    assert_exit_2(tmp_path, capsys, "pattern", pattern_config(**{key: value}), key)


def test_pattern_upper_edges_run(tmp_path):
    cfg = pattern_config(quantize_bits=52, **{"grid.theta_step_deg": 90,
                                              "grid.phi_step_deg": 359.5})
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["pattern", "--config", str(path), "--out", str(tmp_path)]) == 0


def harmonics_config(**changes):
    return {"experiment": "harmonics", "num_steps": 16, "output_dir": "patterns", **changes}


@pytest.mark.parametrize("key, value", [
    ("single_harmonics", [True]),
    ("single_harmonics", [1.5]),
    ("single_harmonics", 3),
    ("single_harmonics", [8]),
    ("single_harmonics", [-8]),
    ("shift_fractions", [True]),
    ("shift_fractions", [float("nan")]),
    ("shift_fractions", 0.25),
    ("multi_targets", 5),
    ("multi_targets", [5]),
    ("multi_targets", [[5]]),
    ("multi_targets", [[[True, 0.5]]]),
    ("multi_targets", [[[1, False]]]),
    ("multi_targets", [[[1, [0.5, True]]]]),
    ("multi_targets", [[[1, "0.5"]]]),
    ("multi_targets", [[[8, 0.5]]]),
    ("multi_targets", [[[1, 0.6], [1, 0.1]]]),
    ("multi_targets", [[[1, 0.8], [2, 0.8]]]),
    ("harmonic_range", -1),
    ("num_steps", 1),
])
def test_bad_harmonics_values_exit_2(tmp_path, capsys, key, value):
    # output_dir "patterns" lets assert_exit_2 check that nothing was written
    assert_exit_2(tmp_path, capsys, "harmonics", harmonics_config(**{key: value}), key)


def test_fractional_shift_exits_2_before_any_file(tmp_path, capsys):
    # the runner used to write the single-harmonic files, then stop at the shift
    cfg = harmonics_config(single_harmonics=[1], shift_fractions=[0.3])
    assert_exit_2(tmp_path, capsys, "harmonics", cfg, "shift_fractions")
    assert not [p for p in tmp_path.rglob("*") if p.name != "exp.json"]


def test_shift_at_two_steps_exits_2(tmp_path, capsys):
    # a shift delays the harmonic-1 ramp, which aliases at two steps: this
    # config used to parse and then stop the run with exit 3
    cfg = harmonics_config(num_steps=2, shift_fractions=[0.5])
    assert_exit_2(tmp_path, capsys, "harmonics", cfg, "shift_fractions")


def test_shift_at_three_steps_runs(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(harmonics_config(num_steps=3, shift_fractions=[1 / 3])))
    assert main(["harmonics", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "patterns" / "spectrum_shift0.333.csv").exists()


@pytest.mark.parametrize("text", [
    '{"experiment": "rate", "seed": 1' + "0" * 5000 + "}",  # past int's digit limit
    '{"experiment": "rate", "scheme": ' + "[" * 200_000 + "]" * 200_000 + "}",
    b"\xff",                                                # not UTF-8
], ids=["5000-digit-seed", "200000-deep-array", "byte-0xff"])
def test_malformed_config_file_exits_2(tmp_path, capsys, text):
    # each of these used to escape parse_config as a raw error and exit 3
    path = tmp_path / "exp.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["rate", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(path)


@pytest.mark.parametrize("changes, key", [
    ({"harmonic_range": 322_006}, "harmonic_range"),
    ({"harmonic_range": 10 ** 12}, "harmonic_range"),
    ({"num_steps": 2887}, "num_steps"),
    ({"num_steps": 1 << 22}, "num_steps"),
    ({"num_steps": 1 << 22, "harmonic_range": 0}, "harmonic_range"),
])
def test_harmonics_over_the_byte_budget_exit_2(tmp_path, capsys, changes, key):
    cfg = harmonics_config(single_harmonics=[1], **changes)
    m_range = cfg.get("harmonic_range", cfg["num_steps"])
    assert spacetime.spectrum_bytes(cfg["num_steps"], m_range) > MAX_RUN_BYTES
    assert_exit_2(tmp_path, capsys, "harmonics", cfg, key)
    with pytest.raises(ConfigError, match=str(MAX_RUN_BYTES)):
        parse_config(cfg)


@pytest.mark.parametrize("changes", [{"harmonic_range": 322_005}, {"num_steps": 2886}])
def test_harmonics_just_under_the_byte_budget_parse(changes):
    config = parse_config(harmonics_config(single_harmonics=[1], **changes))
    m_range = config.num_steps if config.harmonic_range is None else config.harmonic_range
    assert spacetime.spectrum_bytes(config.num_steps, m_range) <= MAX_RUN_BYTES


@pytest.mark.parametrize("num_steps, m_range", [(4, 4096), (256, 256), (4096, 4)])
def test_harmonics_run_stays_within_its_byte_estimate(tmp_path, num_steps, m_range):
    config = parse_config(harmonics_config(
        num_steps=num_steps, harmonic_range=m_range, single_harmonics=[1],
        shift_fractions=[0.5], multi_targets=[[[1, 0.7], [-1, 0.7]]]))
    tracemalloc.start()
    try:
        run_harmonics(config, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spacetime.spectrum_bytes(num_steps, m_range)


def test_harmonics_config_accepts_valid_edges():
    config = parse_config(harmonics_config(
        single_harmonics=[-7, 0, 7], shift_fractions=[0, 0.5],
        multi_targets=[[[7, [0.6, 0.0]], [-7, 0.8]], []], harmonic_range=0))
    assert config.single_harmonics == (-7, 0, 7)
    assert config.multi_targets == (((7, 0.6 + 0j), (-7, 0.8 + 0j)), ())


def test_pattern_over_the_sweep_budget_exits_2(tmp_path, capsys):
    # 1 deg grid: 32,760 directions at 16 * (rows + cols) + 64 bytes each
    cfg = pattern_config(**{"geometry.rows": 1001, "geometry.cols": 20,
                            "grid.theta_step_deg": 1.0, "grid.phi_step_deg": 1.0})
    assert aperture.sweep_bytes(1001, 20, 32_760) > MAX_PATTERN_SWEEP_BYTES
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["pattern", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "grid" in err and str(MAX_PATTERN_SWEEP_BYTES) in err
    assert not (tmp_path / "patterns").exists()


def test_pattern_just_under_the_sweep_budget_parses():
    cfg = pattern_config(**{"geometry.rows": 1000, "geometry.cols": 20,
                            "grid.theta_step_deg": 1.0, "grid.phi_step_deg": 1.0})
    assert aperture.sweep_bytes(1000, 20, 32_760) <= MAX_PATTERN_SWEEP_BYTES
    parse_config(cfg)


@pytest.mark.parametrize("steps", [(1.0, 1.0), (0.5, 0.75), (0.3, 0.7), (7.0, 359.5),
                                   (90.0, 0.11), (1 / 3, 1 / 3)])
def test_direction_count_matches_direction_grid(steps):
    theta, phi = aperture.direction_grid(*steps)
    assert aperture.direction_count(*steps) == theta.size * phi.size


def ber_config(scheme, **trials):
    return {"experiment": "ber", "scheme": scheme, "channel": {"model": "rayleigh"},
            "snr_db": [10], "trials": {"max_trials": 1000, "min_errors": 10, **trials},
            "output": "curve.csv"}


BIG_GSM = {"type": "gsm", "n_tx": 30, "n_active": 15, "order": 4}  # 2^29 codewords


@pytest.mark.parametrize("command, cfg", [
    ("ber", ber_config(BIG_GSM)),
    ("ber", ber_config({"type": "psk", "order": 1 << 17})),
    ("codebook", {"experiment": "codebook", "scheme": BIG_GSM, "output": "book.csv"}),
])
def test_scheme_with_too_many_codewords_exits_2(tmp_path, capsys, command, cfg):
    assert_exit_2(tmp_path, capsys, command, cfg, "scheme")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["ber", "codebook", "rate"])
@pytest.mark.parametrize("scheme, key", [([1], "scheme"), ("sm", "scheme"),
                                         ({"type": ["sm"]}, "scheme.type")])
def test_malformed_scheme_exits_2(tmp_path, capsys, command, scheme, key):
    # these used to raise AttributeError or TypeError and exit 3
    cfg = (ber_config(scheme) if command == "ber"
           else {"experiment": command, "scheme": scheme, "output": "book.csv"})
    assert_exit_2(tmp_path, capsys, command, cfg, key)


@pytest.mark.parametrize("batch_size", [MAX_BATCH_SIZE + 1, 4_000_000_000])
def test_batch_size_over_its_bound_exits_2(tmp_path, capsys, batch_size):
    cfg = ber_config({"type": "psk", "order": 2}, batch_size=batch_size)
    assert_exit_2(tmp_path, capsys, "ber", cfg, "trials.batch_size")


def test_ber_size_guards_accept_their_edges(tmp_path, capsys):
    config = parse_config(ber_config({"type": "psk", "order": 1 << 16},
                                     batch_size=MAX_BATCH_SIZE))
    assert config.trials.batch_size == MAX_BATCH_SIZE
    parse_config({"experiment": "codebook", "scheme": {"type": "psk", "order": 1 << 16}})
    # rate is formula-only, so the codebook bound does not apply
    path = tmp_path / "rate.json"
    path.write_text(json.dumps({"experiment": "rate", "scheme": BIG_GSM}))
    assert main(["rate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "29.000000"


def capacity_config(antennas, trials):
    return {"experiment": "capacity", "antennas": antennas, "snr_db": [0],
            "trials": trials, "output": "capacity.csv"}


@pytest.mark.parametrize("trials", [(MAX_RUN_BYTES // 8) + 1, 1_000_000_000_000])
def test_capacity_trials_over_the_byte_budget_exit_2(tmp_path, capsys, trials):
    assert_exit_2(tmp_path, capsys, "capacity", capacity_config([[1, 1]], trials), "trials")
    assert not (tmp_path / "capacity.csv").exists()


@pytest.mark.parametrize("pair, trials", [([128, 128], 20_000), ([4096, 4096], 50_000),
                                          ([1, 2364], 2)])
def test_capacity_antennas_over_the_byte_budget_exit_2(tmp_path, capsys, pair, trials):
    assert detection.capacity_batch_bytes(*pair, trials) > MAX_RUN_BYTES
    cfg = capacity_config([[1, 1], pair], trials)
    assert_exit_2(tmp_path, capsys, "capacity", cfg, "antennas")
    assert not (tmp_path / "capacity.csv").exists()


@pytest.mark.parametrize("pair, trials", [([127, 127], 20_000), ([1, 2363], 2),
                                          ([1, 1], MAX_RUN_BYTES // 8)])
def test_capacity_just_under_the_byte_budget_parses(pair, trials):
    assert detection.capacity_batch_bytes(*pair, trials) <= MAX_RUN_BYTES
    config = parse_config(capacity_config([pair], trials))
    assert config.antennas == (tuple(pair),) and config.capacity_trials == trials


@pytest.mark.parametrize("scheme", [
    {"type": "ssk", "n_tx": 65536},                      # 2^16 codewords of 2^16 entries
    {"type": "sm", "n_tx": 4096, "order": 4},            # 16 * 2^12 * 2^14 = 2^30 bytes
])
def test_ber_codebook_over_the_byte_budget_exits_2(tmp_path, capsys, scheme):
    cfg = ber_config(scheme, max_trials=1, batch_size=1)
    assert_exit_2(tmp_path, capsys, "ber", cfg, "scheme")
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("n_rx", [513, 1_000_000])
def test_ber_channel_draw_over_the_byte_budget_exits_2(tmp_path, capsys, n_rx):
    # BPSK at 2^16 trials per batch: 16 * 2^16 * n_rx bytes, 2^29 at n_rx = 512
    cfg = ber_config({"type": "psk", "order": 2}, max_trials=1 << 20, batch_size=1 << 16)
    cfg["n_rx"] = n_rx
    assert_exit_2(tmp_path, capsys, "ber", cfg, "n_rx")
    assert not (tmp_path / "curve.csv").exists()


def test_ber_byte_budget_accepts_its_edges():
    # 16 * 2^12 * 2^13 = 2^29 bytes of codebook
    parse_config(ber_config({"type": "sm", "n_tx": 4096, "order": 2},
                            max_trials=1, batch_size=1))
    cfg = ber_config({"type": "psk", "order": 2}, max_trials=1 << 20, batch_size=1 << 16)
    cfg["n_rx"] = 512
    assert parse_config(cfg).n_rx == 512
    # a batch never holds more than max_trials trials
    cfg["n_rx"], cfg["trials"]["max_trials"] = 1024, 1 << 15
    assert parse_config(cfg).n_rx == 1024


@pytest.mark.parametrize("rows, cols", [(2048, 2049), (100_000, 100_000),
                                       pytest.param(10 ** 400, 1, id="1e400-1")])
def test_pattern_elements_over_the_byte_budget_exit_2(tmp_path, capsys, rows, cols):
    # 4 directions, so only the element arrays can exceed the budget
    cfg = pattern_config(**{"geometry.rows": rows, "geometry.cols": cols,
                            "grid.theta_step_deg": 90, "grid.phi_step_deg": 359.5})
    assert aperture.element_bytes(rows, cols) > MAX_RUN_BYTES
    assert_exit_2(tmp_path, capsys, "pattern", cfg, "geometry")


def test_pattern_elements_just_under_the_byte_budget_parse():
    cfg = pattern_config(**{"geometry.rows": 2048, "geometry.cols": 2048,
                            "grid.theta_step_deg": 90, "grid.phi_step_deg": 359.5})
    assert aperture.element_bytes(2048, 2048) == MAX_RUN_BYTES
    assert parse_config(cfg).geometry["rows"] == 2048


def test_shipped_configs_stay_far_inside_the_byte_budget():
    for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json")):
        config = parse_config(path)
        if config.experiment == "ber":
            scheme = im_schemes.build_scheme(config.scheme)
            dim = _codeword_length(scheme)
            assert dim == scheme.codebook().vectors.shape[0]
            batch = min(config.trials.batch_size, config.trials.max_trials)
            need = 16 * dim * max(1 << scheme.bits_per_interval, batch * config.n_rx)
        elif config.experiment == "capacity":
            need = max(detection.capacity_batch_bytes(*pair, config.capacity_trials)
                       for pair in config.antennas)
        elif config.experiment == "pattern":
            need = aperture.element_bytes(config.geometry["rows"], config.geometry["cols"])
        else:
            continue
        assert need <= MAX_RUN_BYTES // 16, path.name


@pytest.mark.parametrize("scheme", [{"type": "ofdm_im", "n": 4, "k": 2, "order": 2},
                                    {"type": "sc_im", "slots": 4, "k": 2, "order": 2,
                                     "symbols_per_frame": 16, "cp_length": 4}])
@pytest.mark.parametrize("n_rx", [2, 4])
def test_subcarrier_schemes_with_several_receive_antennas_exit_2(tmp_path, capsys,
                                                                 scheme, n_rx):
    # their channel is one coefficient per subcarrier: more antennas would be
    # silently ignored
    cfg = {**ber_config(scheme), "n_rx": n_rx}
    assert_exit_2(tmp_path, capsys, "ber", cfg, "n_rx")
    assert parse_config({**cfg, "n_rx": 1}).n_rx == 1


@pytest.mark.parametrize("command, other", [("codebook", "rate"), ("rate", "codebook")])
def test_codebook_and_rate_take_only_their_own_experiment(tmp_path, capsys, command, other):
    # a rate config only evaluates a formula, so its scheme may have far more
    # codewords than a codebook export can build
    cfg = {"experiment": other, "scheme": {"type": "sm", "n_tx": 4, "order": 4},
           "output": "book.csv"}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = [] if command == "rate" else ["--out", str(tmp_path)]
    assert main([command, "--config", str(path), *out]) == 2
    captured = capsys.readouterr()
    assert repr(command) in captured.err and repr(other) in captured.err
    assert not captured.out
    assert not (tmp_path / "book.csv").exists()


def test_unreachable_scan_angle_exits_2_before_any_file(tmp_path, capsys):
    # 5 cells of 2.8 mm at 28 GHz steer up to about 50 deg: the run used to
    # write the 10 deg files and then stop at 90 deg
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "pattern_steering.json")
                     .read_text())
    cfg.update(scan_angles_deg=[10, 90], period_cells=5)
    assert_exit_2(tmp_path, capsys, "pattern", cfg, "scan_angles_deg")
    assert not [p for p in tmp_path.rglob("*") if p.name != "exp.json"]


SM4_QPSK = {"type": "sm", "n_tx": 4, "order": 4}


def csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_snr_grid_at_plus_minus_300_db_runs_finite(tmp_path):
    ber = {**ber_config(SM4_QPSK), "n_rx": 2, "snr_db": [-300, 300]}
    capacity = {**capacity_config([[1, 1], [4, 2]], 100), "snr_db": [-300, 300]}
    for command, cfg in (("ber", ber), ("capacity", capacity)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    curve = csv_rows(tmp_path / "curve.csv")
    assert all(math.isfinite(float(v)) for row in curve for v in row)
    assert [row[0] for row in curve] == ["-300.000000", "300.000000"]
    assert int(curve[1][2]) == 0   # no bit errors at 300 dB
    table = csv_rows(tmp_path / "capacity.csv")
    assert len(table) == 4
    assert all(math.isfinite(float(v)) for row in table for v in row)


@pytest.mark.parametrize("command", ["ber", "capacity"])
@pytest.mark.parametrize("snr", [300.5, 4000, -4000])
def test_snr_outside_plus_minus_300_db_exits_2(tmp_path, capsys, command, snr):
    # 4000 dB used to overflow to inf and write inf,nan or a BER of 0.5
    cfg = ber_config(SM4_QPSK) if command == "ber" else capacity_config([[1, 1]], 100)
    cfg["snr_db"] = [10, snr]
    assert_exit_2(tmp_path, capsys, command, cfg, "snr_db")
    assert not (tmp_path / "curve.csv").exists()
    assert not (tmp_path / "capacity.csv").exists()


def test_capacity_trials_budget_counts_the_snr_grid(tmp_path, capsys):
    # 8 bytes per SNR point and trial: 2 points of 2^25 trials fill 2^29 bytes
    cfg = {**capacity_config([[1, 1]], (MAX_RUN_BYTES // 16) + 1), "snr_db": [0, 10]}
    assert_exit_2(tmp_path, capsys, "capacity", cfg, "trials")
    assert not (tmp_path / "capacity.csv").exists()
    cfg["trials"] = MAX_RUN_BYTES // 16
    assert parse_config(cfg).capacity_trials == 1 << 25


HUGE = 10 ** 400   # past float range: num_steps / 2 used to raise OverflowError


@pytest.mark.parametrize("changes", [{"single_harmonics": [1]},
                                     {"multi_targets": [[[1, 0.5]]]}])
def test_harmonics_with_num_steps_past_float_range_exit_2(tmp_path, capsys, changes):
    assert_exit_2(tmp_path, capsys, "harmonics", harmonics_config(num_steps=HUGE, **changes),
                  "num_steps")


@pytest.mark.parametrize("scheme, code, printed", [
    ({"harmonics": [-1, 1], "order": 4, "num_steps": HUGE}, 0, "3.000000"),
    ({"harmonics": [1, HUGE], "num_steps": HUGE}, 2, ""),
])
def test_sim_ook_rate_with_num_steps_past_float_range(tmp_path, capsys, scheme, code, printed):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"experiment": "rate", "scheme": {"type": "sim_ook", **scheme}}))
    assert main(["rate", "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out.strip() == printed
    assert ("aliases" in captured.err) == (code == 2)


def test_threads_whose_batches_overrun_the_byte_budget_exit_2(tmp_path, capsys, monkeypatch):
    # one batch's channel draw is 16 * 2^16 * 200 bytes, over a third of the budget
    cfg = ber_config({"type": "psk", "order": 2}, max_trials=1 << 20, batch_size=1 << 16)
    cfg["n_rx"] = 200
    assert 3 * 16 * (1 << 16) * 200 > MAX_RUN_BYTES >= 2 * 16 * (1 << 16) * 200

    def no_pool(*args, **kwargs):
        raise RuntimeError("pool created")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    run = ["ber", "--config", str(path), "--out", str(tmp_path), "--threads"]
    assert main([*run, "3"]) == 2
    assert "--threads" in capsys.readouterr().err
    # two batches fit: the run goes on to create its pool
    assert main([*run, "2"]) == 3
    assert "pool created" in capsys.readouterr().err
    # a run of one batch never has more than that one in flight
    cfg["trials"]["max_trials"] = 1 << 16
    path.write_text(json.dumps(cfg))
    assert main([*run, "3"]) == 3
    assert "pool created" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


def test_max_trials_past_float_range_runs_to_its_stop_rule(tmp_path, capsys):
    # the batch count used to be math.ceil of a float quotient, which overflows
    cfg = {**ber_config({"type": "psk", "order": 2}, max_trials=HUGE, batch_size=1000),
           "channel": {"model": "awgn"}, "snr_db": [0]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["ber", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "curve.csv").read_text().splitlines()
    assert rows[1].split(",")[1] == "1000"   # BPSK at 0 dB errs 10 times in one batch


@pytest.mark.parametrize("command, cfg, key", [
    ("harmonics", harmonics_config(shift_fractions=[HUGE]), "shift_fractions"),
    ("harmonics", harmonics_config(multi_targets=[[[1, HUGE]]]), "multi_targets"),
    ("harmonics", harmonics_config(multi_targets=[[[1, [0, HUGE]]]]), "multi_targets"),
    ("ber", {**ber_config({"type": "psk", "order": 2}), "channel": {"model": "rician", "K": HUGE}},
     "channel.K"),
], ids=["shift", "weight", "weight-im", "K"])
def test_int_past_float_range_in_a_number_key_exits_2(tmp_path, capsys, command, cfg, key):
    # math.isfinite and float() used to raise OverflowError on such an int
    assert_exit_2(tmp_path, capsys, command, cfg, key)
