import json
from pathlib import Path
import math

import numpy as np
import pytest

from risim.channel import stream_rng
from risim.errors import ConfigError
from risim.harness import (
    BerCurve,
    ExperimentConfig,
    capacity_csv,
    codebook_csv,
    parse_config,
    run_ber,
    run_capacity,
    run_harmonics,
    run_pattern,
)


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_config(scheme, channel, snr_db, *, n_rx=1, seed=1, max_trials=200_000,
               min_errors=10 ** 9, batch_size=65_536):
    return parse_config({
        "experiment": "ber",
        "scheme": scheme,
        "channel": channel,
        "n_rx": n_rx,
        "snr_db": snr_db,
        "seed": seed,
        "trials": {"max_trials": max_trials, "min_errors": min_errors,
                   "batch_size": batch_size},
    })


class TestParseConfig:
    def test_minimal_valid_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "experiment": "ber",
            "scheme": {"type": "psk", "order": 2},
            "channel": {"model": "rayleigh"},
            "snr_db": [0, 10],
        }))
        config = parse_config(path)
        assert config.experiment == "ber"
        assert config.snr_db == (0.0, 10.0)
        assert config.trials.min_errors == 200

    def test_unknown_key_named_with_path(self):
        with pytest.raises(ConfigError, match="channel.kfactor"):
            parse_config({
                "experiment": "ber",
                "scheme": {"type": "psk", "order": 2},
                "channel": {"model": "rayleigh", "kfactor": 1},
                "snr_db": [0],
            })

    def test_infeasible_scheme_surfaces_before_trials(self):
        with pytest.raises(ConfigError):
            parse_config({
                "experiment": "ber",
                "scheme": {"type": "ofdm_im", "n": 4, "k": 6, "order": 2},
                "channel": {"model": "rayleigh"},
                "snr_db": [0],
            })

    def test_rician_requires_k(self):
        with pytest.raises(ConfigError, match="channel.K"):
            parse_config({
                "experiment": "ber",
                "scheme": {"type": "psk", "order": 2},
                "channel": {"model": "rician"},
                "snr_db": [0],
            })

    def test_awgn_rejects_multiantenna_schemes(self):
        with pytest.raises(ConfigError, match="awgn"):
            parse_config({
                "experiment": "ber",
                "scheme": {"type": "sm", "n_tx": 4, "order": 4},
                "channel": {"model": "awgn"},
                "snr_db": [0],
            })

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({
                "experiment": "ber",
                "scheme": {"type": "psk", "order": 2},
                "channel": {"model": "awgn"},
                "snr_db": [0],
                "seed": -1,
            })

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config({"experiment": "plot"})

    def test_state_scheme_rejects_rician(self):
        with pytest.raises(ConfigError, match="per-state"):
            parse_config({
                "experiment": "ber",
                "scheme": {"type": "mbm", "num_states": 4},
                "channel": {"model": "rician", "K": 1.0},
                "snr_db": [0],
            })

    def test_analytic_scheme_rejected_for_ber(self):
        with pytest.raises(ConfigError, match="harmonic"):
            parse_config({
                "experiment": "ber",
                "scheme": {"type": "sim_ook", "harmonics": [-1, 1], "order": 1},
                "channel": {"model": "rayleigh"},
                "snr_db": [0],
            })

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(bad)


class TestRunBer:
    def test_bpsk_awgn_matches_q_function(self):
        config = ber_config({"type": "psk", "order": 2}, {"model": "awgn"}, [4.0],
                            max_trials=400_000)
        point = run_ber(config).points[0]
        snr = 10 ** 0.4
        p = qfunc(math.sqrt(2 * snr))
        sigma = math.sqrt(p * (1 - p) / point.trials)
        assert abs(point.ber - p) <= 3 * sigma

    def test_early_stop_remains_unbiased(self):
        # stop at min_errors, still matching the closed form within 3 sigma
        config = ber_config({"type": "psk", "order": 2}, {"model": "awgn"}, [6.0],
                            max_trials=2_000_000, min_errors=200, batch_size=8_192)
        point = run_ber(config).points[0]
        p = qfunc(math.sqrt(2 * 10 ** 0.6))
        sigma = math.sqrt(p * (1 - p) / (point.trials))
        assert point.bit_errors >= 200
        assert point.trials < 2_000_000
        assert abs(point.ber - p) <= 3 * sigma

    def test_deep_noise_floor_approaches_coin_flip(self):
        # at -30 dB the closed form still gives 0.4842, not 0.5: the MLD keeps
        # a sliver of SNR advantage; the guessing asymptote holds by -40 dB
        config = ber_config({"type": "psk", "order": 2}, {"model": "rayleigh"},
                            [-30.0, -40.0], max_trials=100_000)
        points = run_ber(config).points
        for point in points:
            gbar = 10 ** (point.snr_db / 10)
            closed = 0.5 * (1 - math.sqrt(gbar / (1 + gbar)))
            assert point.ber == pytest.approx(closed, abs=0.005)
        assert points[1].ber == pytest.approx(0.5, abs=0.01)

    def test_thread_count_does_not_change_results(self, tmp_path):
        config = ber_config({"type": "sm", "n_tx": 2, "order": 2},
                            {"model": "rayleigh"}, [0.0, 6.0], n_rx=2,
                            max_trials=300_000, min_errors=500, batch_size=16_384)
        serial = run_ber(config, threads=1)
        threaded = run_ber(config, threads=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        serial.to_csv(a)
        threaded.to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_same_seed_same_bytes(self, tmp_path):
        config = ber_config({"type": "psk", "order": 4}, {"model": "rayleigh"}, [5.0],
                            max_trials=100_000)
        one, two = tmp_path / "1.csv", tmp_path / "2.csv"
        run_ber(config).to_csv(one)
        run_ber(config).to_csv(two)
        assert one.read_bytes() == two.read_bytes()

    def test_curve_monotone_beyond_ci_overlap(self):
        config = ber_config({"type": "psk", "order": 2}, {"model": "rayleigh"},
                            [0, 5, 10, 15], max_trials=150_000)
        points = run_ber(config).points
        for lo, hi in zip(points, points[1:]):
            assert hi.ci_low <= lo.ci_high  # no statistically-significant increase

    def test_rician_k0_bitwise_equals_rayleigh(self):
        base = dict(max_trials=100_000)
        k0 = ber_config({"type": "sm", "n_tx": 2, "order": 2},
                        {"model": "rician", "K": 0.0}, [8.0], n_rx=2, **base)
        ray = ber_config({"type": "sm", "n_tx": 2, "order": 2},
                         {"model": "rayleigh"}, [8.0], n_rx=2, **base)
        assert run_ber(k0) == run_ber(ray)

    def test_state_and_matrix_models_run(self):
        mbm = ber_config({"type": "mbm", "num_states": 4, "order": 2},
                         {"model": "rayleigh"}, [15.0], n_rx=2,
                         max_trials=20_000)
        assert run_ber(mbm).points[0].ber < 0.2
        stsk = ber_config({"type": "stsk", "q_matrices": 4, "p_active": 1,
                           "order": 2, "n_tx": 2, "n_slots": 2},
                          {"model": "rayleigh"}, [15.0], n_rx=2,
                          max_trials=20_000)
        assert run_ber(stsk).points[0].ber < 0.2


class TestRunners:
    def test_capacity_rows_and_csv(self, tmp_path):
        config = parse_config({
            "experiment": "capacity",
            "antennas": [[1, 1], [2, 2]],
            "snr_db": [0, 10],
            "trials": 2_000,
            "seed": 5,
        })
        rows = run_capacity(config)
        assert len(rows) == 4
        assert rows[0][3] < rows[1][3]  # capacity grows with SNR
        path = tmp_path / "cap.csv"
        capacity_csv(rows, path)
        assert path.read_text().splitlines()[0] == "nt,nr,snr_db,capacity_bit_s_hz,std_err,trials"

    def test_pattern_outputs(self, tmp_path):
        config = parse_config({
            "experiment": "pattern",
            "geometry": {"rows": 8, "cols": 8, "dx_mm": 2.8, "dy_mm": 2.8,
                         "fc_ghz": 28.0},
            "scan_angles_deg": [0, 30],
            "period_cells": 4,
            "grid": {"theta_step_deg": 2.0, "phi_step_deg": 4.0},
            "output_dir": "pat",
        })
        files = run_pattern(config, tmp_path)
        assert (tmp_path / "pat" / "summary.csv").exists()
        summary = (tmp_path / "pat" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        cmd, pred, peak = summary[2].split(",")[:3]
        assert float(peak) == pytest.approx(float(pred), abs=2.0)
        assert all(f.exists() for f in files)

    def test_pattern_atom_loss_coupling(self, tmp_path):
        config = parse_config({
            "experiment": "pattern",
            "geometry": {"rows": 4, "cols": 4, "dx_mm": 2.8, "dy_mm": 2.8,
                         "fc_ghz": 28.0},
            "scan_angles_deg": [15],
            "period_cells": 4,
            "grid": {"theta_step_deg": 5.0, "phi_step_deg": 10.0},
            "couple_atom_loss": True,
            "output_dir": "pat",
        })
        files = run_pattern(config, tmp_path)
        coding = np.loadtxt([f for f in files if "coding" in f.name][0], delimiter=",")
        assert coding.shape == (4, 4)

    def test_pattern_rejects_unreachable_angle(self, tmp_path):
        with pytest.raises(ConfigError, match="range"):
            parse_config({
                "experiment": "pattern",
                "geometry": {"rows": 8, "cols": 8, "dx_mm": 2.8, "dy_mm": 2.8,
                             "fc_ghz": 28.0},
                "scan_angles_deg": [80],
                "period_cells": 8,
                "output_dir": "pat",
            })

    def test_harmonics_outputs(self, tmp_path):
        config = parse_config({
            "experiment": "harmonics",
            "num_steps": 16,
            "single_harmonics": [-1, 1],
            "shift_fractions": [0.0, 0.25],
            "multi_targets": [[[1, 0.7], [-1, 0.7]]],
            "output_dir": "harm",
        })
        run_harmonics(config, tmp_path)
        summary = (tmp_path / "harm" / "summary.csv").read_text().splitlines()
        assert summary[0] == "kind,param,dominant_m,dominant_mag,residual"
        assert len(summary) == 6
        assert (tmp_path / "harm" / "spectrum_m+1.csv").exists()

    def test_harmonics_rejects_fractional_step(self, tmp_path):
        config = parse_config({
            "experiment": "harmonics",
            "num_steps": 16,
            "shift_fractions": [0.3],
            "output_dir": "harm",
        })
        with pytest.raises(ConfigError, match="integer"):
            run_harmonics(config, tmp_path)

    def test_codebook_csv(self, tmp_path):
        path = tmp_path / "book.csv"
        codebook_csv({"type": "sm", "n_tx": 2, "order": 2}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bits,indices,symbols"
        assert len(lines) == 5


SHIPPED_BER_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("ber_*.json")
)


@pytest.mark.parametrize("config_path", SHIPPED_BER_CONFIGS,
                         ids=[p.stem for p in SHIPPED_BER_CONFIGS])
def test_shipped_curves_monotone_beyond_ci_overlap(config_path):
    # sanity gate: no statistically-significant BER increase with SNR
    points = run_ber(parse_config(config_path)).points
    for lo, hi in zip(points, points[1:]):
        assert hi.ci_low <= lo.ci_high, (
            f"{config_path.name}: BER rises from {lo.snr_db} to {hi.snr_db} dB"
        )


def test_ber_curve_csv_format(tmp_path):
    config = ber_config({"type": "psk", "order": 2}, {"model": "awgn"}, [0.0],
                        max_trials=10_000)
    path = tmp_path / "c.csv"
    run_ber(config).to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr_db,trials,bit_errors,ber,ci_low,ci_high"
    fields = lines[1].split(",")
    assert len(fields) == 6
    assert int(fields[1]) == 10_000


class _KeyedGenerator:
    """A stream generator that remembers its (seed, point, batch) key."""

    def __init__(self, *key):
        self.key = key
        self._rng = stream_rng(*key)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestBatchScheduler:
    # AWGN BPSK, 1024-trial batches, at most 7 (the last one short): -10 dB
    # stops in its first batch, 0 dB after about 4, 3 dB and 30 dB run to
    # max_trials
    CONFIG = dict(max_trials=7 * 1024 - 100, min_errors=300, batch_size=1024)
    SNR_DB = [-10.0, 0.0, 3.0, 30.0, -10.0]

    def run(self, monkeypatch, threads):
        from risim import harness

        computed = []
        simulate = harness._BerModel.simulate

        def recording(model, rng, batch, snr):
            computed.append(rng.key[1:])
            return simulate(model, rng, batch, snr)

        monkeypatch.setattr(harness, "stream_rng", _KeyedGenerator)
        monkeypatch.setattr(harness._BerModel, "simulate", recording)
        config = ber_config({"type": "psk", "order": 2}, {"model": "awgn"}, self.SNR_DB,
                            **self.CONFIG)
        return run_ber(config, threads=threads), computed

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_computed_batches_follow_the_wave_rule(self, monkeypatch, threads):
        curve, computed = self.run(monkeypatch, threads)
        n_batches = 7
        folded = [math.ceil(p.trials / 1024) for p in curve.points]
        assert folded[0] == 1 and 1 < folded[1] < n_batches and folded[2] == n_batches
        expected = {(p, b) for p, n in enumerate(folded)
                    for b in range(min(n_batches, math.ceil(n / threads) * threads))}
        assert len(computed) == len(set(computed))
        assert set(computed) == expected

    def test_results_identical_at_every_thread_count(self, monkeypatch, tmp_path):
        outputs = []
        for threads in (1, 2, 3, 4):
            path = tmp_path / f"t{threads}.csv"
            self.run(monkeypatch, threads)[0].to_csv(path)
            outputs.append(path.read_bytes())
        assert outputs == [outputs[0]] * 4

    def test_batch_failure_propagates(self, monkeypatch):
        from risim import harness

        def failing(model, rng, batch, snr):
            raise RuntimeError("batch failed")

        monkeypatch.setattr(harness._BerModel, "simulate", failing)
        config = ber_config({"type": "psk", "order": 2}, {"model": "awgn"}, self.SNR_DB,
                            **self.CONFIG)
        with pytest.raises(RuntimeError, match="batch failed"):
            run_ber(config, threads=2)


@pytest.mark.parametrize("k_factor", [None, 0.0])
def test_channel_draw_bitwise_equals_two_normal_draws(k_factor):
    from risim.harness import ChannelSpec, _BerModel
    from risim.im_schemes import SpatialModulation

    channel = (ChannelSpec("rayleigh") if k_factor is None
               else ChannelSpec("rician", k_factor))
    model = _BerModel(SpatialModulation(2, 2), channel, 2)
    shape = (4096, 2, 2)
    h = model._draw_channel(stream_rng(5, 0, 0), shape)
    rng = stream_rng(5, 0, 0)
    old = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    assert h.tobytes() == old.tobytes()
