"""Bit-error counts of one fixed-seed batch per transmit model.

The counts are those of the exhaustive hypothesis-search detector the
sufficient-statistic detector replaced; a change in any of them means a
changed decision or a changed random stream.
"""

import pytest

from risim.harness import parse_config, run_ber

CASES = {
    "vector_sm4_qpsk": ({"type": "sm", "n_tx": 4, "order": 4, "constellation": "psk"},
                        {"model": "rayleigh"}, 2, [4922, 616]),
    "vector_qsm_rician": ({"type": "qsm", "n_tx": 4, "order": 4},
                          {"model": "rician", "K": 1.0}, 2, [8231, 2114]),
    "vector_gsm": ({"type": "gsm", "n_tx": 4, "n_active": 2, "order": 4, "constellation": "psk"},
                   {"model": "rayleigh"}, 2, [4539, 624]),
    "subcarrier_ofdm_im": ({"type": "ofdm_im", "n": 4, "k": 2, "order": 2},
                           {"model": "rayleigh"}, 1, [3426, 325]),
    "matrix_stsk": ({"type": "stsk", "q_matrices": 4, "p_active": 2, "order": 4,
                     "n_tx": 2, "n_slots": 2}, {"model": "rayleigh"}, 2, [7033, 944]),
    "state_mbm": ({"type": "mbm", "num_states": 8, "order": 2},
                  {"model": "rayleigh"}, 2, [4944, 677]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bit_errors_of_one_batch(case):
    scheme, channel, n_rx, expected = CASES[case]
    config = parse_config({
        "experiment": "ber", "scheme": scheme, "channel": channel, "n_rx": n_rx,
        "snr_db": [0, 10], "seed": 11,
        "trials": {"max_trials": 4096, "min_errors": 1, "batch_size": 4096},
    })
    curve = run_ber(config)
    assert [p.trials for p in curve.points] == [4096, 4096]
    assert [p.bit_errors for p in curve.points] == expected
