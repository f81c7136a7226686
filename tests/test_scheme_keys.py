"""Scheme config keys are constructor parameters, and a scheme is counted
before anything is built.

The README's scheme table must list exactly the parameters of each type's
entry in ``SCHEME_TYPES`` (and of its rate formula, if it has one).  A
scheme whose codeword count or codebook bytes are refused must be refused
without building a constellation, a pattern table or dispersion matrices,
whatever its ``order``; ``tracemalloc`` bounds what the refusal allocates.
"""

import inspect
import json
import re
import tracemalloc
from math import comb, floor, log2
from pathlib import Path

import pytest

from risim.cli import main
from risim.errors import ConfigError
from risim.harness import MAX_CODEWORDS, parse_config
from risim.im_schemes import (_RATE_FORMULAS, SCHEME_TYPES, _subset_bits, build_scheme,
                              rate_of)

README = Path(__file__).resolve().parents[1] / "README.md"
PEAK_BYTES = 1 << 20


def readme_scheme_rows() -> dict:
    """type -> the backticked parameter names of its row in the README table."""
    section = README.read_text().split("Scheme types and their parameters")[1]
    table = next(block for block in section.split("\n\n") if block.startswith("|"))
    rows = {}
    for line in table.splitlines()[2:]:
        types, params = line.strip().strip("|").split("|")
        for kind in re.findall(r"`(\w+)`", types):
            rows[kind] = set(re.findall(r"`(\w+)`", params))
    return rows


def test_readme_scheme_table_has_one_row_per_type():
    assert sorted(readme_scheme_rows()) == sorted(set(SCHEME_TYPES) | set(_RATE_FORMULAS))


@pytest.mark.parametrize("kind", sorted(set(SCHEME_TYPES) | set(_RATE_FORMULAS)))
def test_readme_scheme_table_lists_the_constructor_parameters(kind):
    listed = readme_scheme_rows()[kind]
    for table in (SCHEME_TYPES, _RATE_FORMULAS):
        if kind in table:
            assert listed == set(inspect.signature(table[kind]).parameters)


def ber_config(scheme):
    return {"experiment": "ber", "scheme": scheme, "channel": {"model": "rayleigh"},
            "snr_db": [10], "trials": {"max_trials": 1000, "min_errors": 10},
            "output": "curve.csv"}


def traced_peak(fn):
    """``fn()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refusal(scheme) -> str:
    with pytest.raises(ConfigError) as info:
        parse_config(ber_config(scheme))
    return str(info.value)


ORDER = 1 << 30


@pytest.mark.parametrize("scheme, message", [
    ({"type": "qam", "order": ORDER}, "scheme has 2^30 codewords"),
    ({"type": "psk", "order": ORDER}, "scheme has 2^30 codewords"),
    ({"type": "sm", "n_tx": 4, "order": ORDER}, "scheme has 2^32 codewords"),
    ({"type": "sim_ook", "harmonics": [-1, 1], "order": ORDER, "num_steps": ORDER},
     "scheme has 2^31 codewords"),
    # 32 codewords of 2048 x 2048 entries: 2^31 codebook bytes
    ({"type": "stsk", "q_matrices": 8, "p_active": 1, "order": 4, "n_tx": 2048,
      "n_slots": 2048}, "scheme: a codebook of 32 codewords of length 4194304"),
])
def test_oversized_scheme_is_refused_without_building_it(scheme, message):
    text, peak = traced_peak(lambda: refusal(scheme))
    assert text.startswith(message)
    assert peak < PEAK_BYTES


def test_rate_of_a_large_order_builds_nothing():
    rate, peak = traced_peak(lambda: rate_of({"type": "sm", "n_tx": 4, "order": ORDER}))
    assert rate == 32.0
    assert peak < PEAK_BYTES


@pytest.mark.parametrize("n, k", [(4, 2), (8, 4), (16, 4), (30, 15), (64, 32), (1000, 3)])
def test_subset_bits_is_floor_log2_of_the_binomial(n, k):
    assert _subset_bits(n, k) == floor(log2(comb(n, k)))


def test_subset_bits_is_exact_where_float_log2_rounds_up():
    # 2^53 - 1 rounds to 2^53 as a float, so float log2 would give 53
    assert _subset_bits(2 ** 53 - 1, 1) == 52


@pytest.mark.parametrize("scheme, n, k, symbol_bits", [
    ({"type": "gsm", "n_tx": 16384, "n_active": 8192, "order": 4}, 16384, 8192, 2),
    ({"type": "ofdm_im", "n": 2000, "k": 1000, "order": 2}, 2000, 1000, 1000),
])
def test_binomial_past_float_range_is_refused_by_its_codeword_count(scheme, n, k, symbol_bits):
    # C(n, k) is past 1e308 here, where a float log2 of it used to fail
    bits = comb(n, k).bit_length() - 1 + symbol_bits
    assert refusal(scheme) == (f"scheme has 2^{bits} codewords; "
                               f"at most {MAX_CODEWORDS} are supported")


@pytest.mark.parametrize("scheme, message", [
    ({"type": "stsk", "q_matrices": 8, "p_active": 4, "order": 4, "n_tx": 3, "n_slots": "4"},
     "scheme.n_slots"),
    ({"type": "stsk", "q_matrices": 4, "order": 2, "n_tx": [2], "n_slots": 2},
     "scheme.n_tx"),
    ({"type": "stsk", "q_matrices": 4, "order": 2, "n_tx": 2, "n_slots": 2,
      "dispersion_seed": -1}, "scheme.dispersion_seed"),
    ({"type": "sim_ook", "harmonics": [-1, 1], "order": 1.0},
     "scheme.order"),
])
def test_parameters_of_tables_built_later_are_checked_at_construction(scheme, message):
    # the dispersion matrices and SIM-OOK points are built on first use, and
    # a rate never builds them, so the constructor refuses what building
    # them would
    for fn in (build_scheme, rate_of):
        with pytest.raises(ConfigError, match=re.escape(message)):
            fn(scheme)


# one valid config per type, every parameter given
VALID = {
    "psk": {"order": 4, "constellation": "psk"},
    "qam": {"order": 16, "constellation": "qam"},
    "sm": {"n_tx": 4, "order": 4, "constellation": "psk"},
    "ssk": {"n_tx": 4},
    "gsm": {"n_tx": 4, "n_active": 2, "order": 4, "constellation": "psk"},
    "qsm": {"n_tx": 2, "order": 4, "constellation": "qam"},
    "sim_ook": {"harmonics": [-1, 1], "order": 2, "num_steps": 16},
    "ofdm_im": {"n": 4, "k": 2, "order": 2, "constellation": "psk"},
    "sc_im": {"slots": 4, "k": 2, "order": 2, "constellation": "psk",
              "symbols_per_frame": 16, "cp_length": 4},
    "stsk": {"q_matrices": 4, "p_active": 1, "order": 2, "n_tx": 2, "n_slots": 2,
             "constellation": "psk", "dispersion_seed": 1},
    "mbm": {"num_states": 4, "order": 2, "constellation": "psk"},
    "ra_ssk": {"n_tx": 2, "states_per_antenna": [2, 4]},
}
# 0.5, 2.0 and the list entries 2.5 and "-2" used to pass through int()
MALFORMED = {
    int: [1.5, 0.5, 2.0, "2", [2], None, 0, -1],
    list: [[1.5, 2], [2, 2.5], ["1"], ["1", "-2"], [True], 3, None],
    str: [1, ["psk"], None, "foo"],
}
# the scheme types of each command
COMMANDS = (("rate", {**SCHEME_TYPES, **_RATE_FORMULAS}), ("codebook", SCHEME_TYPES))


def case(command, kind, key, value):
    return pytest.param(command, kind, key, value, id=f"{command}-{kind}-{key}={json.dumps(value)}")


def malformed_keys():
    """(command, type, key, value) for every scheme key of ``rate`` and
    ``codebook`` and each malformed value of its JSON type."""
    for kind, valid in VALID.items():
        for command, table in COMMANDS:
            if kind not in table:
                continue
            params = inspect.signature(table[kind]).parameters
            assert set(valid) == set(params), kind
            for key, param in params.items():
                for value in MALFORMED[param.annotation]:
                    # 0 is a valid cyclic prefix and dispersion seed
                    if not (value == 0 and key in ("cp_length", "dispersion_seed")):
                        yield case(command, kind, key, value)
    # n_tx 0 used to run a BER curve of 0/0 dispersion matrices, and n_slots 0
    # to stop on a raw ZeroDivisionError
    yield case("ber", "stsk", "n_tx", 0)
    yield case("ber", "stsk", "n_slots", 0)


def run_scheme(tmp_path, capsys, command, scheme):
    """Exit code and captured output of ``command`` on one scheme config."""
    cfg = (ber_config(scheme) if command == "ber"
           else {"experiment": command, "scheme": scheme,
                 **({"output": "book.csv"} if command == "codebook" else {})})
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = [] if command == "rate" else ["--out", str(tmp_path)]
    return main([command, "--config", str(path), *out]), capsys.readouterr()


@pytest.mark.parametrize("command, kind, key, value", list(malformed_keys()))
def test_malformed_scheme_value_exits_2_naming_its_key(tmp_path, capsys, command, kind,
                                                        key, value):
    scheme = {"type": kind, **VALID[kind], key: value}
    code, captured = run_scheme(tmp_path, capsys, command, scheme)
    assert code == 2
    assert re.search(rf"scheme\.{key}\b", captured.err), captured.err
    assert not captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]
    with pytest.raises(ConfigError, match=rf"scheme\.{key}\b"):
        (rate_of if command == "rate" else build_scheme)(scheme)


# past float precision, and past float range
HUGE_INTS = {"2**64": 1 << 64, "2**70": 1 << 70, "10**400": 10 ** 400}


def huge_int_keys():
    """(command, type, key, value) for every int scheme key of ``rate`` and
    ``codebook`` and each int past float precision or past float range."""
    for kind in VALID:
        for command, table in COMMANDS:
            if kind in table:
                for key, param in inspect.signature(table[kind]).parameters.items():
                    if param.annotation is int:
                        for label, value in HUGE_INTS.items():
                            yield pytest.param(command, kind, key, value,
                                               id=f"{command}-{kind}-{key}={label}")


@pytest.mark.parametrize("command, kind, key, value", list(huge_int_keys()))
def test_huge_int_scheme_value_is_read_or_refused_never_raised(tmp_path, capsys, command,
                                                               kind, key, value):
    code, captured = run_scheme(tmp_path, capsys, command,
                                {"type": kind, **VALID[kind], key: value})
    assert code in (0, 2), captured.err
    written = sorted(p.name for p in tmp_path.iterdir())
    if code == 0:
        assert captured.out
        assert written == (["book.csv", "exp.json"] if command == "codebook" else ["exp.json"])
    else:
        assert not captured.out and written == ["exp.json"]


@pytest.mark.parametrize("kind", ["qam", "sm", "gsm", "qsm"])
@pytest.mark.parametrize("bits", [64, 70])
def test_qam_order_past_float_precision_is_counted_exactly(tmp_path, capsys, kind, bits):
    # the QAM side used to be a NumPy square root, which fails on such an int
    scheme = {"type": kind, **VALID[kind], "order": 1 << bits, "constellation": "qam"}
    code, captured = run_scheme(tmp_path, capsys, "rate", scheme)
    assert code == 0
    assert float(captured.out) == rate_of({**scheme, "order": 4}) + bits - 2
    code, captured = run_scheme(tmp_path, capsys, "codebook", scheme)
    assert code == 2
    assert f"2^{build_scheme({**scheme, 'order': 4}).bits_per_interval + bits - 2} codewords" \
        in captured.err
