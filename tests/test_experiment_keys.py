"""Experiment keys are declared once, on their config types, and every value
rule names the key it refuses.

The README's "Experiment configs" tables must list exactly the declared
keys of each experiment, with the declared JSON type, default, bounds and
choices.  A scheme constructor's value rule names its ``scheme.`` key, and
an int key that reaches float arithmetic has an upper bound.
"""

import inspect
import json
import re
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, is_typeddict

import pytest

from risim.cli import main
from risim.errors import ConfigError, declared_keys
from risim.harness import EXPERIMENTS, MAX_PERIOD_CELLS, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
EMPTY = inspect.Parameter.empty
# README type names of the key types that have one fixed name
TYPE_NAMES = {int: "int", float: "number", str: "string", bool: "bool", dict: "object",
              tuple[int, ...]: "list of ints", tuple[float, ...]: "list of numbers"}


def readme_tables() -> dict:
    """experiment -> {key: (type, default, bound)} of its README table."""
    section = README.read_text().split("## Experiment configs")[1].split("\n## ")[0]
    tables, names = {}, []
    for block in section.split("\n\n"):
        if re.fullmatch(r"(`\w+`( and `\w+`)*):", block.strip()):
            names = re.findall(r"`(\w+)`", block)
        elif block.startswith("| key | type | default | bound |") and names:
            rows = {}
            for line in block.splitlines()[2:]:
                keys, kind, default, bound = (c.strip() for c in line.strip().strip("|")
                                              .split(" | "))
                for key in re.findall(r"`([\w.]+)`", keys):
                    rows[key] = kind, default, bound
            tables.update(dict.fromkeys(names, rows))
            names = []
    return tables


def is_section(kind) -> bool:
    """A type with keys of its own: not a JSON value, nor a bare tuple."""
    return isinstance(kind, type) and kind not in TYPE_NAMES and kind is not tuple


def flat_keys(cls, prefix="", section_default=None):
    """(dotted JSON name, type, Key, default) of every key of ``cls``; the
    default of a key in an object that has a default is that object's."""
    defaults = {} if is_typeddict(cls) else {
        n: p.default for n, p in inspect.signature(cls).parameters.items()}
    for attr, (kind, key) in declared_keys(cls).items():
        default = defaults.get(attr, EMPTY)
        if default is EMPTY and section_default is not None:
            default = getattr(section_default, attr)
        name = prefix + (key.json or attr)
        if is_section(kind):
            yield from flat_keys(kind, name + ".", None if default is EMPTY else default)
        else:
            yield name, get_args(kind)[0] if get_origin(kind) is UnionType else kind, key, default


def experiment_keys(cls) -> dict:
    return {name: rest for name, *rest in flat_keys(cls) if name != "seed"}


def shown_default(value) -> str:
    if type(value) is bool:
        return str(value).lower()
    if type(value) is int:
        return f"{value:,}"
    if type(value) is str:
        return f"`{value}`"
    return "`[]`" if value == () else repr(value)


def readme_bounds(text: str) -> set:
    """(operator, number) of each "op number" in ``text``; 2^53 reads as 2**53."""
    bounds = set()
    for op, number in re.findall(r"(>=|<=|>|<) (-?\d[\d,]*(?:\.\d+)?(?:\^\d+)?)", text):
        base, _, power = number.replace(",", "").partition("^")
        bounds.add((op, float(base) ** int(power or 1)))
    return bounds


def declared_bounds(key) -> set:
    return {(op, float(bound)) for op, bound in
            ((">" if key.strict else ">=", key.low), ("<" if key.strict_high else "<=", key.high))
            if bound is not None}


def test_readme_has_a_table_for_every_experiment():
    assert sorted(readme_tables()) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_readme_table_lists_the_declared_keys(experiment):
    assert sorted(readme_tables()[experiment]) == sorted(experiment_keys(EXPERIMENTS[experiment]))


def table_rows():
    for experiment, cls in sorted(EXPERIMENTS.items()):
        for name, (kind, key, default) in experiment_keys(cls).items():
            yield pytest.param(experiment, name, kind, key, default, id=f"{experiment}-{name}")


@pytest.mark.parametrize("experiment, name, kind, key, default", list(table_rows()))
def test_readme_row_matches_its_declaration(experiment, name, kind, key, default):
    readme_type, readme_default, bound = readme_tables()[experiment][name]
    if kind in TYPE_NAMES:
        assert readme_type == TYPE_NAMES[kind]
    else:   # int pairs, or groups that check() reads
        assert readme_type.startswith("list of ") and readme_type.endswith(" pairs")
    if key.required or default is EMPTY:
        assert readme_default.startswith("required")
    elif default is None:   # the README says what an absent key means
        assert readme_default and not readme_default.startswith("required")
    else:
        assert shown_default(default) in readme_default
    # the declared part of a bound comes first; what follows ";" is checked
    # against other keys
    declared = bound.split(";")[0]
    assert readme_bounds(declared) == declared_bounds(key)
    if key.choices:
        assert set(re.findall(r"`(\w+)`", declared)) == set(key.choices)


def test_readme_states_the_seed_every_config_takes():
    for cls in EXPERIMENTS.values():
        _, key, default = {name: rest for name, *rest in flat_keys(cls)}["seed"]
        assert f"`seed` (int >= {key.low}, default {default})" in README.read_text()


def pattern_config(**changes):
    return {"experiment": "pattern",
            "geometry": {"rows": 4, "cols": 4, "dx_mm": 5.0, "dy_mm": 5.0, "fc_ghz": 28.0},
            "scan_angles_deg": [10], "grid": {"theta_step_deg": 10.0, "phi_step_deg": 30.0},
            "output_dir": "patterns", **changes}


def run(tmp_path, capsys, command, cfg):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = [] if command == "rate" else ["--out", str(tmp_path)]
    return main([command, "--config", str(path), *out]), capsys.readouterr()


@pytest.mark.parametrize("period_cells", [10 ** 400, 1 << 64, MAX_PERIOD_CELLS + 1],
                         ids=["1e400", "2^64", "2^53+1"])
def test_period_cells_past_its_bound_exits_2(tmp_path, capsys, period_cells):
    # 10**400 used to reach the steering range as a float and exit 3
    code, captured = run(tmp_path, capsys, "pattern", pattern_config(period_cells=period_cells))
    assert code == 2
    assert re.search(r"^config error: period_cells must be int >= 1 and <= 9007199254740992",
                     captured.err)
    assert not (tmp_path / "patterns").exists()


def test_period_cells_at_its_bound_parses():
    config = parse_config(pattern_config(scan_angles_deg=[0], period_cells=MAX_PERIOD_CELLS))
    assert config.period_cells == 1 << 53


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_steering_range_past_float_range_exits_2(tmp_path, capsys):
    # k dx overflows to inf, and at 0 deg inf * 0 is nan: the run used to
    # start and stop on a raw ValueError with exit 3
    cfg = pattern_config(geometry={"rows": 4, "cols": 4, "dx_mm": 1e300, "dy_mm": 5.0,
                                   "fc_ghz": 1e290}, scan_angles_deg=[0])
    code, captured = run(tmp_path, capsys, "pattern", cfg)
    assert code == 2
    assert "config error: scan_angles_deg" in captured.err
    assert not (tmp_path / "patterns").exists()


@pytest.mark.parametrize("scheme, key", [
    ({"type": "psk", "order": 3}, "scheme.order"),
    ({"type": "qam", "order": 8}, "scheme.order"),
    ({"type": "psk", "order": 2, "constellation": "qam"}, "scheme.order"),
    ({"type": "sm", "n_tx": 3, "order": 4}, "scheme.n_tx"),
    ({"type": "ssk", "n_tx": 6}, "scheme.n_tx"),
    ({"type": "gsm", "n_tx": 4, "n_active": 5, "order": 2}, "scheme.n_active"),
    ({"type": "gsm", "n_tx": 1 << 17, "n_active": 1 << 16, "order": 2}, "scheme.n_active"),
    ({"type": "sim_ook", "harmonics": [1, 1]}, "scheme.harmonics"),
    ({"type": "sim_ook", "harmonics": [0, 1]}, "scheme.harmonics"),
    ({"type": "sim_ook", "harmonics": [1, 2, 3]}, "scheme.harmonics"),
    ({"type": "sim_ook", "harmonics": [-1, 9]}, "scheme.harmonics"),
    ({"type": "sim_ook", "harmonics": [-1, 1], "order": 4, "num_steps": 6}, "scheme.order"),
    ({"type": "ofdm_im", "n": 4, "k": 5, "order": 2}, "scheme.k"),
    ({"type": "sc_im", "slots": 4, "k": 5, "order": 2}, "scheme.k"),
    ({"type": "stsk", "q_matrices": 4, "p_active": 5, "order": 2, "n_tx": 2, "n_slots": 2},
     "scheme.p_active"),
    ({"type": "mbm", "num_states": 3}, "scheme.num_states"),
    ({"type": "mbm", "num_states": 4, "order": 3}, "scheme.order"),
    ({"type": "ra_ssk", "n_tx": 2, "states_per_antenna": [2, 4, 8]},
     "scheme.states_per_antenna"),
], ids=lambda v: v if isinstance(v, str) else v["type"])
def test_scheme_value_rule_names_its_key(tmp_path, capsys, scheme, key):
    code, captured = run(tmp_path, capsys, "rate", {"experiment": "rate", "scheme": scheme})
    assert code == 2
    assert captured.err.startswith(f"config error: {key}"), captured.err
    assert not captured.out
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}\b"):
        parse_config({"experiment": "rate", "scheme": scheme})


def test_quadrature_sm_names_its_constellation(tmp_path, capsys):
    # its rate formula holds for any constellation, so only a codebook refuses PSK
    cfg = {"experiment": "codebook", "output": "book.csv",
           "scheme": {"type": "qsm", "n_tx": 4, "order": 4, "constellation": "psk"}}
    code, captured = run(tmp_path, capsys, "codebook", cfg)
    assert code == 2
    assert captured.err.startswith("config error: scheme.constellation must be qam")
    assert not (tmp_path / "book.csv").exists()
