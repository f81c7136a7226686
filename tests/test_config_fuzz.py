"""Property test of the parser: a one-key change to a shipped config either
parses to that experiment's config type or raises ConfigError.

Only parse_config runs; no drawn config is ever run.
"""

import copy
import json
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from risim.errors import ConfigError
from risim.harness import EXPERIMENTS, parse_config

CONFIGS = {path.name: json.loads(path.read_text())
           for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json"))}
# the nested objects whose keys a change may reach
SECTIONS = ("scheme", "channel", "trials", "geometry", "grid")

# integers stay small: a k-of-n scheme's binomial costs time superlinear in n
leaves = (st.none() | st.booleans() | st.text(max_size=8) | st.integers(-4096, 4096)
          | st.floats() | st.sampled_from([1e308, -1e308, 5e-324, float("nan")]))
keys = st.text(max_size=8)
shallow = leaves | st.lists(leaves, max_size=4) | st.dictionaries(keys, leaves, max_size=4)
values = leaves | st.lists(shallow, max_size=4) | st.dictionaries(keys, shallow, max_size=4)


@st.composite
def changed_configs(draw):
    """A shipped config with one value replaced, one key dropped or one
    unknown key added, at the top level or in one of its SECTIONS."""
    config = copy.deepcopy(CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))])
    objects = [config] + [config[k] for k in SECTIONS if isinstance(config.get(k), dict)]
    target = draw(st.sampled_from(objects))
    change = draw(st.sampled_from(["replace", "drop", "add"]))
    if change == "add":
        target[draw(keys.filter(lambda k: k not in target))] = draw(values)
    else:
        key = draw(st.sampled_from(sorted(target)))
        if change == "drop":
            del target[key]
        else:
            target[key] = draw(values)
    return config


def changed(name, section=None, **changes):
    config = copy.deepcopy(CONFIGS[name])
    (config[section] if section else config).update(changes)
    return config


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(changed_configs())
# each of these used to escape as AttributeError, TypeError, ValueError,
# ZeroDivisionError or OverflowError
@example(changed("ber_rayleigh_bpsk.json", scheme=[1]))
@example(changed("codebook_sm.json", scheme="sm"))
@example(changed("rate_sm.json", scheme={"type": ["sm"]}))
@example(changed("pattern_steering.json", "geometry", dx_mm=5e-324))
@example(changed("pattern_steering.json", "geometry", fc_ghz=1e308))
@example(changed("pattern_atom_loss.json", "grid", phi_step_deg=5e-324))
def test_a_changed_config_parses_or_raises_config_error(config):
    try:
        parsed = parse_config(config)
    except ConfigError:
        return
    assert type(parsed) is EXPERIMENTS[config["experiment"]]
