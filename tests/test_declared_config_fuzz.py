"""Property test of the parser on whole configs drawn from the declared keys.

Every key of each experiment type (``errors.declared_keys``) is present or
absent; a number is drawn inside, at and past each of its bounds, at
+-2^64 and +-10^400 or as any float; any key may hold a value of the wrong
JSON type.  A config draws one noise level, so that some configs are whole
and others have several faults.  ``parse_config`` must return the
experiment's type, or raise a ConfigError that names a dotted path of the
drawn config or of the keys its type declares.  Only parse_config runs; no
drawn config is ever run.
"""

import inspect
import math
import re
from types import UnionType
from typing import get_args, get_origin, is_typeddict

from hypothesis import HealthCheck, given, settings, strategies as st

from risim.errors import ConfigError, Key, declared_keys
from risim.harness import EXPERIMENTS, parse_config
from risim.im_schemes import _RATE_FORMULAS, SCHEME_TYPES
from risim.modulation import Constellation

HUGE = [1 << 64, -(1 << 64), 10 ** 400, -(10 ** 400)]
WRONG = st.sampled_from([None, True, "x", [1], {"k": 1}, 0.5])
SCALARS = (int, float, str, bool, dict, tuple)
SCHEMES = {**SCHEME_TYPES, **_RATE_FORMULAS}
EMPTY = inspect.Parameter.empty


def faulty(draw, noise) -> bool:
    """True for about ``noise`` in 20 draws."""
    return draw(st.integers(0, 19)) < noise


def number(draw, noise, kind, key: Key):
    """A number of ``kind`` inside the bounds of ``key``, or at, just past or
    far past one of them, or any float."""
    step = 1 if kind is int else 0.5
    if faulty(draw, 2 * noise):
        edges = [b for b in (key.low, key.high) if b is not None] or [0]
        near = [e + d for e in edges for d in (-step, 0, step)]
        return draw(st.sampled_from(near + HUGE) | (st.floats() if kind is float else WRONG))
    low = -8 if key.low is None else key.low
    high = low + 64 if key.high is None else min(key.high, low + 64)
    if kind is int:
        return draw(st.integers(math.ceil(low), math.floor(high)))
    return draw(st.floats(low, high, exclude_min=key.strict, exclude_max=key.strict_high)
                | st.sampled_from([v for v in (0, 0.25, 0.5, 1, 2) if low < v < high] or [high]))


def entries(draw, noise, drawn, most=4):
    return [drawn(draw) for _ in range(draw(st.integers(1 - faulty(draw, noise), most)))]


def scheme(draw, noise) -> dict:
    """A scheme config of a drawn type, its keys as its constructor declares them."""
    kind = draw(st.sampled_from(sorted(SCHEMES)))
    config = {"type": kind}
    for name, param in inspect.signature(SCHEMES[kind]).parameters.items():
        if param.default is not param.empty and draw(st.booleans()):
            continue
        if param.annotation is list:
            config[name] = entries(draw, noise, lambda d: number(d, noise, int, Key(-4, 4)))
        elif param.annotation is int:
            config[name] = draw(st.sampled_from([1, 2, 4, 16])) if draw(st.booleans()) \
                else number(draw, noise, int, Key(1, 16))
        else:
            config[name] = draw(st.sampled_from(Constellation.KINDS + ("x",) * (noise > 0)))
    return config


def target_groups(draw, noise) -> list:
    """multi_targets: groups of [m, weight] entries, a weight a number or [re, im]."""
    def weight(d):
        part = lambda: number(d, noise, float, Key(-0.7, 0.7))   # noqa: E731
        return [part(), part()] if d(st.booleans()) else part()

    def entry(d):
        return [number(d, noise, int, Key(-7, 7)), weight(d)]
    return [entries(draw, noise, entry, 2) for _ in range(draw(st.integers(0, 2)))]


def value(draw, noise, kind, key: Key):
    """A JSON value for a key of type ``kind`` that ``key`` declares."""
    if faulty(draw, noise):
        return draw(WRONG)
    if get_origin(kind) is UnionType:
        kind = get_args(kind)[0]
    entry = get_args(kind)[0] if get_origin(kind) is tuple else None
    if kind in (int, float):
        return number(draw, noise, kind, key)
    if entry in (int, float):
        return entries(draw, noise, lambda d: number(d, noise, entry, key))
    if entry is not None:   # [int, int] pairs
        return entries(draw, noise, lambda d: [number(d, noise, int, key) for _ in range(2)], 3)
    if kind is str:
        return draw(st.sampled_from(key.choices + ("x",) * (noise > 0)) if key.choices
                    else st.sampled_from(["out", "a.csv"]))
    if kind is bool:
        return draw(st.booleans())
    if kind is tuple:
        return target_groups(draw, noise)
    if kind is dict:
        return scheme(draw, noise)
    return section(draw, noise, kind)


def section(draw, noise, cls) -> dict:
    """An object of the keys ``cls`` declares: a key with a default is
    absent half the time, a required one or one read only ``when`` another
    has some value is absent or present as a fault."""
    defaults = {} if is_typeddict(cls) else inspect.signature(cls).parameters
    out = {}
    for attr, (kind, key) in declared_keys(cls).items():
        required = key.required or attr not in defaults or defaults[attr].default is EMPTY
        wanted = not key.when or out.get(key.when[0]) == key.when[1]
        if (draw(st.booleans()) if wanted and not required else faulty(draw, noise) == wanted):
            continue
        path, _, name = (key.json or attr).rpartition(".")
        drawn = value(draw, noise, kind, key)
        if path:
            out[path] = {name: drawn}
        else:
            out[name] = drawn
    return out


@st.composite
def configs(draw):
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    noise = draw(st.sampled_from([0, 0, 1, 3]))
    return {"experiment": experiment, **section(draw, noise, EXPERIMENTS[experiment])}


def declared_paths(cls, prefix=""):
    for attr, (kind, key) in declared_keys(cls).items():
        name = prefix + (key.json or attr)
        yield from (name, *name.split(".")[:-1])
        if isinstance(kind, type) and kind not in SCALARS:
            yield from declared_paths(kind, name + ".")


def drawn_paths(config, prefix=""):
    for name, v in config.items():
        yield prefix + name
        if isinstance(v, dict):
            yield from drawn_paths(v, prefix + name + ".")


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs())
def test_a_drawn_config_parses_or_names_its_key(config):
    try:
        parsed = parse_config(config)
    except ConfigError as exc:
        paths = set(drawn_paths(config)) | set(declared_paths(EXPERIMENTS[config["experiment"]]))
        named = [p for p in paths if re.search(rf"(?<![\w.]){re.escape(p)}(?!\w)", str(exc))]
        assert named, str(exc)
        return
    assert type(parsed) is EXPERIMENTS[config["experiment"]]
