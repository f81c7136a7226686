"""Config errors, and ``_Section``, the one reader of every config key: a
key of an experiment file or of a scheme config that is missing, unknown,
of the wrong JSON type, out of bounds or not one of its choices raises
``ConfigError`` naming its dotted path."""

import inspect
import math
import sys
from dataclasses import dataclass
from types import UnionType
from typing import Annotated, ClassVar, get_args, get_origin, get_type_hints, is_typeddict


class ConfigError(ValueError):
    """Invalid or infeasible configuration (bad scheme parameters, malformed
    experiment file, unknown keys). Maps to CLI exit code 2."""


def shown(value) -> str:
    """repr of a config value for a message, but an int past float range as
    its approximate size, "~1.0e+5000": str() refuses an int of more than
    4,300 digits, and no message needs the digits of one past float range."""
    if type(value) is list:
        return f"[{', '.join(map(shown, value))}]"
    if type(value) is dict:
        return f"{{{', '.join(f'{k!r}: {shown(v)}' for k, v in value.items())}}}"
    if type(value) is int and value.bit_length() > 1024:
        size = math.log10(abs(value))   # exact enough for any int
        return f"~{'-' if value < 0 else ''}{10 ** (size % 1):.1f}e+{int(size)}"
    return repr(value)


@dataclass(frozen=True)
class Key:
    """A config key, declared as ``Annotated[type, Key(...)]`` on the attribute
    it fills: the bounds of a number or of each number of a list, a string's
    ``choices``, the ``json`` name where not the attribute's (dotted for the
    one key of a nested object), ``required`` despite a default, and
    ``when``, an attribute read before and the value it needs for the key."""
    low: float | None = None
    high: float | None = None
    strict: bool = False
    strict_high: bool = False
    choices: tuple = ()
    json: str | None = None
    required: bool = False
    when: tuple = ()

    def fits(self, value, kinds) -> bool:
        # a number read as a float must fit one; an int-only key is unbounded
        return (type(value) in kinds and (float not in kinds or abs(value) <= sys.float_info.max)
                and (self.low is None or (value > self.low if self.strict else value >= self.low))
                and (self.high is None
                     or (value < self.high if self.strict_high else value <= self.high)))

    def check(self, values, what: str, kinds=(int, float), pairs=False) -> None:
        """Refuse the first of ``values`` (or [n, n] ``pairs``) not to fit."""
        for v in values:
            if not (type(v) is list and len(v) == 2 and all(self.fits(n, kinds) for n in v)
                    if pairs else self.fits(v, kinds)):
                limits = [f"{op} {bound}" for op, bound in
                          ((">" if self.strict else ">=", self.low),
                           ("<" if self.strict_high else "<=", self.high)) if bound is not None]
                if self.low is None and float in kinds:   # an int is finite anyway
                    limits.insert(0, "finite")
                must = " ".join(["pairs of" * pairs, "/".join(k.__name__ for k in kinds),
                                 " and ".join(limits)])
                raise ConfigError(f"{what} must be {must.strip()}, got {shown(v)}")


def declared_keys(cls) -> dict:
    """Attribute -> (type, Key) of a config type's keys, in reading order."""
    return {name: get_args(hint) if get_origin(hint) is Annotated else (hint, Key())
            for name, hint in get_type_hints(cls, include_extras=True).items()
            if get_origin(hint) is not ClassVar}


class _Section:
    """Pops keys from one config mapping, rejecting leftovers with paths."""

    def __init__(self, data, path):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        self._data = dict(data)
        self._path = path

    def _name(self, key):
        return f"{self._path}.{key}" if self._path else key

    def take(self, key, default=None, required=False, kind=None):
        if key not in self._data:
            if required:
                raise ConfigError(f"missing required key: {self._name(key)}")
            return default
        value = self._data.pop(key)
        # exact types: JSON true/false would pass isinstance(value, int)
        if kind is not None and type(value) not in kind:
            raise ConfigError(f"{self._name(key)} must be {'/'.join(k.__name__ for k in kind)}")
        return value

    def read(self, cls):
        """A ``cls`` of the keys of ``declared_keys``, each read by ``value``,
        then ``check()``ed if it has a check; leftover keys are refused last."""
        defaults = {} if is_typeddict(cls) else {  # a TypedDict's keys are all required
            n: p.default for n, p in inspect.signature(cls).parameters.items()}
        values = {}
        for attr, (kind, key) in declared_keys(cls).items():
            default = defaults.get(attr, inspect.Parameter.empty)
            path, _, name = (key.json or attr).rpartition(".")
            if key.when and values[key.when[0]] != key.when[1]:
                values[attr] = default
            elif path:
                nested = _Section({} if (v := self.take(path)) is None else v, self._name(path))
                values[attr] = nested.value(name, kind, key, default)
                nested.finish()
            else:
                values[attr] = self.value(name, kind, key, default)
        config = cls(**values)
        if hasattr(config, "check"):
            config.check()
        self.finish()
        return config

    def value(self, name, kind, key=Key(), default=inspect.Parameter.empty):
        """Key ``name``, required without a ``default``, as ``kind`` says: an int
        or float (any JSON number) that fits ``key``; a str, among its choices;
        a bool; a tuple of such numbers or of [int, int] pairs, from a list,
        non-empty if required, or a bare tuple, from any list; a dict, any
        object; or a type with declared keys, at its default if null."""
        required = key.required or default is inspect.Parameter.empty
        default = None if default is inspect.Parameter.empty else default
        if get_origin(kind) is UnionType:   # T | None: a T whose default is None
            kind = get_args(kind)[0]
        entry = get_args(kind)[0] if get_origin(kind) is tuple else kind
        listed, pairs = kind is tuple or entry is not kind, get_origin(entry) is tuple
        if not listed and kind not in (int, float, str, bool):   # an object
            value = self.take(name, required=required)
            if value is None and not required:
                return default
            sec = _Section(value, self._name(name))
            return sec._data if kind is dict else sec.read(kind)
        kinds = (int, float) if entry is float else (int,) if pairs else (entry,)
        value = self.take(name, default, required, (list,) if listed else kinds)
        if value is default:
            return value
        if listed and required and not value:
            raise ConfigError(f"{self._name(name)} must be a non-empty list")
        if key.choices and value not in key.choices:
            raise ConfigError(f"{self._name(name)} must be {'/'.join(key.choices)}, got {value!r}")
        if int in kinds:
            key.check(value if listed else (value,), self._name(name) + " entries" * listed,
                      kinds, pairs)
        convert = tuple if pairs else float if entry is float else lambda v: v
        return tuple(map(convert, value)) if listed else convert(value)

    def finish(self):
        if self._data:
            extras = ", ".join(self._name(k) for k in sorted(self._data))
            raise ConfigError(f"unknown key(s): {extras}")
