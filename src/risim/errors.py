"""Config errors, and ``_Section``, the one reader of every config key: a
key of an experiment file or of a scheme config that is missing, unknown,
of the wrong JSON type, out of bounds or not one of its choices raises
``ConfigError`` naming its dotted path."""

import math
import sys


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
        names = kind if isinstance(kind, tuple) else (kind,)
        # exact types: JSON true/false would pass isinstance(value, int)
        if kind is not None and type(value) not in names:
            raise ConfigError(
                f"{self._name(key)} must be {'/'.join(k.__name__ for k in names)}"
            )
        return value

    def bounded(self, key, low, default=None, required=False, kind=(int, float),
                strict=False, high=None, strict_high=False, listed=False):
        """take() for a finite number >= low (> low when ``strict``; any when
        ``low`` is None) and, given ``high``, <= high (< high when
        ``strict_high``); with ``listed``, a list of such numbers, non-empty
        when ``required``."""
        value = self.take(key, default, required, list if listed else kind)
        if value is None:
            return value
        if listed and required and not value:
            raise ConfigError(f"{self._name(key)} must be a non-empty list")
        names = kind if isinstance(kind, tuple) else (kind,)
        for v in value if listed else (value,):
            # a number read as a float must fit one; an int-only key is unbounded
            if not (type(v) in names and (float not in names or abs(v) <= sys.float_info.max)
                    and (low is None or (v > low if strict else v >= low))
                    and (high is None or (v < high if strict_high else v <= high))):
                limits = [f"{op} {bound}" for op, bound in
                          ((">" if strict else ">=", low), ("<" if strict_high else "<=", high))
                          if bound is not None]
                if low is None and float in names:   # an int is finite anyway
                    limits.insert(0, "finite")
                what = f"{self._name(key)}{' entries' if listed else ''}"
                must = " ".join(["/".join(k.__name__ for k in names), " and ".join(limits)])
                raise ConfigError(f"{what} must be {must.rstrip()}, got {shown(v)}")
        return value

    def choice(self, key, options, default=None, required=False):
        """take() for a string among ``options``."""
        value = self.take(key, default, required, str)
        if value is not None and value not in options:
            raise ConfigError(f"{self._name(key)} must be {'/'.join(options)}, got {value!r}")
        return value

    def section(self, key, absent=None):
        """The object at ``key``; a missing or null one reads as ``absent`` or {}."""
        value = self.take(key)
        return _Section((absent or {}) if value is None else value, self._name(key))

    def finish(self):
        if self._data:
            extras = ", ".join(self._name(k) for k in sorted(self._data))
            raise ConfigError(f"unknown key(s): {extras}")

