"""Constellations and bit packing.

Conventions used across all mappers:

- bits are arrays of 0/1, most-significant bit first;
- PSK point k sits at exp(j*2*pi*k/M) and carries the Gray label of k, so
  bits "01" select QPSK point index 1 = +j;
- square QAM is Gray-coded per axis (I bits first), normalized to unit
  average energy.
"""

from functools import cached_property
from math import isqrt, log2

import numpy as np

from .errors import ConfigError, shown


def is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Integer -> MSB-first bit array of fixed width."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.int8)


def gray_encode(k):
    """Gray label of an integer, or elementwise of an integer array."""
    return k ^ (k >> 1)


def gray_decode(g: int) -> int:
    k = 0
    while g:
        k ^= g
        g >>= 1
    return k


def _check_psk(order: int) -> None:
    if not is_power_of_two(order) or order < 2:
        raise ConfigError(f"order must be a power of two >= 2 for PSK, got {shown(order)}")


def _qam_side(order: int) -> int:
    side = isqrt(order) if is_power_of_two(order) else 0   # exact for any int
    if side * side != order or order < 4:
        raise ConfigError(f"order must be an even power of two >= 4 for QAM, got {shown(order)}")
    return side


def psk_points(order: int) -> np.ndarray:
    """Unit-energy M-PSK points in natural angular order exp(j*2*pi*k/M)."""
    _check_psk(order)
    return np.exp(2j * np.pi * np.arange(order) / order)


def qam_points(order: int) -> np.ndarray:
    """Square M-QAM in natural index order (I index major), unit average energy."""
    side = _qam_side(order)
    levels = 2 * np.arange(side) - (side - 1)
    scale = np.sqrt(2.0 * (order - 1) / 3.0)
    points = (levels[:, None] + 1j * levels[None, :]).ravel() / scale
    return points


class Constellation:
    """Bit-labelled constellation with Gray mapping; ``label_points[label]`` is
    the point of an MSB-first bit word given as an integer label.  The
    constructor only checks the order; the points are built on first use."""

    KINDS = ("psk", "qam")

    def __init__(self, kind: str, order: int):
        if kind not in self.KINDS:
            raise ConfigError(f"constellation must be {'/'.join(self.KINDS)}, got {kind!r}")
        (_check_psk if kind == "psk" else _qam_side)(order)
        self.kind = kind
        self.order = order
        self.bits_per_symbol = int(log2(order))

    @cached_property
    def points(self) -> np.ndarray:
        return (psk_points if self.kind == "psk" else qam_points)(self.order)

    @cached_property
    def label_points(self) -> np.ndarray:
        """The points in label order (label = bit word as integer)."""
        k = np.arange(self.order)
        if self.kind == "psk":
            labels = gray_encode(k)
        else:
            half = self.bits_per_symbol // 2
            labels = (gray_encode(k >> half) << half) | gray_encode(k & ((1 << half) - 1))
        label_points = np.empty(self.order, dtype=complex)
        label_points[labels] = self.points
        return label_points
