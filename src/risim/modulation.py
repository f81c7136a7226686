"""Constellations and bit packing.

Conventions used across all mappers:

- bits are arrays of 0/1, most-significant bit first;
- PSK point k sits at exp(j*2*pi*k/M) and carries the Gray label of k, so
  bits "01" select QPSK point index 1 = +j;
- square QAM is Gray-coded per axis (I bits first), normalized to unit
  average energy.
"""

import numpy as np

from .errors import ConfigError


def is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Integer -> MSB-first bit array of fixed width."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.int8)


def gray_encode(k: int) -> int:
    return k ^ (k >> 1)


def gray_decode(g: int) -> int:
    k = 0
    while g:
        k ^= g
        g >>= 1
    return k


def psk_points(order: int) -> np.ndarray:
    """Unit-energy M-PSK points in natural angular order exp(j*2*pi*k/M)."""
    if not is_power_of_two(order) or order < 2:
        raise ConfigError(f"PSK order must be a power of two >= 2, got {order}")
    return np.exp(2j * np.pi * np.arange(order) / order)


def qam_points(order: int) -> np.ndarray:
    """Square M-QAM in natural index order (I index major), unit average energy."""
    side = int(round(np.sqrt(order)))
    if side * side != order or not is_power_of_two(order) or order < 4:
        raise ConfigError(f"QAM order must be an even power of two >= 4, got {order}")
    levels = 2 * np.arange(side) - (side - 1)
    scale = np.sqrt(2.0 * (order - 1) / 3.0)
    points = (levels[:, None] + 1j * levels[None, :]).ravel() / scale
    return points


class Constellation:
    """Bit-labelled constellation with Gray mapping; ``label_points[label]`` is
    the point of an MSB-first bit word given as an integer label."""

    def __init__(self, kind: str, order: int):
        if kind == "psk":
            self.points = psk_points(order)
        elif kind == "qam":
            self.points = qam_points(order)
        else:
            raise ConfigError(f"unknown constellation kind {kind!r}")
        self.kind = kind
        self.order = order
        self.bits_per_symbol = int(np.log2(order))
        # the points in label order (label = bit word as integer)
        self.label_points = np.empty(order, dtype=complex)
        for k in range(order):
            self.label_points[self._label_of_index(k)] = self.points[k]

    def _label_of_index(self, k: int) -> int:
        if self.kind == "psk":
            return gray_encode(k)
        side = int(round(np.sqrt(self.order)))
        i_idx, q_idx = divmod(k, side)
        half = self.bits_per_symbol // 2
        return (gray_encode(i_idx) << half) | gray_encode(q_idx)
