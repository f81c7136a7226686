import numpy as np
import pytest
from hypothesis import given, strategies as st

from risim.errors import ConfigError
from risim.modulation import (
    Constellation,
    gray_decode,
    gray_encode,
    int_to_bits,
    psk_points,
    qam_points,
)


def nearest_label(c, symbol):
    """The label of the point nearest ``symbol``, the inverse of label_points
    that the schemes demap with."""
    return int(np.argmin(np.abs(c.label_points - symbol)))


def test_bit_packing_roundtrip():
    for width in (1, 3, 8):
        for value in range(1 << width):
            bits = int_to_bits(value, width)
            assert len(bits) == width
            assert int("".join(map(str, bits)), 2) == value


def test_gray_roundtrip():
    for k in range(256):
        assert gray_decode(gray_encode(k)) == k
    # adjacent codes differ in one bit
    for k in range(255):
        assert bin(gray_encode(k) ^ gray_encode(k + 1)).count("1") == 1


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_psk_points_unit_energy_and_spacing(order):
    pts = psk_points(order)
    assert np.allclose(np.abs(pts), 1.0)
    angles = np.angle(pts)
    spacing = np.diff(np.unwrap(angles))
    assert np.allclose(spacing, 2 * np.pi / order)


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_qam_points_unit_average_energy(order):
    pts = qam_points(order)
    assert len(pts) == order
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_qam_rejects_non_square():
    with pytest.raises(ConfigError):
        qam_points(8)
    with pytest.raises(ConfigError):
        qam_points(2)


def test_qpsk_bits_01_is_plus_j():
    # the fixed MSB-first convention: bit word 01 -> point index 1 = +j
    c = Constellation("psk", 4)
    assert c.label_points[0b01] == pytest.approx(1j)
    assert c.label_points[0b00] == pytest.approx(1.0)


def test_bpsk_labels():
    c = Constellation("psk", 2)
    assert c.label_points[0] == pytest.approx(1.0)
    assert c.label_points[1] == pytest.approx(-1.0)


@pytest.mark.parametrize("kind,order", [("psk", 2), ("psk", 4), ("psk", 8),
                                        ("qam", 4), ("qam", 16), ("qam", 64)])
def test_modulate_demodulate_roundtrip(kind, order):
    c = Constellation(kind, order)
    for label in range(order):
        assert nearest_label(c, c.label_points[label]) == label


def test_qam_gray_neighbors_differ_one_bit():
    c = Constellation("qam", 16)
    side = 4
    labels = np.array([nearest_label(c, p) for p in c.points]).reshape(side, side)
    for grid in (labels, labels.T):  # along the Q axis, then the I axis
        for row in range(side):
            for col in range(side - 1):
                assert bin(grid[row, col] ^ grid[row, col + 1]).count("1") == 1


@given(st.sampled_from([2, 4, 8, 16]), st.data())
def test_noiseless_demodulation_is_exact(order, data):
    c = Constellation("psk", order)
    label = data.draw(st.integers(0, order - 1))
    assert nearest_label(c, c.label_points[label] * 1.0) == label
