"""util.write_csv writes exactly the bytes np.savetxt writes."""

import numpy as np
import pytest

from risim.util import _CSV_BLOCK_ROWS, write_csv


def savetxt_bytes(tmp_path, rows, fmt, header=None):
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, rows, delimiter=",", fmt=fmt, header=header or "", comments="")
    return path.read_bytes()


def writer_bytes(tmp_path, rows, fmt, header=None):
    path = tmp_path / "writer.csv"
    write_csv(path, rows, fmt, header=header)
    return path.read_bytes()


def assert_same(tmp_path, rows, fmt, header=None):
    expected = savetxt_bytes(tmp_path, rows, fmt, header)
    assert writer_bytes(tmp_path, rows, fmt, header) == expected
    return expected


SPECIAL = [np.nan, -0.0, 0.0, -300.0, 1e12, -3.5e15, 1e300, 1234567.0000005, -1e-7]


@pytest.mark.parametrize("header", [None, "a,b,c"])
def test_string_format_2d(tmp_path, header):
    rows = np.random.default_rng(0).normal(scale=100.0, size=(257, 3))
    assert_same(tmp_path, rows, "%.6f", header)


@pytest.mark.parametrize("header", [None, "m,mag_db,phase_deg"])
def test_tuple_format_with_integer_column(tmp_path, header):
    rng = np.random.default_rng(1)
    rows = [(m, rng.normal(), rng.normal()) for m in range(-8, 9)]  # mixed int/float tuples
    assert_same(tmp_path, rows, ("%d", "%.6f", "%.6f"), header)


def test_integer_array_with_float_format(tmp_path):
    assert_same(tmp_path, np.arange(-5, 7).reshape(4, 3), ("%d", "%.3f", "%.6f"))


@pytest.mark.parametrize("header", [None, "value"])
def test_one_dimensional_input_is_one_column(tmp_path, header):
    expected = assert_same(tmp_path, np.linspace(-2.0, 2.0, 11), "%.3f", header)
    assert expected.count(b",") == 0


@pytest.mark.parametrize("header", [None, "u,v,mag_db"])
@pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["list", "0x3"])
def test_empty_input(tmp_path, rows, header):
    assert_same(tmp_path, rows, "%.6f", header)


@pytest.mark.parametrize("n", [_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
def test_block_boundary(tmp_path, n):
    rows = np.column_stack([np.arange(n), np.random.default_rng(n).normal(size=(n, 2))])
    expected = assert_same(tmp_path, rows, ("%d", "%.6f", "%.6f"), "i,x,y")
    assert expected.count(b"\n") == n + 1


def test_special_values(tmp_path):
    col = np.array(SPECIAL)
    rows = np.column_stack([col, col[::-1], -col])
    expected = assert_same(tmp_path, rows, "%.6f", "a,b,c")
    for text in (b"nan", b"-0.000000", b"-300.000000", b"1000000000000.000000"):
        assert text in expected


def test_special_values_integer_column(tmp_path):
    rows = [(m, v, -v) for m, v in zip([-300, 0, 10**12, 2**53], [np.nan, -0.0, -300.0, 1e12])]
    assert_same(tmp_path, rows, ("%d", "%.6f", "%.6f"), "m,x,y")
