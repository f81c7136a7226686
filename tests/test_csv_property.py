"""Property test: util.write_csv writes the bytes np.savetxt writes, or raises
what it raises, for the digit-arithmetic formats and adversarial doubles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risim.util import _strings_text, text_column, text_rows, write_csv

FIXED = ["%.0f", "%.1f", "%.3f", "%.6f", "%.8f"]
FORMATS = FIXED + ["%d"]

# k / 2^m is a rounding tie for some number of decimals; one ulp either side
# of it rounds the other way or not, which the digit path must not guess
TIES = [k / 2.0 ** m for m in range(1, 12) for k in (1, 3, 5, 7, 1001, 2 ** m + 1)]


def _around(x):
    return [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]


SPECIAL = ([v for t in TIES for v in _around(t)]
           + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-310,
              2.0 ** 52, 2.0 ** 52 - 0.5, 2.0 ** 53 + 2, 4503599.6273704965, 1e17, -1e300,
              np.nan, np.inf, -np.inf, 0.5, 1.5, 2.5, -0.5, 9.9999995, 99.5, 999999.5])

doubles = st.one_of(
    st.sampled_from(SPECIAL),
    st.sampled_from(SPECIAL).map(lambda v: -v),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6),
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: k / 1000.0),
)


# int64 values that float64 cannot hold, around 2^52, 2^53 and the int64 ends
BIG_INTS = [s * (2 ** e + d) for e in (52, 53, 62) for d in (-1, 0, 1, 3) for s in (1, -1)]
BIG_INTS += [2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1]
integers = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1), st.sampled_from(BIG_INTS))


def savetxt(path, rows, formats, header):
    np.savetxt(path, rows, delimiter=",", fmt=formats, header=header, comments="")


def outcome(write, path):
    """The bytes written, or the type of the exception raised."""
    try:
        write(path)
    except Exception as exc:   # noqa: BLE001 - the type is what is compared
        return type(exc)
    return path.read_bytes()


@st.composite
def tables(draw, elements=doubles):
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(1, 3))
    values = np.array(draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols)),
                      dtype=float).reshape(rows, cols)
    formats = tuple(draw(st.lists(st.sampled_from(FORMATS), min_size=cols, max_size=cols)))
    return values, formats


@settings(max_examples=400, deadline=None)
@given(tables(), st.sampled_from([None, "a,b"]))
def test_rows_write_the_bytes_of_savetxt(tmp_path_factory, table, header):
    values, formats = table
    tmp = tmp_path_factory.mktemp("csv")
    want = outcome(lambda p: savetxt(p, values, formats, header or ""), tmp / "want.csv")
    assert outcome(lambda p: write_csv(p, values, formats, header=header), tmp / "got.csv") == want


@settings(max_examples=200, deadline=None)
@given(st.lists(integers, min_size=1, max_size=12),
       st.sampled_from(FORMATS))
def test_integer_arrays_write_the_bytes_of_savetxt(tmp_path_factory, ints, fmt):
    values = np.array(ints, dtype=np.int64)
    tmp = tmp_path_factory.mktemp("csv")
    want = outcome(lambda p: savetxt(p, values, fmt, ""), tmp / "want.csv")
    assert outcome(lambda p: write_csv(p, values, fmt), tmp / "got.csv") == want


@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(1, 2), st.sampled_from(FIXED), st.booleans(), st.data())
def test_lead_writes_the_bytes_of_savetxt(tmp_path_factory, table, lead_cols, lead_fmt,
                                          as_matrix, data):
    tail, formats = table
    size = len(tail) * lead_cols
    lead = np.array(data.draw(st.lists(doubles, min_size=size, max_size=size)),
                    dtype=float).reshape(len(tail), lead_cols)
    if as_matrix:   # as GridText holds its columns
        prefixes = text_rows([text_column(c, lead_fmt) for c in lead.T], end=b",")
    else:
        prefixes = _strings_text([(lead_fmt + ",") * lead_cols % tuple(r)
                                  for r in lead.tolist()])
    tmp = tmp_path_factory.mktemp("csv")
    full = np.column_stack([lead, tail])
    want = outcome(lambda p: savetxt(p, full, (lead_fmt,) * lead_cols + formats, "h"),
                   tmp / "want.csv")
    got = outcome(lambda p: write_csv(p, tail, formats, header="h", lead=prefixes),
                  tmp / "got.csv")
    assert got == want


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_special_value_in_one_column(tmp_path, fmt):
    values = np.array(SPECIAL + [-v for v in SPECIAL])
    if fmt == "%d":
        values = values[np.isfinite(values)]
    savetxt(tmp_path / "want.csv", values, fmt, "")
    write_csv(tmp_path / "got.csv", values, fmt)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("bad, error", [(np.nan, ValueError), (np.inf, OverflowError)])
def test_the_first_failing_value_in_row_order_decides_the_error(tmp_path, bad, error):
    # the first column is formatted first, but savetxt meets the second column's
    # value of row 0 before the first column's value of row 1
    other = np.inf if np.isnan(bad) else np.nan
    rows = np.array([[1.0, bad], [other, 4.0]])
    for formats in [("%i", "%d"), ("%d", "%d")]:
        with pytest.raises(error):
            savetxt(tmp_path / "want.csv", rows, formats, "")
        with pytest.raises(error):
            write_csv(tmp_path / "got.csv", rows, formats)


@pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
def test_empty_tables_write_the_bytes_of_savetxt(tmp_path, shape):
    # rows with no columns are still written, one empty line each
    savetxt(tmp_path / "want.csv", np.zeros(shape), "%.6f", "")
    write_csv(tmp_path / "got.csv", np.zeros(shape), "%.6f")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
