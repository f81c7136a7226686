"""Small numeric helpers shared across modules."""

import re

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


def wrap_phase(phase):
    """Wrap angle(s) to the principal branch [-pi, pi)."""
    return np.mod(np.asarray(phase) + np.pi, 2.0 * np.pi) - np.pi


def db_to_linear(db):
    return 10.0 ** (np.asarray(db) / 10.0)


def mag_to_db(x):
    """20 log10(x), floored at 1e-15, so zero and NaN give exactly -300 dB."""
    return 20.0 * np.log10(np.fmax(x, 1e-15))


_CSV_BLOCK_ROWS = 1 << 12  # rows per block of text, which bounds memory
# "%.Nf" (N <= 15) and "%d" go by digit arithmetic on integers below 2**52
_DIGIT_FORMAT = re.compile(r"%(?:\.(\d|1[0-5])f|d)\Z")
_EXACT_LIMIT = 2.0 ** 52
_COMMA = np.frombuffer(b",", np.uint8)
_MINUS, _POINT, _ZERO = b"-.0"


def _strings_text(strings) -> np.ndarray:
    text = np.array(strings, dtype=bytes)
    return text.view(np.uint8).reshape(len(strings), text.itemsize)


def _digit_text(q, neg, places, width) -> np.ndarray:
    """Text of the non-negative whole floats ``q`` (below 2^52) as fixed-point
    numbers with ``places`` decimals, a minus sign where ``neg``; at least
    ``width`` wide."""
    top = int(q.max(initial=0))
    digits = max(len(str(top)), places + 1)
    sign = bool(neg.any())
    width = max(width, sign + digits + (places > 0))
    text = np.zeros((len(q), width), np.uint8)
    if sign:
        text[:, 0] = neg * _MINUS
    q = q.astype(np.uint32 if top < 2 ** 32 else np.uint64)
    rest, digit = np.empty_like(q), np.empty_like(q)
    at = width
    for k in range(digits):
        at -= 1
        if k == places and places:
            text[:, at] = _POINT
            at -= 1
        np.floor_divide(q, 10, out=rest)
        np.multiply(rest, 10, out=digit)
        np.subtract(q, digit, out=digit)
        digit += _ZERO
        if k > places:   # no leading zeros
            digit *= q > 0
        text[:, at] = digit
        q, rest = rest, q
    return text


def text_column(values, fmt) -> np.ndarray:
    """``fmt % v`` of each value v of 1-D ``values`` as a (rows, width) uint8
    matrix, each row padded with zero bytes to the widest.

    "%.Nf" and "%d" are written by digit arithmetic on exactly rounded
    integers: rint(|x| 10^N), or |x| truncated for "%d".  Python's ``%``
    writes the values where that cannot be exact (non-finite, |x| 10^N at
    least 2^52, or the computed product p within p 2^-52, at least one ulp,
    of a rounding tie) and every value of any other format, so the text is
    always that of ``%``.
    """
    values = np.asarray(values)
    match = _DIGIT_FORMAT.match(fmt)
    if match is None or values.dtype.kind not in "biuf":
        return _strings_text([fmt % v for v in values.tolist()])
    with np.errstate(invalid="ignore", over="ignore"):
        if match[1] is None:   # "%d" truncates toward zero and never writes -0
            whole = np.trunc(values) if values.dtype.kind == "f" else values
            neg = whole < 0
            scaled = np.abs(whole.astype(np.float64))
            exact = scaled < _EXACT_LIMIT
            places = 0
        else:
            places = int(match[1])
            x = values.astype(np.float64, copy=False)
            neg = np.signbit(x)
            product = np.abs(x)
            product *= 10.0 ** places
            scaled = np.rint(product)
            # the exact |x| 10^N may lie on the other side of a tie than p
            # when p is within p 2^-52 >= ulp(p) of it
            near = np.abs(product - scaled)
            product *= 2.0 ** -52
            near += product
            exact = (scaled < _EXACT_LIMIT) & (near < 0.5)
    slow = np.flatnonzero(~exact)
    if slow.size == 0:
        return _digit_text(scaled, neg, places, 0)
    slow_text = _strings_text([fmt % v for v in values[slow].tolist()])
    text = _digit_text(np.where(exact, scaled, 0.0), neg & exact, places, slow_text.shape[1])
    text[slow] = 0
    text[slow, :slow_text.shape[1]] = slow_text
    return text


def text_rows(columns, end=b"\n", lead=None) -> np.ndarray:
    """One text matrix: ``lead`` (text ending in a comma, if given), then
    ``columns`` with a comma after each but the last, then ``end``.  The
    parts broadcast over all but their last axis."""
    parts = [] if lead is None else [lead]
    for column in columns:
        parts += [column, _COMMA]
    if columns:
        parts.pop()
    parts.append(np.frombuffer(end, np.uint8))
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    text = np.empty((*shape, sum(p.shape[-1] for p in parts)), np.uint8)
    at = 0
    for part in parts:
        text[..., at:at + part.shape[-1]] = part
        at += part.shape[-1]
    return text


def _block_bytes(block, formats, lead) -> bytes:
    if len(formats) != block.shape[1]:
        raise TypeError(f"{len(formats)} formats for rows of {block.shape[1]} values")
    columns = [None] * len(formats)
    try:
        for fmt in dict.fromkeys(formats):   # the columns of one format together
            where = [i for i, f in enumerate(formats) if f == fmt]
            text = text_column(block[:, where].ravel(), fmt).reshape(len(block), len(where), -1)
            for j, i in enumerate(where):
                columns[i] = text[:, j]
    except (TypeError, ValueError, OverflowError):
        row = ",".join(formats)
        for values in block.tolist():   # raise what np.savetxt raises, at its value
            row % tuple(values)
        raise
    text = text_rows(columns, lead=lead)
    return text[text != 0].tobytes()


def write_csv(path, rows, fmt, header=None, lead=None) -> None:
    """Write the bytes of ``np.savetxt(path, rows, delimiter=",", fmt=fmt,
    header=header or "", comments="")`` for 1-D or 2-D numeric rows.

    Each block of rows is formatted one column at a time into a text matrix
    (:func:`text_column`), and the matrices and separators are joined with
    the zero padding dropped.  ``lead``, a (rows, width) text matrix from
    :func:`text_rows` ending in a comma, gives every row's leading columns
    already formatted, so columns shared by many files are formatted once;
    ``rows`` then holds only the trailing columns."""
    values = np.asarray(rows)
    if values.ndim == 1:
        values = values[:, None]
    if lead is None:
        lead = np.empty((len(values), 0), np.uint8)
    elif len(lead) != len(values):
        raise ValueError(f"a lead of {len(lead)} rows for {len(values)} rows of values")
    formats = (fmt,) * values.shape[1] if isinstance(fmt, str) else tuple(fmt)
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode("latin1") + b"\n")
        for start in range(0, len(values), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            fh.write(_block_bytes(values[block], formats, lead[block]))
