"""Small numeric helpers shared across modules."""

from itertools import islice

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


def wrap_phase(phase):
    """Wrap angle(s) to the principal branch [-pi, pi)."""
    return np.mod(np.asarray(phase) + np.pi, 2.0 * np.pi) - np.pi


def db_to_linear(db):
    return 10.0 ** (np.asarray(db) / 10.0)


def mag_to_db(x):
    return 20.0 * np.log10(x)



_CSV_BLOCK_ROWS = 1 << 14  # rows per string operation, which bounds memory


def _row_format(fmt, width) -> str:
    return ",".join([fmt] * width if isinstance(fmt, str) else fmt) + "\n"


def row_templates(prefixes, fmt, width) -> list:
    """Row formats for :func:`write_csv`, one string per block of rows: row i
    is the text ``prefixes[i]`` (leading columns already formatted, ending in
    a comma) followed by ``width`` fields of ``fmt`` left for ``%``.
    ``prefixes`` may be any iterable; it is consumed one block at a time."""
    tail = _row_format(fmt, width)
    prefixes = iter(prefixes)
    blocks = []
    while block := "".join([p + tail for p in islice(prefixes, _CSV_BLOCK_ROWS)]):
        blocks.append(block)
    return blocks


def write_csv(path, rows, fmt, header=None, templates=None) -> None:
    """Write the bytes of ``np.savetxt(path, rows, delimiter=",", fmt=fmt,
    header=header or "", comments="")`` for 1-D or 2-D numeric rows, with
    each block of rows formatted by one ``%`` over plain Python numbers.

    ``templates``, from :func:`row_templates` with the same ``fmt``, gives
    each block's row format with its leading columns already written, so
    columns shared by many files are formatted once; ``rows`` then holds
    only the trailing columns."""
    values = np.asarray(rows)
    if values.ndim == 1:
        values = values[:, None]
    starts = range(0, len(values), _CSV_BLOCK_ROWS)
    if templates is None:
        row = _row_format(fmt, values.shape[1])
        templates = (row * len(values[s:s + _CSV_BLOCK_ROWS]) for s in starts)
    elif len(templates) != len(starts):
        raise ValueError(f"{len(templates)} row templates for {len(starts)} blocks of rows")
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for start, template in zip(starts, templates):
            block = values[start:start + _CSV_BLOCK_ROWS]
            fh.write(template % tuple(block.ravel().tolist()))
