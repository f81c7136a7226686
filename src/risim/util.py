"""Small numeric helpers shared across modules."""

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


def write_csv(path, rows, fmt, header=None) -> None:
    """Write the bytes of ``np.savetxt(path, rows, delimiter=",", fmt=fmt,
    header=header or "", comments="")`` for 1-D or 2-D numeric rows, with
    each block of rows formatted by one ``%`` over plain Python numbers."""
    values = np.asarray(rows)
    if values.ndim == 1:
        values = values[:, None]
    row = ",".join([fmt] * values.shape[1] if isinstance(fmt, str) else fmt) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, len(values), _CSV_BLOCK_ROWS):
            block = values[start:start + _CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
