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
