"""Meta-atom loss coupling: the nearest realizable tuning state per element."""

import tracemalloc

import numpy as np
import pytest

from risim import metaatom
from risim.harness import _atom_loss_amplitudes

FREQ_GHZ = 28.0


def distance_matrix_amplitudes(phases, table, freq_ghz, resistance_ohm=0.5):
    """The (elements x states) wrapped-distance argmin, formed all at once."""
    states = [table.lookup(freq_ghz, metaatom.DiodeState(float(c), resistance_ohm))
              for c in table.c_pf]
    available = np.array([s.phase for s in states])
    amps = np.array([s.amplitude for s in states])
    distance = np.abs(
        np.angle(np.exp(1j * (phases.reshape(-1)[:, None] - available[None, :])))
    )
    return amps[np.argmin(distance, axis=1)].reshape(phases.shape)


@pytest.fixture(scope="module")
def table():
    return metaatom.default_response_table()


def state_phases(table):
    return np.array([table.lookup(FREQ_GHZ, metaatom.DiodeState(float(c), 0.5)).phase
                     for c in table.c_pf])


@pytest.mark.parametrize("shape", [(1, 1), (20, 20), (7, 33), (200, 200)])
def test_amplitudes_bitwise_equal_the_distance_matrix_argmin(table, shape):
    phases = np.random.default_rng(31).uniform(0.0, 2.0 * np.pi, shape)
    got = _atom_loss_amplitudes(phases, table, FREQ_GHZ)
    assert got.shape == shape
    assert got.tobytes() == distance_matrix_amplitudes(phases, table, FREQ_GHZ).tobytes()


def test_ties_and_exact_states_pick_the_first_state(table):
    available = state_phases(table)
    # each tabulated phase itself, and points halfway between neighbours
    # (wrapped), where two states are equally far to within rounding
    midpoints = np.angle(np.exp(1j * (available + np.roll(available, -1)) / 2.0))
    phases = np.concatenate([available, midpoints, [0.0, np.pi, -np.pi]]).reshape(1, -1)
    got = _atom_loss_amplitudes(phases, table, FREQ_GHZ)
    assert got.tobytes() == distance_matrix_amplitudes(phases, table, FREQ_GHZ).tobytes()


def test_one_lookup_per_state(monkeypatch, table):
    calls = []
    lookup = metaatom.ResponseTable.lookup

    def counting(self, *args):
        calls.append(args)
        return lookup(self, *args)

    monkeypatch.setattr(metaatom.ResponseTable, "lookup", counting)
    _atom_loss_amplitudes(np.zeros((50, 50)), table, FREQ_GHZ)
    assert len(calls) == len(table.c_pf)


def test_working_memory_stays_within_the_element_budget(table):
    # aperture.element_bytes counts 128 bytes per element for one angle
    phases = np.random.default_rng(32).uniform(0.0, 2.0 * np.pi, (200, 200))
    _atom_loss_amplitudes(phases, table, FREQ_GHZ)
    tracemalloc.start()
    try:
        _atom_loss_amplitudes(phases, table, FREQ_GHZ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * phases.size
