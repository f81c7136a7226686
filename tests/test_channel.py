import tracemalloc

import numpy as np
import pytest

from risim.channel import (
    _NORMAL_CHUNK,
    complex_normal,
    los_matrix,
    rician,
    stream_rng,
)


class TestRayleigh:
    def test_seeded_reproducibility(self):
        a = complex_normal(stream_rng(3, 0), (4, 4))
        b = complex_normal(stream_rng(3, 0), (4, 4))
        assert np.array_equal(a, b)

    def test_unit_power_and_split_variance(self):
        h = complex_normal(stream_rng(1, 2), (1000, 1000))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.01)
        assert np.var(h.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.01)


class TestRician:
    def test_k_zero_returns_scattered_exactly(self):
        rng = stream_rng(9)
        h_los = los_matrix(4, 4)
        h_nlos = complex_normal(rng, (4, 4))
        assert rician(0.0, h_los, h_nlos) is h_nlos

    def test_large_k_approaches_los(self):
        rng = stream_rng(9)
        h_los = los_matrix(4, 4)
        h_nlos = complex_normal(rng, (4, 4))
        mixed = rician(1e12, h_los, h_nlos)
        assert np.max(np.abs(mixed - h_los)) < 1e-5

    @pytest.mark.parametrize("k_factor", [0.0, 0.5, 1.0, 5.0])
    def test_power_preserved(self, k_factor):
        rng = stream_rng(4, int(k_factor * 10))
        h_nlos = complex_normal(rng, (1000, 1000))
        mixed = rician(k_factor, los_matrix(1000, 1000), h_nlos)
        assert np.mean(np.abs(mixed) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            rician(-0.1, np.ones((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            rician(1.0, np.ones((2, 2)), np.ones((2, 3)))


class TestLosMatrix:
    def test_unit_modulus_both_structures(self):
        for structure in ("ones", "dft"):
            m = los_matrix(4, 4, structure)
            assert np.allclose(np.abs(m), 1.0)

    def test_dft_columns_orthogonal_when_square(self):
        m = los_matrix(4, 4, "dft")
        gram = m.conj().T @ m
        assert np.allclose(gram, 4 * np.eye(4), atol=1e-12)

    def test_unknown_structure(self):
        with pytest.raises(ValueError):
            los_matrix(2, 2, "hadamard")


def test_stream_rng_rejects_negative_keys():
    with pytest.raises(ValueError):
        stream_rng(1, -2)


@pytest.mark.parametrize("shape", [(65536, 2, 4), (65536, 2), (4096, 16, 16), (3,), ()])
def test_complex_normal_bitwise_equals_two_draws(shape):
    one = complex_normal(stream_rng(9, 1), shape)
    rng = stream_rng(9, 1)
    two = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    assert one.shape == two.shape and one.dtype == two.dtype
    assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("size", [0, 1, _NORMAL_CHUNK - 1, _NORMAL_CHUNK, _NORMAL_CHUNK + 1,
                                  3 * _NORMAL_CHUNK + 5])
def test_chunked_complex_normal_continues_one_stream(size):
    # each part is drawn in chunks into one buffer: the values and the
    # generator's position must be those of two whole draws
    ours, theirs = stream_rng(10, size), stream_rng(10, size)
    one = complex_normal(ours, (size,))
    two = (theirs.standard_normal(size) + 1j * theirs.standard_normal(size)) / np.sqrt(2.0)
    assert one.tobytes() == two.tobytes()
    assert ours.standard_normal(3).tobytes() == theirs.standard_normal(3).tobytes()


def test_complex_normal_holds_only_its_result():
    shape = (16 * _NORMAL_CHUNK, 2)
    tracemalloc.start()
    try:
        out = complex_normal(stream_rng(11), shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * _NORMAL_CHUNK + (64 << 10)
