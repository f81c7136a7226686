import numpy as np
import pytest

from risim.errors import ConfigError
from risim.im_schemes import (
    GeneralizedSM,
    MediaBasedModulation,
    OfdmIm,
    QuadratureSM,
    ScIm,
    SimOok,
    SisoModulation,
    SpaceShiftKeying,
    SpaceTimeShiftKeying,
    SpatialModulation,
    build_scheme,
    codebook_rows,
    dispersion_set,
    ofdm_demodulate,
    ofdm_modulate,
    rate_of,
    rate_ra_ssk,
)

ENUMERABLE = [
    SisoModulation(2),
    SisoModulation(4),
    SisoModulation(16, "qam"),
    SpatialModulation(2, 2),
    SpatialModulation(4, 4),
    SpatialModulation(4, 4, "qam"),
    SpaceShiftKeying(8),
    GeneralizedSM(4, 2, 4),
    GeneralizedSM(6, 3, 2),
    QuadratureSM(2, 4),
    QuadratureSM(4, 16),
    OfdmIm(4, 2, 2),
    OfdmIm(4, 2, 4),
    OfdmIm(4, 4, 2),
    OfdmIm(8, 4, 4),  # 2^14 codewords, the enumerability ceiling
    ScIm(4, 2, 2, symbols_per_frame=16, cp_length=4),
    ScIm(4, 1, 4),
    SpaceTimeShiftKeying(4, 1, 2, 2, 2),
    SpaceTimeShiftKeying(4, 2, 4, 2, 2),
    MediaBasedModulation(16),
    MediaBasedModulation(4, 4),
    SimOok([-2, -1, 1, 2], 4, 16),
    SimOok([-1, 1], 1, 8),
]

IDS = [f"{type(s).__name__}-{s.bits_per_interval}b-{i}" for i, s in enumerate(ENUMERABLE)]


@pytest.mark.parametrize("scheme", ENUMERABLE, ids=IDS)
def test_universal_loopback(scheme):
    assert (1 << scheme.bits_per_interval) <= (1 << 14)
    for word in range(1 << scheme.bits_per_interval):
        assert scheme.demap_word(scheme.map_word(word)) == word


@pytest.mark.parametrize("scheme", ENUMERABLE, ids=IDS)
def test_codebook_energy_normalized(scheme):
    book = scheme.codebook()
    energy = np.mean(np.sum(np.abs(book.vectors) ** 2, axis=0)) / scheme.channel_uses
    assert energy == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scheme", ENUMERABLE, ids=IDS)
def test_rate_consistency(scheme):
    book = scheme.codebook()
    assert book.count == 1 << scheme.bits_per_interval
    assert len(np.unique(book.labels)) == book.count


class TestSpatialMappers:
    def test_sm_msb_first_example(self):
        # "1001" -> first two bits pick antenna 2, last two pick QPSK +j
        scheme = SpatialModulation(4, 4)
        symbol = scheme.map_bits([1, 0, 0, 1])
        assert symbol.indices == (2,)
        assert symbol.symbols[0] == pytest.approx(1j)

    def test_sm_all_zero_word(self):
        symbol = SpatialModulation(2, 2).map_bits([0, 0])
        assert symbol.indices == (0,)
        assert symbol.symbols[0] == pytest.approx(1.0)

    def test_ssk_binary_index(self):
        assert SpaceShiftKeying(8).map_bits([1, 0, 1]).indices == (5,)

    def test_gsm_combinadic_codebook(self):
        scheme = GeneralizedSM(4, 2, 2)
        subsets = [scheme.map_bits([b1, b0, 0]).indices for b1, b0 in
                   ((0, 0), (0, 1), (1, 0), (1, 1))]
        assert subsets == [(0, 1), (0, 2), (0, 3), (1, 2)]

    def test_gsm_shares_energy(self):
        scheme = GeneralizedSM(4, 2, 2)
        x = scheme.transmit_vector(scheme.map_bits([0, 0, 0]))
        assert np.sum(np.abs(x) ** 2) == pytest.approx(1.0)
        assert np.count_nonzero(x) == 2

    def test_qsm_reuses_antenna(self):
        scheme = QuadratureSM(2, 4)
        same = scheme.map_bits([0, 0, 0, 0])
        assert same.indices == (0, 0)
        x = scheme.transmit_vector(same)
        assert x[0] == pytest.approx(same.symbols[0])

    def test_qsm_vector_recovery(self):
        scheme = QuadratureSM(4, 16)
        for word in range(0, 1 << scheme.bits_per_interval, 7):
            sym = scheme.map_word(word)
            x = scheme.transmit_vector(sym)
            assert scheme.demap_word(scheme.symbol_from_vector(x)) == word

    def test_qsm_rejects_axis_constellations(self):
        with pytest.raises(ConfigError):
            QuadratureSM(2, 2, "psk")
        with pytest.raises(ConfigError):
            QuadratureSM(2, 4, "psk")

    def test_bit_length_mismatch(self):
        with pytest.raises(ValueError, match="bits"):
            SpatialModulation(4, 4).map_bits([1, 0, 1])


class TestSimOok:
    def test_index_only_mode(self):
        scheme = SimOok([-2, -1, 1, 2], 1, 16)
        assert scheme.bits_per_interval == 2
        assert scheme.map_bits([1, 0]).indices == (1,)

    def test_mapping_example(self):
        # alphabet position 1 gets harmonic -1; "10" phase bits -> 180 deg
        scheme = SimOok([-2, -1, 1, 2], 4, 16)
        symbol = scheme.map_bits([0, 1, 1, 0])
        assert symbol.indices == (-1,)
        assert np.angle(symbol.symbols[0]) == pytest.approx(np.pi)

    def test_two_harmonic_alphabet_example(self):
        # bits "110": index bit 1 -> alphabet[1], symbol bits "10" -> 180 deg
        scheme = SimOok([-1, 1], 4, 16)
        symbol = scheme.map_bits([1, 1, 0])
        assert symbol.indices == (scheme.harmonics[1],)
        assert np.angle(symbol.symbols[0]) == pytest.approx(np.pi)

    def test_physical_loopback_through_harmonics(self):
        # bits -> coding sequence -> Fourier analysis -> bits, ideal channel
        scheme = SimOok([-2, -1, 1, 2], 4, 16)
        for word in range(1 << scheme.bits_per_interval):
            sequence = scheme.to_sequence(scheme.map_word(word))
            recovered = scheme.from_sequence(sequence)
            assert scheme.demap_word(recovered) == word

    def test_rejects_carrier_harmonic(self):
        with pytest.raises(ConfigError):
            SimOok([0, 1], 1, 16)

    def test_rejects_infeasible_phase_grid(self):
        with pytest.raises(ConfigError):
            SimOok([-1, 1], 4, 10)  # L not divisible by M


class TestOfdmIm:
    def test_subblock_bit_budget(self):
        scheme = OfdmIm(4, 2, 2)
        assert scheme.index_bits == 2
        assert scheme.bits_per_interval == 4

    def test_all_active_degenerates_to_ofdm(self):
        scheme = OfdmIm(4, 4, 2)
        assert scheme.index_bits == 0
        symbol = scheme.map_bits([1, 0, 1, 1])
        assert symbol.indices == (0, 1, 2, 3)

    def test_inactive_subcarriers_zero(self):
        scheme = OfdmIm(4, 2, 2)
        x = scheme.transmit_vector(scheme.map_bits([0, 0, 1, 0]))
        assert np.count_nonzero(x) == 2

    def test_modulate_demodulate_roundtrip(self):
        rng = np.random.default_rng(8)
        symbols = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        back = ofdm_demodulate(ofdm_modulate(symbols))
        assert np.max(np.abs(back - symbols)) < 1e-10

    def test_modulate_matches_direct_sum(self):
        # oracle: evaluate (1/sqrt(N)) sum_a X_a e^{j 2 pi a t / N} directly
        rng = np.random.default_rng(9)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        t = np.arange(16)
        direct = np.array([
            np.sum(x * np.exp(2j * np.pi * np.arange(16) * tt / 16)) for tt in t
        ]) / np.sqrt(16)
        assert ofdm_modulate(x) == pytest.approx(direct)

    def test_unused_ranks_never_emitted(self):
        scheme = OfdmIm(4, 2, 2)  # C(4,2)=6 subsets, only 4 rank values used
        seen = {scheme.map_word(w).indices for w in range(16)}
        assert seen == {(0, 1), (0, 2), (0, 3), (1, 2)}

    def test_invalid_set_demaps_to_nearest_with_flag(self):
        scheme = OfdmIm(4, 2, 2)
        from risim.im_schemes import IMSymbol

        bad = IMSymbol("frequency", (1, 3), (1.0, -1.0))  # rank 4: unused codeword
        bits, exact = scheme.demap_flagged(bad)
        assert not exact
        assert len(bits) == 4
        with pytest.raises(ValueError, match="valid activation"):
            scheme.demap(bad)


class TestScIm:
    def test_rate_formula(self):
        scheme = ScIm(4, 2, 4, symbols_per_frame=16, cp_length=4)
        assert scheme.rate() == pytest.approx(1.2)

    def test_two_index_bits_for_single_slot(self):
        assert ScIm(4, 1, 2).index_bits == 2

    def test_all_slots_active_degenerates(self):
        scheme = ScIm(4, 4, 2)
        assert scheme.index_bits == 0
        assert scheme.map_bits([0, 1, 1, 0]).indices == (0, 1, 2, 3)


class TestStsk:
    def test_dispersion_set_normalized_and_seeded(self):
        mats = dispersion_set(4, 2, 2, seed=3)
        again = dispersion_set(4, 2, 2, seed=3)
        assert np.array_equal(mats, again)
        for m in mats:
            assert np.linalg.norm(m) ** 2 == pytest.approx(2.0)

    def test_rate(self):
        assert SpaceTimeShiftKeying(4, 1, 2, 2, 2).rate() == pytest.approx(1.5)

    def test_noiseless_identity_channel_recovery(self):
        scheme = SpaceTimeShiftKeying(4, 1, 2, 2, 2)
        book = scheme.codebook()
        for word in range(book.count):
            received = book.vectors[:, word]
            distances = np.sum(np.abs(book.vectors - received[:, None]) ** 2, axis=0)
            assert int(np.argmin(distances)) == word


class TestMbm:
    def test_pure_mbm_rate_matches_16_states(self):
        assert MediaBasedModulation(16).rate() == pytest.approx(4.0)

    def test_single_state_degenerates_to_mary(self):
        scheme = MediaBasedModulation(1, 4)
        assert scheme.bits_per_interval == 2
        assert scheme.map_bits([0, 1]).indices == (0,)


class TestRates:
    def test_sm_rate(self):
        assert rate_of({"type": "sm", "n_tx": 4, "order": 4}) == pytest.approx(4.0)

    def test_qsm_formula_rate(self):
        # 2 log2(4) + log2(2): formula stays defined below the mapper's domain
        assert rate_of({"type": "qsm", "n_tx": 4, "order": 2}) == pytest.approx(5.0)

    def test_sc_im_rate(self):
        cfg = {"type": "sc_im", "slots": 4, "k": 2, "order": 4,
               "symbols_per_frame": 16, "cp_length": 4}
        assert rate_of(cfg) == pytest.approx(1.2)

    def test_gstsk_rate(self):
        cfg = {"type": "stsk", "q_matrices": 4, "p_active": 1, "order": 2,
               "n_tx": 2, "n_slots": 2}
        assert rate_of(cfg) == pytest.approx(1.5)

    def test_ra_ssk_rates(self):
        assert rate_ra_ssk(4, [4, 4, 4, 4]) == pytest.approx(4.0)
        assert rate_ra_ssk(1, [8]) == pytest.approx(3.0)
        assert rate_ra_ssk(4, [2, 4, 8, 16]) == pytest.approx(4.5)

    def test_psk_and_sim_rates(self):
        assert rate_of({"type": "psk", "order": 8}) == pytest.approx(3.0)
        assert rate_of({"type": "sim_ook", "harmonics": [-2, -1, 1, 2],
                        "order": 4, "num_steps": 16}) == pytest.approx(4.0)


class TestBuildScheme:
    def test_unknown_type(self):
        with pytest.raises(ConfigError, match="scheme.type"):
            build_scheme({"type": "dsm"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown scheme key"):
            build_scheme({"type": "sm", "n_tx": 4, "order": 4, "antennas": 2})

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="required"):
            build_scheme({"type": "sm", "order": 4})

    def test_infeasible_combination(self):
        with pytest.raises(ConfigError):
            build_scheme({"type": "ofdm_im", "n": 4, "k": 6, "order": 2})

    def test_non_power_of_two_order(self):
        with pytest.raises(ConfigError):
            build_scheme({"type": "sm", "n_tx": 3, "order": 4})


def test_codebook_rows_cover_all_words():
    scheme = SpatialModulation(2, 2)
    rows = codebook_rows(scheme)
    assert len(rows) == 4
    assert rows[0][0] == "00"
    assert all(len(r) == 3 for r in rows)
