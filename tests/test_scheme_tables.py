"""Every scheme's codebook, audit rows and mapped symbols, pinned by digest.

The digests were taken from the per-word mappers (one ``transmit_vector``
per ``map_word``) that the table-driven codebook replaced, so any change
of a codebook byte, a label order or an audit row shows here.  Shipped
configs reach only the SISO, SM and OFDM-IM codebooks; this file pins the
other families too.
"""

import hashlib

import numpy as np
import pytest

from risim.detection import MetricTable
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
    codebook_rows,
)

# name -> (scheme, sha256 prefixes of: codebook vectors and labels,
# codebook_rows text, map_word indices and symbols)
PINNED = {
    "siso-bpsk": (lambda: SisoModulation(2),
        "377e031e7ea44d1a", "6113b4bf87e75754", "68ec518035950c36"),
    "siso-qpsk": (lambda: SisoModulation(4),
        "c8e79f8e251f452a", "5f504703e82bf259", "1998661388370331"),
    "siso-16qam": (lambda: SisoModulation(16, "qam"),
        "71e018894b4a9e29", "118f9be8895113f9", "4adb806d10cc58d6"),
    "sm-2-bpsk": (lambda: SpatialModulation(2, 2),
        "d9ebf882cb1fb164", "942e9255339fb905", "bf7d64676567b63f"),
    "sm-4-qpsk": (lambda: SpatialModulation(4, 4),
        "a76096e3cd366341", "8233a95db2aeb570", "9d16f55824619994"),
    "sm-4-4qam": (lambda: SpatialModulation(4, 4, "qam"),
        "70d5d4ccc357349d", "b224b92193a6155b", "8801cbb550a2a813"),
    "ssk-8": (lambda: SpaceShiftKeying(8),
        "1e972f7df9b9e4f3", "fda78ca8cbd4179d", "2a78084a40dafaef"),
    "gsm-4-2-qpsk": (lambda: GeneralizedSM(4, 2, 4),
        "119ba26a9bf7acac", "988d0fd6bf933264", "92bc004afe55e351"),
    "gsm-6-3-bpsk": (lambda: GeneralizedSM(6, 3, 2),
        "ddc49b8f119d04f6", "da736dbec2e18f6c", "ca281b95ff991e3c"),
    "gsm-16-4-16psk": (lambda: GeneralizedSM(16, 4, 16),
        "074720153e08e8d0", "bea7aba5520dfff7", "78783b777f6a53cb"),
    "qsm-2-4qam": (lambda: QuadratureSM(2, 4),
        "0528dc3464dafd5d", "50a3350f89997d94", "b2e663612d639953"),
    "qsm-4-16qam": (lambda: QuadratureSM(4, 16),
        "8ed1312d3cb79851", "522379c427d41e54", "2104f99b35371688"),
    "qsm-8-64qam": (lambda: QuadratureSM(8, 64),
        "e74fd71f8c87fc4d", "b6946d6a3bee8c06", "fe8473a8b0c89048"),
    "ofdm-4-2-bpsk": (lambda: OfdmIm(4, 2, 2),
        "c5934be1438f3fc0", "dde97bae82264b0a", "418d79c543868d34"),
    "ofdm-4-2-qpsk": (lambda: OfdmIm(4, 2, 4),
        "2f44436caa4c8ecd", "d0b981a6c3c9a48b", "55c0b28d0fb02fcf"),
    "ofdm-4-4-bpsk": (lambda: OfdmIm(4, 4, 2),
        "e1e7dba3cc98b0e3", "20e75bf008074c64", "8795d667c6bd2ff2"),
    "ofdm-8-4-qpsk": (lambda: OfdmIm(8, 4, 4),
        "bdd082d01e5c6b0c", "799e70e576d726f1", "f6336f14f5a29e76"),
    "ofdm-6-3-16qam": (lambda: OfdmIm(6, 3, 16, "qam"),
        "662006f6cdb85680", "c6da79f4e3046a64", "8271e042c6f7f020"),
    "scim-4-2-bpsk-cp": (lambda: ScIm(4, 2, 2, symbols_per_frame=16, cp_length=4),
        "c5934be1438f3fc0", "dde97bae82264b0a", "b1f714f9fe5dc981"),
    "scim-4-1-qpsk": (lambda: ScIm(4, 1, 4),
        "076c9a269d68655d", "8233a95db2aeb570", "dcf16bf089330bdc"),
    "stsk-4-1-bpsk": (lambda: SpaceTimeShiftKeying(4, 1, 2, 2, 2),
        "fef30dd5de70da14", "7f37524ce69b5377", "3a347372397fb6bd"),
    "stsk-4-2-qpsk": (lambda: SpaceTimeShiftKeying(4, 2, 4, 2, 2),
        "8985af109c158531", "d0b981a6c3c9a48b", "6990ff4564a2d4dd"),
    "stsk-8-3-qpsk-seed5": (lambda: SpaceTimeShiftKeying(8, 3, 4, 2, 2, dispersion_seed=5),
        "17a169201e8b59a4", "738061f9e1d79863", "7f565ae442cbc4fa"),
    "mbm-16": (lambda: MediaBasedModulation(16),
        "e78a3e614fb6ed56", "127c282cd84becce", "b9e088d430bf8459"),
    "mbm-4-qpsk": (lambda: MediaBasedModulation(4, 4),
        "a76096e3cd366341", "8233a95db2aeb570", "a8561c372bf0b55a"),
    "simook-4-qpsk": (lambda: SimOok([-2, -1, 1, 2], 4, 16),
        "a718b8a875a65b1c", "0c2e5911b4a4efd4", "dcd8110cac7d47b5"),
    "simook-2": (lambda: SimOok([-1, 1], 1, 8),
        "addf084dd1446c73", "5b22032673acf162", "f612da31e631155c"),
}


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def digests(scheme) -> tuple:
    book = scheme.codebook()
    rows = "\n".join(",".join(row) for row in codebook_rows(scheme))
    symbols = []
    for word in range(1 << scheme.bits_per_interval):
        sym = scheme.map_word(word)
        symbols += [sym.domain.encode(), repr(sym.indices).encode(),
                    np.array(sym.symbols, dtype=complex).tobytes()]
    return (_digest(book.vectors.tobytes(), book.labels.tobytes()),
            _digest(rows.encode()), _digest(*symbols))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_codebook_rows_and_symbols_match_the_pinned_digests(name):
    make, *pinned = PINNED[name]
    assert digests(make()) == tuple(pinned)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_codebook_columns_are_the_mapped_transmit_vectors(name):
    scheme = PINNED[name][0]()
    book = scheme.codebook()
    assert np.array_equal(book.labels, np.arange(1 << scheme.bits_per_interval))
    for word in range(book.count):
        column = scheme.transmit_vector(scheme.map_word(word)).reshape(-1)
        assert column.tobytes() == book.vectors[:, word].tobytes(), word


def whole_codebook_table(vectors, slots, diagonal):
    """Pairs and rows of the ML metric table from one einsum over gathered
    (pairs, slots, C) copies of the whole codebook."""
    blocks = vectors.reshape(-1, slots, vectors.shape[1])
    used = np.any(blocks != 0, axis=1).astype(np.float32)
    pairs = np.argwhere(np.triu(used @ used.T > 0, k=1) & (not diagonal))
    q = np.einsum("ptc,ptc->pc", blocks[pairs[:, 0]].conj(), blocks[pairs[:, 1]])
    touched = np.any(q != 0, axis=1)
    off = q[touched]
    weights = np.concatenate([(np.abs(blocks) ** 2).sum(axis=1), 2.0 * off.real, -2.0 * off.imag])
    return pairs[touched], np.hstack([weights.T, np.ascontiguousarray(vectors.T).view(np.float64)])


def assert_table_is_the_whole_codebook_build(vectors, slots, diagonal):
    table = MetricTable(vectors, slots, diagonal)
    pairs, rows = whole_codebook_table(vectors, slots, diagonal)
    assert np.array_equal(table.pairs, pairs)
    assert table.rows.shape == rows.shape
    assert table.rows.tobytes() == rows.tobytes()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_metric_table_rows_are_bitwise_the_whole_codebook_build(name):
    scheme = PINNED[name][0]()
    assert_table_is_the_whole_codebook_build(scheme.codebook().vectors, scheme.n_slots,
                                             scheme.model == "subcarrier")


def test_metric_table_keeps_pairs_touched_only_in_a_later_run_of_codewords():
    # 6 candidate pairs over 2 slots: runs of 5,461 codewords, so 8 runs
    rng = np.random.default_rng(3)
    count = 40_000
    vectors = rng.standard_normal((8, count)) + 1j * rng.standard_normal((8, count))
    vectors[0:2, :-1] = 0                   # antenna 0 only in the last codeword
    vectors[4:8, :] = 0
    # antennas 2 and 3 meet only in codeword 0, where Q_23 cancels exactly
    vectors[4:6, 0], vectors[6:8, 0] = [1 + 2j, 3 - 1j], [3 + 1j, -1 + 2j]
    table = MetricTable(vectors, 2)
    assert [0, 1] in table.pairs.tolist() and [2, 3] not in table.pairs.tolist()
    assert_table_is_the_whole_codebook_build(vectors, 2, False)
