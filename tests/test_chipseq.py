"""Chip table structure and spreading."""

import numpy as np

from mskcollide import BIPOLAR_CHIP_TABLE
from mskcollide.chipseq import CHIP_TABLE, chip_table_csv
from mskcollide.signal_model import draw_payloads

ROW0 = "11011001110000110101001000101110"


def test_table_shape_and_alphabet():
    assert CHIP_TABLE.shape == (16, 32)
    assert set(np.unique(CHIP_TABLE)) <= {0, 1}


def test_row0_matches_reference():
    assert "".join(str(c) for c in CHIP_TABLE[0]) == ROW0


def test_rows_1_to_7_are_cyclic_shifts_of_row0():
    for xi in range(1, 8):
        expected = np.roll(CHIP_TABLE[0], 4 * xi)
        assert np.array_equal(CHIP_TABLE[xi], expected), xi


def test_rows_8_to_15_invert_quadrature_chips():
    # odd transmit positions carry quadrature chips
    flip = np.arange(32) % 2 == 1
    for xi in range(8):
        expected = CHIP_TABLE[xi].copy()
        expected[flip] ^= 1
        assert np.array_equal(CHIP_TABLE[xi + 8], expected), xi


def test_autocorrelation_and_cross_correlation():
    bip = BIPOLAR_CHIP_TABLE.astype(int)
    for a in range(8):
        assert bip[a] @ bip[a] == 32
        for b in range(8):
            if a != b:
                assert abs(bip[a] @ bip[b]) < 32


def test_spread_symbol0_prefix():
    chips = BIPOLAR_CHIP_TABLE[0]
    assert chips.shape == (32,)
    assert list(chips[:8]) == [1, 1, -1, 1, 1, -1, -1, 1]


def test_spread_symbol8_prefix():
    assert list(BIPOLAR_CHIP_TABLE[8][:4]) == [1, -1, -1, -1]


def test_spread_empty():
    symbols, chips = draw_payloads(np.random.default_rng(0), "independent", True, 0, 0, 3)[0]
    assert symbols.shape == (3, 0) and chips.shape == (3, 0)


def test_spread_length_and_range_check():
    # draw_payloads spreads 3 symbols (12 bits) into 96 chips, one table
    # row per symbol
    rng = np.random.default_rng(5)
    symbols, chips = draw_payloads(rng, "independent", True, 12, 0, 200)[0]
    assert chips.shape == (200, 96)
    assert symbols.min() >= 0 and symbols.max() <= 15
    assert np.array_equal(chips.reshape(200, 3, 32), BIPOLAR_CHIP_TABLE[symbols])


def test_csv_dump_round_trips():
    lines = chip_table_csv().strip().split("\n")
    assert lines[0].startswith("symbol,c0,")
    assert len(lines) == 17
    for xi, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == xi
        assert [int(c) for c in cells[1:]] == list(CHIP_TABLE[xi])
