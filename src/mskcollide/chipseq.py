"""IEEE 802.15.4 (2.4 GHz PHY) chipping sequences for DSSS spreading.

Each of the 16 data symbols maps to a 32-chip codeword. Codewords 1..7 are
cyclic right-shifts of codeword 0 by four chips per step; codewords 8..15
repeat 0..7 with every quadrature-position chip inverted. Chips at even
transmit positions belong to the in-phase branch, odd positions to the
quadrature branch (one IQ chip pair per shift step times two).
"""

from __future__ import annotations

import numpy as np

BITS_PER_SYMBOL = 4
CHIPS_PER_SYMBOL = 32

_CHIP_ROWS = (
    "11011001110000110101001000101110",
    "11101101100111000011010100100010",
    "00101110110110011100001101010010",
    "00100010111011011001110000110101",
    "01010010001011101101100111000011",
    "00110101001000101110110110011100",
    "11000011010100100010111011011001",
    "10011100001101010010001011101101",
    "10001100100101100000011101111011",
    "10111000110010010110000001110111",
    "01111011100011001001011000000111",
    "01110111101110001100100101100000",
    "00000111011110111000110010010110",
    "01100000011101111011100011001001",
    "10010110000001110111101110001100",
    "11001001011000000111011110111000",
)

#: 16 x 32 table of {0, 1} chips, row index = data symbol.
CHIP_TABLE = np.array([[int(c) for c in row] for row in _CHIP_ROWS], dtype=np.uint8)
CHIP_TABLE.setflags(write=False)

#: Same table with chips mapped 1 -> +1, 0 -> -1; indexing it with data
#: symbols spreads them.
BIPOLAR_CHIP_TABLE = (2 * CHIP_TABLE.astype(np.int8) - 1).astype(np.int8)
BIPOLAR_CHIP_TABLE.setflags(write=False)


def chip_table_csv() -> str:
    """CSV dump of the chip table, one codeword per row."""
    header = "symbol," + ",".join(f"c{i}" for i in range(CHIPS_PER_SYMBOL))
    lines = [header]
    for xi in range(16):
        lines.append(f"{xi}," + ",".join(str(int(c)) for c in CHIP_TABLE[xi]))
    return "\n".join(lines) + "\n"
