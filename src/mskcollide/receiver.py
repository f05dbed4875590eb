"""Turning soft bits into decisions: slicing and DSSS symbol decoding.

`decide` is the one decision layer: the Monte Carlo engine passes it whole
batches of transmit-order soft values. Hard decision decoding (HDD)
slices each chip to +-1 first and correlates the sliced block against all
16 codewords; soft decision decoding (SDD) correlates the raw soft values
directly. Both pick the symbol with the largest absolute correlation, so a
globally inverted block still decodes to the same symbol, and the returned
correlations give each block's margin to the runner-up. Ties: a soft value
of exactly 0 slices to +1, and correlation ties resolve to the lowest
symbol index.

The correlation is one matrix product of every block against the 16
codewords, run in pieces of at most PIECE_BLOCKS blocks. OpenBLAS splits a
larger product over several threads, and in a pool of worker processes the
helper threads then spin on cores the other workers need; a piece this size
stays on the calling thread. Every product has at least PIECE_BLOCKS // 2
rows: OpenBLAS's small-matrix kernel, taken for 75 rows or fewer, sums in
another order than the large kernel and so differs in the last bit. So the
pieces are of equal size rather than a short last one, and an input of
fewer blocks is padded with zero rows. A block's correlations are thus bit
for bit the same however many blocks share the call: a packet decoded
alone, or a point's short last slab, matches the same rows of one whole
product.
"""

from __future__ import annotations

import numpy as np

from .chipseq import BIPOLAR_CHIP_TABLE, CHIPS_PER_SYMBOL

_BIPOLAR_T_F64 = BIPOLAR_CHIP_TABLE.T.astype(np.float64)

#: Most blocks one correlation product takes: OpenBLAS 0.3.31 (SkylakeX
#: kernels) ran a 1,024-block product on two threads and a 512-block one on one.
PIECE_BLOCKS = 512


def decide(soft, coding: str):
    """Receiver decisions for transmit-order soft values of any leading shape.

    Returns (sliced, symbols, corr): the int8 +-1 slice of every value (an
    exact 0 slices to +1) and, for "hdd" and "sdd", the decided symbol of
    every 32-value block (ties to the lowest symbol) with the block's
    |correlation| against all 16 codewords, shape (..., blocks, 16). HDD
    correlates the sliced chips, SDD the soft values; uncoded returns None
    for both.
    """
    soft = np.asarray(soft, dtype=np.float64)
    # 2 * (soft >= 0) - 1 in place: NaN slices to -1, as a comparison gives.
    sliced = np.greater_equal(soft, 0).view(np.int8)
    sliced *= 2
    sliced -= 1
    if coding == "uncoded":
        return sliced, None, None
    if coding not in ("hdd", "sdd"):
        raise ValueError(f"unknown coding {coding!r}")
    if soft.shape[-1] % CHIPS_PER_SYMBOL:
        raise ValueError("coded decisions need a multiple of 32 transmit chips")
    values = sliced if coding == "hdd" else soft
    blocks = values.reshape(-1, CHIPS_PER_SYMBOL)
    n_blocks = len(blocks)
    if n_blocks < PIECE_BLOCKS // 2:
        padded = np.zeros((PIECE_BLOCKS // 2, CHIPS_PER_SYMBOL), dtype=blocks.dtype)
        padded[:n_blocks] = blocks
        blocks = padded
    corr = np.empty((len(blocks), 16))
    pieces = max(1, -(-len(blocks) // PIECE_BLOCKS))
    # np.array_split's bounds: the first len % pieces pieces hold one more
    size, longer = divmod(len(blocks), pieces)
    stop = 0
    for piece in range(pieces):
        start, stop = stop, stop + size + (piece < longer)
        np.matmul(blocks[start:stop], _BIPOLAR_T_F64, out=corr[start:stop])
    corr = corr[:n_blocks]
    np.abs(corr, out=corr)
    lead = soft.shape[:-1] + (soft.shape[-1] // CHIPS_PER_SYMBOL,)
    return sliced, corr.argmax(axis=1).reshape(lead), corr.reshape(lead + (16,))
