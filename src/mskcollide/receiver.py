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

The correlation runs in pieces of exactly PIECE_BLOCKS blocks, each one
matrix product against the 16 codewords; only the last piece is padded with
zero rows. OpenBLAS splits a larger product over several threads, and in a
pool of worker processes the helper threads then spin on cores the other
workers need; a piece this size stays on the calling thread. With one
product shape, a row's summation order does not depend on how many blocks
share the call, so a block's correlations are bit for bit the same as when
it is decoded alone: a packet, a point's short last slab or a whole batch.
"""

from __future__ import annotations

import numpy as np

from .chipseq import BIPOLAR_CHIP_TABLE, CHIPS_PER_SYMBOL

_BIPOLAR_T_F64 = BIPOLAR_CHIP_TABLE.T.astype(np.float64)

#: Blocks in every correlation product: OpenBLAS 0.3.31 (SkylakeX kernels)
#: ran a 1,024-block product on two threads and a 512-block one on one.
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
    corr = np.empty((-(-n_blocks // PIECE_BLOCKS) * PIECE_BLOCKS, 16))
    for start in range(0, n_blocks, PIECE_BLOCKS):
        piece = blocks[start:start + PIECE_BLOCKS]
        if len(piece) < PIECE_BLOCKS:
            piece = np.zeros((PIECE_BLOCKS, CHIPS_PER_SYMBOL), dtype=blocks.dtype)
            piece[:n_blocks - start] = blocks[start:]
        np.matmul(piece, _BIPOLAR_T_F64, out=corr[start:start + PIECE_BLOCKS])
    corr = corr[:n_blocks]
    np.abs(corr, out=corr)
    lead = soft.shape[:-1] + (soft.shape[-1] // CHIPS_PER_SYMBOL,)
    return sliced, corr.argmax(axis=1).reshape(lead), corr.reshape(lead + (16,))
