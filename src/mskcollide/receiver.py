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
"""

from __future__ import annotations

import numpy as np

from .chipseq import BIPOLAR_CHIP_TABLE, CHIPS_PER_SYMBOL

_BIPOLAR_T_F64 = BIPOLAR_CHIP_TABLE.T.astype(np.float64)


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
    # One 2-D product over all blocks, whatever the leading shape: the
    # engine's product keeps the shape (and so the sums) it always had.
    corr = values.reshape(-1, CHIPS_PER_SYMBOL) @ _BIPOLAR_T_F64
    np.abs(corr, out=corr)
    lead = soft.shape[:-1] + (-1,)
    return sliced, corr.argmax(axis=1).reshape(lead), corr.reshape(lead + (16,))
