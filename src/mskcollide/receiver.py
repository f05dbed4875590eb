"""Turning soft bits into decisions: slicing and DSSS symbol decoding.

Hard decision decoding (HDD) slices each chip to +-1 first and correlates
the sliced block against all 16 codewords; soft decision decoding (SDD)
correlates the raw soft values directly. Both pick the symbol with the
largest absolute correlation, so a globally inverted block still decodes
to the same symbol. Ties: a soft value of exactly 0 slices to +1, and
correlation ties resolve to the lowest symbol index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chipseq import BIPOLAR_CHIP_TABLE, CHIPS_PER_SYMBOL
from .demod import packet_soft_bits
from .signal_model import Scenario, _interleave, demultiplex_bits


@dataclass(frozen=True)
class SymbolDecision:
    """Decoded symbol with its winning |correlation| and the margin to the
    runner-up."""

    symbol: int
    correlation: float
    runner_up_gap: float


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


def _block_decision(values: np.ndarray, coding: str) -> SymbolDecision:
    _, symbols, corr = decide(values, coding)
    best = int(symbols[0])
    winning = float(corr[0, best])
    return SymbolDecision(symbol=best, correlation=winning,
                          runner_up_gap=winning - float(np.max(np.delete(corr[0], best))))


def hdd_decode(chips) -> SymbolDecision:
    """Decode one 32-chip block of sliced +-1 values."""
    chips = np.asarray(chips)
    if chips.shape != (CHIPS_PER_SYMBOL,):
        raise ValueError(f"expected exactly {CHIPS_PER_SYMBOL} chips")
    if not np.all(np.abs(chips) == 1):
        raise ValueError("hard-decision chips must be +1 or -1")
    return _block_decision(chips, "hdd")


def sdd_decode(soft_chips) -> SymbolDecision:
    """Decode one 32-chip block of raw soft values."""
    soft_chips = np.asarray(soft_chips, dtype=np.float64)
    if soft_chips.shape != (CHIPS_PER_SYMBOL,):
        raise ValueError(f"expected exactly {CHIPS_PER_SYMBOL} soft chips")
    return _block_decision(soft_chips, "sdd")


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one packet against a reference sender."""

    packet_ok: bool
    bit_errors: int
    n_bits: int
    decided_bits: np.ndarray
    symbol_errors: int | None = None
    n_symbols: int | None = None
    decided_symbols: np.ndarray | None = None


def decode_packet(scenario: Scenario, coding: str, target: str = "soi",
                  interferer_index: int = 0, rng=None) -> DecodeResult:
    """Demodulate a whole packet on the synchronized sender's timing grid
    and compare the decisions against one sender's payload.

    coding is "uncoded", "hdd", or "sdd"; target "soi" or "interferer".
    Bit errors always count sliced transmit bits (chips, when coded); symbol
    errors are reported for the coded modes. The receiver never re-times to
    the interferer: decisions stay on the synchronized grid even when the
    interferer is the target.
    """
    if coding not in ("uncoded", "hdd", "sdd"):
        raise ValueError(f"unknown coding {coding!r}")
    if target == "soi":
        reference = scenario.soi_payload
    elif target == "interferer":
        if not 0 <= interferer_index < len(scenario.interferers):
            raise IndexError("interferer index out of range")
        reference = scenario.interferers[interferer_index].payload
    else:
        raise ValueError(f"unknown target {target!r}")

    soft_t = _interleave(*packet_soft_bits(scenario, rng))
    ref_t = demultiplex_bits(reference)
    if len(ref_t) != len(soft_t):
        raise ValueError("target payload length does not match the decision grid")

    sliced, decided, _ = decide(soft_t, coding)
    bit_errors = int(np.count_nonzero(sliced != ref_t))
    if coding == "uncoded":
        return DecodeResult(packet_ok=bit_errors == 0, bit_errors=bit_errors,
                            n_bits=len(ref_t), decided_bits=sliced)

    _, ref_symbols, _ = decide(ref_t, coding)
    symbol_errors = int(np.count_nonzero(decided != ref_symbols))
    return DecodeResult(packet_ok=symbol_errors == 0, bit_errors=bit_errors,
                        n_bits=len(ref_t), decided_bits=sliced,
                        symbol_errors=symbol_errors, n_symbols=len(ref_symbols),
                        decided_symbols=decided)
