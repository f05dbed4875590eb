"""Payload draws, bit-to-branch multiplexing, and interferer descriptions.

Bits are antipodal: +-1 inside a packet, 0 encodes silence outside it. The
transmit stream alternates branches: position 2m carries in-phase bit m,
position 2m+1 carries quadrature bit m (the quadrature pulse train is
staggered by half a bit duration). `draw_payloads` draws whole batches of
transmit-order payloads for the Monte Carlo engine; `IqStream` and
`InterfererParams` describe one interferer, with its own time offset and
phase, for the one-row closed form and the numerical oracle.

All types are immutable after construction; operations are pure given an
explicit RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chipseq import BIPOLAR_CHIP_TABLE, BITS_PER_SYMBOL

TWO_PI = 2.0 * math.pi


def _as_payload_bits(bits, what="bits"):
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if arr.size and not np.all(np.abs(arr) == 1):
        raise ValueError(f"{what} must take values +1 or -1")
    arr = arr.astype(np.int8)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class IqStream:
    """A packet's payload split into in-phase and quadrature bit sequences.

    Branch bit index 0 is the first stored payload bit; indexing outside
    the stored range yields 0 (silence), never an error.
    """

    i_bits: np.ndarray
    q_bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "i_bits", _as_payload_bits(self.i_bits, "i_bits"))
        object.__setattr__(self, "q_bits", _as_payload_bits(self.q_bits, "q_bits"))
        if abs(len(self.i_bits) - len(self.q_bits)) > 1:
            raise ValueError("i_bits and q_bits lengths may differ by at most 1")

    def i_bit(self, k: int) -> int:
        """In-phase bit at branch index k; 0 outside the payload span."""
        if 0 <= k < len(self.i_bits):
            return int(self.i_bits[k])
        return 0

    def q_bit(self, k: int) -> int:
        """Quadrature bit at branch index k; 0 outside the payload span."""
        if 0 <= k < len(self.q_bits):
            return int(self.q_bits[k])
        return 0


def multiplex_bits(bits) -> IqStream:
    """Split a +-1 bit sequence onto the two branches.

    Even transmit positions (0, 2, 4, ...) become in-phase bits, odd
    positions quadrature bits.
    """
    arr = _as_payload_bits(bits, "payload")
    if arr.size == 0:
        raise ValueError("empty payload")
    return IqStream(i_bits=arr[0::2], q_bits=arr[1::2])


@dataclass(frozen=True)
class InterfererParams:
    """One interfering sender: linear amplitude, time offset tau (in units
    of T, positive arrives later), carrier phase offset (normalized into [0, 2pi)),
    and its payload."""

    amplitude: float
    tau: float
    phi_c: float
    payload: IqStream

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        object.__setattr__(self, "phi_c", float(self.phi_c) % TWO_PI)
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "amplitude", float(self.amplitude))


def draw_payloads(rng, mode: str, coded: bool, n_bits: int, n_interferers: int,
                  packets: int) -> list:
    """Payloads of a batch of packets for the synchronized sender and each
    interferer, in one canonical draw order.

    Returns one (symbols, chips) pair per sender, synchronized sender first:
    chips is an int8 (packets, n_chips) array of +-1 in transmit order and
    symbols the (packets, n_bits / 4) data symbols, or None when uncoded.
    Uncoded payloads are n_bits i.i.d. bits; coded ones n_bits / 4 uniform
    symbols spread to 8 * n_bits chips. In "identical" mode every
    interferer shares the synchronized sender's arrays and draws nothing.
    """
    def draw():
        if not coded:
            return None, rng.integers(0, 2, size=(packets, n_bits), dtype=np.int8) * 2 - 1
        symbols = rng.integers(0, 16, size=(packets, n_bits // BITS_PER_SYMBOL))
        return symbols, BIPOLAR_CHIP_TABLE.take(symbols, axis=0).reshape(packets, -1)

    soi = draw()
    return [soi] + [soi if mode == "identical" else draw() for _ in range(n_interferers)]

