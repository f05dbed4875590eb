"""Payload draws and interferer descriptions.

Bits are antipodal: +-1 inside a packet, 0 encodes silence outside it. A
payload is one array in transmit order, which alternates branches:
position 2m carries in-phase bit m, position 2m+1 carries quadrature bit m
(the quadrature pulse train is staggered by half a bit duration), so
`transmit_position` gives bit k of a branch its place in that array.
`draw_payloads` draws whole batches of such payloads for the Monte Carlo
engine; `InterfererParams` describes one interferer, with its own time
offset and phase, for the one-row closed form and the numerical oracle.

`_is_integer` and `_is_number` are the package's one rule for an integer
and for a finite number: every check of an input value uses one of them.
All types are immutable after construction; operations are pure given an
explicit RNG.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chipseq import BIPOLAR_CHIP_TABLE, BITS_PER_SYMBOL

TWO_PI = 2.0 * math.pi


def _is_integer(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite real number, not a bool; an integer too large for a float is
    not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def transmit_position(k: int, branch: str) -> int:
    """Transmit position of bit k of a branch: 2k in-phase ("I"), 2k + 1
    quadrature ("Q"). A bool or non-integer k is a ValueError."""
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    if not _is_integer(k):
        raise ValueError(f"bit index must be an integer, not {k!r}")
    return 2 * int(k) + (branch == "Q")


@dataclass(frozen=True)
class InterfererParams:
    """One interfering sender: linear amplitude, time offset tau (in units
    of T, positive arrives later), carrier phase offset (normalized into [0, 2pi)),
    and its payload bits in transmit order (even positions in-phase, odd
    quadrature), stored as read-only int8."""

    amplitude: float
    tau: float
    phi_c: float
    bits: np.ndarray

    def __post_init__(self):
        for name in ("amplitude", "tau", "phi_c"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("bits must be one-dimensional and non-empty")
        if not np.all(np.abs(bits) == 1):
            raise ValueError("bits must take values +1 or -1")
        bits = bits.astype(np.int8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
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

