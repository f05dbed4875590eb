"""Payload draws and interferer descriptions.

Bits are antipodal: +-1 inside a packet, 0 encodes silence outside it. A
payload is one array in transmit order, which alternates branches:
position 2m carries in-phase bit m, position 2m+1 carries quadrature bit m
(the quadrature pulse train is staggered by half a bit duration), so
`transmit_position` gives bit k of a branch its place in that array.
`draw_payloads` draws whole batches of such payloads for the Monte Carlo
engine; `InterfererParams` describes one interferer, with its own time
offset and phase, and `_Draws` holds a batch of (interferer, bit index)
draws along a leading draw axis, on which the closed forms and the
numerical oracle both run.

`_is_integer` and `_is_number` are the package's one rule for an integer
and for a finite number: every check of an input value uses one of them.
All types are immutable after construction; operations are pure given an
explicit RNG.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

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


class _Draws(NamedTuple):
    """(interferer, k) draws as arrays along a leading draw axis."""

    #: transmit-order bits, as floats, at (draw, q + 1, p) for transmit
    #: position 2q + p, so the first q and at least the last hold silence
    bits: np.ndarray
    #: 2k, the in-phase transmit position of each draw's bit k
    position: np.ndarray
    tau: np.ndarray
    phi_c: np.ndarray
    amplitude: np.ndarray

    def bits_at(self, positions: np.ndarray) -> np.ndarray:
        """Each draw's bits at transmit positions (draws, j), given as whole
        floats: 0 (silence) outside its payload, however far."""
        draws, width = len(self.bits), 2 * self.bits.shape[1]
        # the silence of the first q, or of the last, past either end
        index = np.clip(positions, -2.0, width - 3.0)
        index += np.arange(2, draws * width, width)[:, None]
        return self.bits.reshape(-1)[index.astype(np.intp)]


def _batch(draws) -> _Draws:
    """The batch of a sequence of (bits, amplitude, tau, phi_c, k) draws,
    each bits a transmit-order payload; a k that is a bool or not an
    integer is a ValueError."""
    width = 2 * ((max(len(bits) for bits, *_ in draws) + 1) // 2 + 2)
    bits = np.zeros((len(draws), width))
    for row, (payload, *_) in enumerate(draws):
        bits[row, 2:2 + len(payload)] = payload
    return _Draws(bits.reshape(len(draws), -1, 2),
                  *np.array([(transmit_position(k, "I"), tau, phi_c, amplitude)
                             for _, amplitude, tau, phi_c, k in draws]).T)


def _stack(draws) -> _Draws:
    """The batch of a sequence of (InterfererParams, k) pairs."""
    return _batch([(params.bits, params.amplitude, params.tau, params.phi_c, k)
                   for params, k in draws])


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

    Uncoded bits are the top bits of the bytes of one uint32 draw, read low
    byte first. numpy's bounded uint8 draw (Lemire's method), which
    rng.integers(0, 2, dtype=np.int8) makes, takes each value from the top
    bit of the next byte of buffered uint32 values in that order, so these
    are that draw's bits and the stream ends where it would leave it. A
    numpy release that changes its integer algorithm fails the test that
    pins this, rather than silently moving the bytes of every table.
    """
    def draw():
        if not coded:
            n = packets * n_bits
            words = rng.integers(0, 2**32, size=-(-n // 4), dtype=np.uint32)
            chips = np.right_shift(words.astype("<u4", copy=False).view(np.uint8)[:n], 7)
            chips = chips.view(np.int8).reshape(packets, n_bits)
            chips *= 2
            chips -= 1
            return None, chips
        symbols = rng.integers(0, 16, size=(packets, n_bits // BITS_PER_SYMBOL))
        return symbols, BIPOLAR_CHIP_TABLE.take(symbols, axis=0).reshape(packets, -1)

    soi = draw()
    return [soi] + [soi if mode == "identical" else draw() for _ in range(n_interferers)]

