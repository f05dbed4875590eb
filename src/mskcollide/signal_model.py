"""Payload draws and interferer descriptions.

Bits are antipodal: +-1 inside a packet, 0 encodes silence outside it. A
payload is one array in transmit order, which alternates branches:
position 2m carries in-phase bit m, position 2m+1 carries quadrature bit m
(the quadrature pulse train is staggered by half a bit duration).
`draw_payloads` draws whole batches of such payloads for the Monte Carlo
engine. `Draws` holds a batch of (interferer, bit index) draws along a
leading draw axis, each interferer with its own payload, amplitude, time
offset and phase: the closed forms and the numerical oracle both run on
one, and `Draws.of` is the one check of what it holds.

`_is_integer` and `_is_number` are the package's one rule for an integer
and for a finite number: every check of an input value uses one of them.
All types are immutable after construction; operations are pure given an
explicit RNG.
"""

from __future__ import annotations

import math
import numbers
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
    if type(value) is float:  # the common case, spared the slow ABC check
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class Draws(NamedTuple):
    """A batch of (interferer, bit index k) draws as arrays along a leading
    draw axis: the closed forms and the numerical oracle take one and give
    a row per draw. Draws.of builds one from rows and checks each."""

    #: transmit-order bits, as floats, at (draw, q + 1, p) for transmit
    #: position 2q + p, so the first q and at least the last hold silence
    bits: np.ndarray
    #: 2k, the in-phase transmit position of each draw's bit k
    position: np.ndarray
    tau: np.ndarray
    #: normalized into [0, 2pi)
    phi_c: np.ndarray
    amplitude: np.ndarray

    @classmethod
    def of(cls, rows) -> Draws:
        """The batch of a sequence of (bits, amplitude, tau, phi_c, k) rows:
        bits a transmit-order payload (one-dimensional, non-empty, +-1,
        copied into the batch), a positive linear amplitude, the time offset
        tau (in units of T, positive arrives later), the carrier phase offset
        phi_c and bit index k. A number that is not finite (a bool, a string
        or None included), a k that is not an integer, bad bits, a
        non-positive amplitude or no rows at all is a ValueError."""
        if not rows:
            raise ValueError("the batch is empty: it needs at least one draw")
        payloads = []
        for payload, amplitude, tau, phi_c, k in rows:
            for name, value in (("amplitude", amplitude), ("tau", tau), ("phi_c", phi_c)):
                if not _is_number(value):
                    raise ValueError(f"{name} must be a finite number, not {value!r}")
            if not _is_integer(k):
                raise ValueError(f"bit index must be an integer, not {k!r}")
            payload = np.asarray(payload)
            if payload.ndim != 1 or payload.size == 0:
                raise ValueError("bits must be one-dimensional and non-empty")
            payloads.append(payload)
        if not np.all(np.abs(np.concatenate(payloads)) == 1):
            raise ValueError("bits must take values +1 or -1")
        width = 2 * ((max(map(len, payloads)) + 1) // 2 + 2)
        bits = np.zeros((len(rows), width))
        for row, payload in enumerate(payloads):
            bits[row, 2:2 + len(payload)] = payload
        bits.setflags(write=False)
        position, tau, phi_c, amplitude = np.array(
            [(2 * int(k), tau, phi_c, amplitude) for _, amplitude, tau, phi_c, k in rows],
            dtype=np.float64).T
        if not np.all(amplitude > 0):
            raise ValueError("amplitude must be positive")
        return cls(bits.reshape(len(rows), -1, 2), position, tau, phi_c % TWO_PI, amplitude)

    def bits_at(self, positions: np.ndarray) -> np.ndarray:
        """Each draw's bits at transmit positions (draws, j), given as whole
        floats: 0 (silence) outside its payload, however far."""
        draws, width = len(self.bits), 2 * self.bits.shape[1]
        # the silence of the first q, or of the last, past either end
        index = np.clip(positions, -2.0, width - 3.0)
        index += np.arange(2, draws * width, width)[:, None]
        return self.bits.reshape(-1)[index.astype(np.intp)]


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

