"""Payload generation, bit-to-branch multiplexing, and collision scenarios.

Bits are antipodal: +-1 inside a packet, 0 encodes silence outside it. The
transmit stream alternates branches: position 2m carries in-phase bit m,
position 2m+1 carries quadrature bit m (the quadrature pulse train is
staggered by half a bit duration). All types are immutable after
construction; operations are pure given an explicit RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    Indexing outside the stored range yields 0 (silence), never an error.
    `origin_index` is the branch bit index of the first stored payload bit.
    """

    i_bits: np.ndarray
    q_bits: np.ndarray
    origin_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "i_bits", _as_payload_bits(self.i_bits, "i_bits"))
        object.__setattr__(self, "q_bits", _as_payload_bits(self.q_bits, "q_bits"))
        if abs(len(self.i_bits) - len(self.q_bits)) > 1:
            raise ValueError("i_bits and q_bits lengths may differ by at most 1")

    def i_bit(self, k: int) -> int:
        """In-phase bit at branch index k; 0 outside the payload span."""
        j = k - self.origin_index
        if 0 <= j < len(self.i_bits):
            return int(self.i_bits[j])
        return 0

    def q_bit(self, k: int) -> int:
        """Quadrature bit at branch index k; 0 outside the payload span."""
        j = k - self.origin_index
        if 0 <= j < len(self.q_bits):
            return int(self.q_bits[j])
        return 0

    @property
    def n_transmit_bits(self) -> int:
        return len(self.i_bits) + len(self.q_bits)


def multiplex_bits(bits) -> IqStream:
    """Split a +-1 bit sequence onto the two branches.

    Even transmit positions (0, 2, 4, ...) become in-phase bits, odd
    positions quadrature bits.
    """
    arr = _as_payload_bits(bits, "payload")
    if arr.size == 0:
        raise ValueError("empty payload")
    return IqStream(i_bits=arr[0::2], q_bits=arr[1::2])


def demultiplex_bits(stream: IqStream) -> np.ndarray:
    """Inverse of multiplex_bits: the bits back in transmit order."""
    n_i, n_q = len(stream.i_bits), len(stream.q_bits)
    out = np.zeros(n_i + n_q, dtype=np.int8)
    out[0 : 2 * n_i : 2] = stream.i_bits
    out[1 : 2 * n_q + 1 : 2] = stream.q_bits
    return out


@dataclass(frozen=True)
class InterfererParams:
    """One interfering sender: linear amplitude, time offset tau (seconds,
    positive arrives later), carrier phase offset (normalized into [0, 2pi)),
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


@dataclass(frozen=True)
class Scenario:
    """A collision: one synchronized sender plus any number of interferers.

    The receiver is fully synchronized to the synchronized sender, which
    therefore has zero time and phase offset by construction. `half_bit` is
    T in seconds (bit duration 2T); `noise_std` is the per-soft-bit Gaussian
    standard deviation (0 = noiseless).
    """

    soi_amplitude: float
    soi_payload: IqStream
    interferers: tuple = field(default=())
    half_bit: float = 1.0
    noise_std: float = 0.0

    def __post_init__(self):
        if not self.soi_amplitude > 0:
            raise ValueError("soi_amplitude must be positive")
        if not self.half_bit > 0:
            raise ValueError("half_bit must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        object.__setattr__(self, "interferers", tuple(self.interferers))

    def sir(self) -> float:
        """Signal-to-interference power ratio (linear)."""
        p_int = sum(u.amplitude**2 for u in self.interferers)
        if p_int == 0:
            return math.inf
        return self.soi_amplitude**2 / p_int


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
        return symbols, BIPOLAR_CHIP_TABLE[symbols].reshape(packets, -1)

    soi = draw()
    return [soi] + [soi if mode == "identical" else draw() for _ in range(n_interferers)]


def make_payload(mode: str, coding: str, length_bits: int, rng) -> tuple[IqStream, IqStream]:
    """Draw payloads for the synchronized sender and one interferer.

    `mode` is "independent" (two fresh draws) or "identical" (the interferer
    copies the synchronized sender). `coding` is "uncoded" or "coded"; one
    packet of draw_payloads.
    """
    if mode not in ("independent", "identical"):
        raise ValueError(f"unknown payload mode {mode!r}")
    if coding not in ("uncoded", "coded"):
        raise ValueError(f"unknown coding {coding!r}")
    if length_bits <= 0:
        raise ValueError("length_bits must be positive")
    if coding == "coded" and length_bits % BITS_PER_SYMBOL != 0:
        raise ValueError("coded payload length must be a whole number of 4-bit symbols")
    soi, interferer = draw_payloads(rng, mode, coding == "coded", length_bits, 1, 1)
    return multiplex_bits(soi[1][0]), multiplex_bits(interferer[1][0])
