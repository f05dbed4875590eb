"""Closed-form matched-filter contributions of colliding MSK signals.

The receiver correlates against the half-sine basis of the branch under
detection and integrates over one bit duration. A signal offset in time by
tau and in carrier phase by phi_c contributes to each decision through at
most four of its bits: the two bits of the same branch whose pulses overlap
the integration window, and two bits of the opposite branch that leak in
when phi_c != 0. With the matched-filter gain folded in, a fully
synchronized unit-amplitude signal contributes exactly its bit value.

The quadrature branch obeys the same expression with the branch roles
exchanged: its own bits enter with the plain offset decomposition and the
in-phase bits leak with the offset shifted by -T (the in-phase pulse grid
leads the quadrature grid by half a bit). That is the in-phase branch's
leak offset tau + T moved back by one bit (2T), so one decomposition of
tau and one of tau + T (_offset_terms) give both branches the same four
weights and, in transmit order, the same four chip lags. So an
interferer's contribution to any decision is one of the 81 entries of its
pattern table (_pattern_table), picked by four ternary chips (+-1, or 0
for silence). _PatternGather gathers whole packets from that table for
the Monte Carlo engine; interference_contribution evaluates the same
arithmetic at just the two patterns of bit k of each draw of a batch
(signal_model's Draws).

The sign conventions used here are pinned by the numerical oracle (see the
oracle module and its tests). Times are in units of T, half a bit
duration: the closed form depends on the offset only through tau / T, so
T = 1 throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .signal_model import Draws


def decompose_offset(shifted):
    """(k_shift, tau_rel) of an array of offsets on one pulse grid (tau, or
    tau + T for the leaking bits), elementwise: decision k reads bits
    k - k_shift - 1 and k - k_shift, and tau_rel lies in [0, 2T). k_shift
    holds whole numbers as floats, exact at any offset. Total for all
    finite offsets."""
    two_t = 2.0
    # + 0.0 makes floor's -0.0 the 0 it stands for, so tau_rel keeps the
    # sign of a -0.0 offset
    k_shift = np.floor(shifted / two_t) + 0.0
    tau_rel = shifted - two_t * k_shift
    # Guard against float rounding pushing the remainder onto 2T (taking
    # 0.0 from the rest leaves it as it is).
    wrapped = tau_rel >= two_t
    k_shift = k_shift + wrapped
    tau_rel = tau_rel - two_t * wrapped
    return k_shift, np.where(tau_rel < 0.0, 0.0, tau_rel)


def _offset_terms(tau):
    """Lags and phase-free weights (without the gain A / 2T) of the (main
    prev, main cur, leak prev, leak cur) chips: both branches' bit at
    transmit position n has pattern chips[n - lag] (0 outside the packet).
    Elementwise, as decompose_offset: on one offset for the Monte Carlo
    engine, on an array of them for a batch of draws."""
    k_main, rel_main = decompose_offset(tau)
    k_leak, rel_leak = decompose_offset(tau + 1.0)
    # With b the detected-branch bits and l the leaking bits selected by
    # their decompositions (remainders t and t'),
    #   direct = cos(phi_p) (t b[k-1] + (2T - t) b[k]) - 2T/pi sin(phi_p) (b[k-1] - b[k])
    #   leak   = sin(phi_p) (t' l[k-1] + (2T - t') l[k]) + 2T/pi cos(phi_p) (l[k-1] - l[k])
    #   lambda = A / 2T (cos(phi_c) direct - sin(phi_c) leak),
    # folded into one scalar weight per selected bit.
    two_t = 2.0
    over_pi = two_t / math.pi
    phi_p = math.pi * tau / two_t
    cos_p, sin_p = np.cos(phi_p), np.sin(phi_p)
    weights = (cos_p * rel_main - over_pi * sin_p,
               cos_p * (two_t - rel_main) + over_pi * sin_p,
               sin_p * rel_leak + over_pi * cos_p,
               sin_p * (two_t - rel_leak) - over_pi * cos_p)
    lags = (2 * k_main + 2, 2 * k_main, 2 * k_leak + 1, 2 * k_leak - 1)
    return lags, weights


#: Every ternary (main prev, main cur, leak prev, leak cur) bit pattern, as
#: four flat (81,) arrays indexed by the pattern code: the main pair varies
#: slowest, and each pair (prev, cur) = divmod(j, 3) - 1 at its digit pair j.
#: Contiguous float64, so a one-row table spends no time on casts.
_PATTERNS = tuple(np.broadcast_to(digits, (9, 9)).astype(np.float64).reshape(81) for digits in (
    (np.arange(9) // 3 - 1)[:, None], (np.arange(9) % 3 - 1)[:, None],
    np.arange(9) // 3 - 1, np.arange(9) % 3 - 1))


def _pattern_table(amplitude, weights, phi_c, patterns=_PATTERNS) -> np.ndarray:
    """One interferer's contribution for every bit pattern and phase.

    Shape phi_c.shape + (81,): each pattern at its code 27 (main prev + 1)
    + 9 (main cur + 1) + 3 (leak prev + 1) + (leak cur + 1). Both branches
    share the four weights, so one table serves both. It is the one
    evaluation of the closed form: the Monte Carlo engine gathers whole
    packets from it, and interference_contribution passes each draw's own
    amplitude and weights, as (draws, 1) columns, with its own (draws, 2)
    patterns, for a (draws, 2) table of just the values it reads.
    """
    gain = amplitude / 2.0
    w_main_prev, w_main_cur, w_leak_prev, w_leak_cur = (gain * weight for weight in weights)
    main_prev, main_cur, leak_prev, leak_cur = patterns
    phi_c = np.asarray(phi_c, dtype=np.float64)
    # cos(phi_c) direct - sin(phi_c) leak in the one operation order every
    # soft value is computed in: the pinned table digests depend on every
    # rounding. Each outer product holds one rounded product an entry, as a
    # broadcast multiply would, but einsum writes it faster. Its exact
    # zeros are +0.0 where a broadcast may give -0.0; no soft value sees
    # the sign, since a sum started from a chip (+0.0 for none) adds it,
    # and x + (-x) rounds to +0.0.
    direct = w_main_prev * main_prev
    leak = w_main_cur * main_cur
    direct += leak
    np.multiply(w_leak_prev, leak_prev, out=leak)
    leak += w_leak_cur * leak_cur
    table = np.einsum("...,...j->...j", np.cos(phi_c), direct)
    table -= np.einsum("...,...j->...j", np.sin(phi_c), leak)
    return table


def interference_contribution(draws: Draws) -> np.ndarray:
    """Closed-form contribution of each draw of a batch to its soft bit k,
    as (draws, 2) columns for the in-phase and quadrature branches: each
    draw's pattern table (_pattern_table) at the patterns of the bit's two
    transmit positions, as the Monte Carlo engine reads them."""
    lags, weights = _offset_terms(draws.tau)
    # (draws, lag, branch) positions, each lag's chips at both branches
    n = draws.position[:, None, None] + (0.0, 1.0) - np.stack(lags, axis=1)[..., None]
    patterns = draws.bits_at(n.reshape(len(n), -1)).reshape(n.shape).transpose(1, 0, 2)
    return _pattern_table(draws.amplitude[:, None], [weight[:, None] for weight in weights],
                          draws.phi_c, patterns)


class _PatternGather:
    """Buffers that turn an interferer's chips, amplitude and per-packet
    phases into its transmit-order contribution, for slabs of up to `rows`
    packets of n_chips chips at offset tau; allocated once per point.

    Each chip is stored as the digit chip + 1 in a buffer whose padding
    holds the digit of a silent chip, so the four digits of every
    position's pattern are one flat slice of it apiece, and the base-3
    pattern code is built with whole-slab int8 operations. The code plus
    its packet row's table offset (81 per row) indexes one np.take from the
    flattened per-packet pattern tables. Phases with a row stride of 0 (one
    phase for every packet, as a fixed phi_c draws them) share one table,
    whose row stride is 0 as well: the code alone indexes it.
    """

    def __init__(self, rows: int, n_chips: int, tau: float):
        lags, self.weights = _offset_terms(tau)
        lags = [int(lag) for lag in lags]
        pad = min(max(map(abs, lags)), n_chips)
        # a lag of n_chips or more reads only padding, as a lag of n_chips does
        self.starts = [pad - max(-pad, min(pad, lag)) for lag in lags]
        self.pad, self.n_chips, self.width = pad, n_chips, n_chips + 2 * pad
        self.digits = np.ones((rows, self.width), dtype=np.int8)
        self.code = np.empty((rows, self.width), dtype=np.int8)
        self.index = np.empty((rows, n_chips), dtype=np.intp)
        self.values = np.empty((rows, n_chips))
        self.offset = np.arange(0, 81 * rows, 81)[:, None]

    def __call__(self, chips, amplitude, phi_c):
        """Contribution of chips (packets, n_chips) at one amplitude and
        per-packet phases phi_c (packets,)."""
        phi_c = np.asarray(phi_c)
        shared = phi_c.strides == (0,)
        table = _pattern_table(amplitude, self.weights, phi_c[:1] if shared else phi_c)
        rows, pad, n_chips = len(chips), self.pad, self.n_chips
        inner = (slice(None, rows), slice(pad, pad + n_chips))
        np.add(chips, 1, out=self.digits[inner], casting="unsafe")
        # flat slices skip the first and last pad positions, so every packet
        # position reads digits of its own row
        size = rows * self.width - 2 * pad
        digits = self.digits.reshape(-1)
        main_prev, main_cur, leak_prev, leak_cur = (
            digits[start:start + size] for start in self.starts)
        code = np.multiply(main_prev, 3, out=self.code.reshape(-1)[pad:pad + size])
        code += main_cur
        code *= 3
        code += leak_prev
        code *= 3
        code += leak_cur
        index = self.code[inner]
        if not shared:
            index = np.add(index, self.offset[:rows], out=self.index[:rows])
        # every index is in range; "clip" only spares take a buffered out
        return np.take(table.reshape(-1), index, out=self.values[:rows], mode="clip")
