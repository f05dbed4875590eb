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
leak offset tau + T moved back by one bit (2T), so both branches take it
from one decomposition and share all four weights, differing only in
index shifts. So an interferer's contribution to any decision is one of
the 81 entries of its pattern table (_pattern_table), picked by four
ternary bits (+-1, or 0 for silence): interference_contribution reads one
entry, and the Monte Carlo engine gathers whole packets from it.

The sign conventions used here are pinned by the numerical oracle (see the
oracle module and its tests). Times are in units of T, half a bit
duration: the closed form depends on the offset only through tau / T, so
T = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal_model import InterfererParams

#: Extra pulse-grid shift applied before decomposing, in units of T.
#: "active" decomposes tau itself (bits of the branch being detected),
#: "q_leak" quadrature bits leaking into in-phase detection (tau + T);
#: in-phase bits leak into quadrature detection one bit later on that grid.
VARIANT_SHIFTS = {"active": 0.0, "q_leak": 1.0}


@dataclass(frozen=True)
class OffsetDecomposition:
    """Time offset split into a whole-bit index shift and a remainder.

    tau_rel is confined to [0, 2T); the active bit indices for decision k
    are k - k_shift - 1 and k - k_shift. phi_p is the pulse phase pi*tau/2T
    of the full (unwrapped) offset.
    """

    k_shift: int
    tau_rel: float
    phi_p: float


def decompose_offset(tau: float, variant: str = "active") -> OffsetDecomposition:
    """Decompose a time offset for one pulse grid; total for all finite tau."""
    if variant not in VARIANT_SHIFTS:
        raise ValueError(f"unknown variant {variant!r}")
    shifted = tau + VARIANT_SHIFTS[variant]
    two_t = 2.0
    k_shift = math.floor(shifted / two_t)
    tau_rel = shifted - two_t * k_shift
    # Guard against float rounding pushing the remainder onto 2T.
    if tau_rel >= two_t:
        k_shift += 1
        tau_rel -= two_t
    if tau_rel < 0.0:
        tau_rel = 0.0
    return OffsetDecomposition(k_shift, tau_rel, math.pi * tau / two_t)


def _branch_terms(amplitude: float, tau: float, branch: str):
    """The phase-free part of the closed form for one branch: the index
    shifts of its main and leaking bits and the four scalar weights of
    (main prev, main cur, leak prev, leak cur). The weights are the same
    for both branches; the quadrature leak shift is one less."""
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    main_dec = decompose_offset(tau, "active")
    leak_dec = decompose_offset(tau, "q_leak")
    # With b the detected-branch bits and l the leaking bits selected by
    # their decompositions (remainders t and t'),
    #   direct = cos(phi_p) (t b[k-1] + (2T - t) b[k]) - 2T/pi sin(phi_p) (b[k-1] - b[k])
    #   leak   = sin(phi_p) (t' l[k-1] + (2T - t') l[k]) + 2T/pi cos(phi_p) (l[k-1] - l[k])
    #   lambda = A / 2T (cos(phi_c) direct - sin(phi_c) leak),
    # folded into one scalar weight per selected bit so each array is
    # touched only twice.
    two_t = 2.0
    over_pi = two_t / math.pi
    gain = amplitude / two_t
    cos_p = math.cos(main_dec.phi_p)
    sin_p = math.sin(main_dec.phi_p)
    weights = (gain * (cos_p * main_dec.tau_rel - over_pi * sin_p),
               gain * (cos_p * (two_t - main_dec.tau_rel) + over_pi * sin_p),
               gain * (sin_p * leak_dec.tau_rel + over_pi * cos_p),
               gain * (sin_p * (two_t - leak_dec.tau_rel) - over_pi * cos_p))
    leak_shift = leak_dec.k_shift if branch == "I" else leak_dec.k_shift - 1
    return main_dec.k_shift, leak_shift, weights


def _combine(weights, main_prev, main_cur, leak_prev, leak_cur, phi_c):
    """cos(phi_c) direct - sin(phi_c) leak of the selected bits, in the one
    operation order every soft value is computed in: the pinned table
    digests depend on every rounding. The weights broadcast against the
    bit arrays, and phi_c against both."""
    w_main_prev, w_main_cur, w_leak_prev, w_leak_cur = weights
    direct = w_main_prev * main_prev
    leak = w_main_cur * main_cur
    direct += leak
    np.multiply(w_leak_prev, leak_prev, out=leak)
    leak += w_leak_cur * leak_cur
    table = direct * np.cos(phi_c)
    table -= leak * np.sin(phi_c)
    return table


#: Every ternary (main prev, main cur, leak prev, leak cur) bit pattern, as
#: four 9 x 9 arrays: the main pair varies along the rows and the leak pair
#: along the columns, each pair (prev, cur) = divmod(j, 3) - 1 at index j.
#: Contiguous float64, so a one-row table spends no time on casts.
_PATTERNS = tuple(np.broadcast_to(digits, (9, 9)).astype(np.float64) for digits in (
    (np.arange(9) // 3 - 1)[:, None], (np.arange(9) % 3 - 1)[:, None],
    np.arange(9) // 3 - 1, np.arange(9) % 3 - 1))


def _pattern_table(amplitude: float, tau: float, phi_c) -> np.ndarray:
    """One interferer's contribution for every bit pattern and phase.

    Shape phi_c.shape + (81,): each pattern at its code 27 (main prev + 1)
    + 9 (main cur + 1) + 3 (leak prev + 1) + (leak cur + 1). Both branches
    share the four weights, so one table serves both. It is the one
    evaluation of the closed form: interference_contribution reads one
    entry and the Monte Carlo engine gathers whole packets from it.
    """
    phi_c = np.asarray(phi_c, dtype=np.float64)[..., None, None]
    table = _combine(_branch_terms(amplitude, tau, "I")[2], *_PATTERNS, phi_c)
    return table.reshape(phi_c.shape[:-2] + (81,))


def _transmit_lags(tau: float):
    """Lags of the (main prev, main cur, leak prev, leak cur) chips in
    transmit order: both branches' bit at transmit position n has pattern
    chips[n - lag] (0 outside the packet)."""
    k_main = decompose_offset(tau, "active").k_shift
    k_leak = decompose_offset(tau, "q_leak").k_shift
    return (2 * k_main + 2, 2 * k_main, 2 * k_leak + 1, 2 * k_leak - 1)


def interference_contribution(params: InterfererParams, k: int,
                              branch: str = "I") -> float:
    """Closed-form contribution of one interferer to soft bit k of a branch:
    the entry of its pattern table (_pattern_table) at the pattern of the
    bit's transmit position, as the Monte Carlo engine reads it."""
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    n = 2 * k + (0 if branch == "I" else 1)
    bits = params.bits
    code = 0
    for lag in _transmit_lags(params.tau):
        m = n - lag
        code = 3 * code + (int(bits[m]) + 1 if 0 <= m < len(bits) else 1)
    return float(_pattern_table(params.amplitude, params.tau, params.phi_c)[code])
