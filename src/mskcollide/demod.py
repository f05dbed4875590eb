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
leads the quadrature grid by half a bit). The sign conventions used here
are pinned by the numerical oracle (see the oracle module and its tests).
Times are in units of T, half a bit duration: the closed form depends on
the offset only through tau / T, so T = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal_model import InterfererParams

#: Extra pulse-grid shift applied before decomposing, in units of T.
#: "active" decomposes tau itself (bits of the branch being detected),
#: "q_leak" quadrature bits leaking into in-phase detection (tau + T),
#: "i_leak" in-phase bits leaking into quadrature detection (tau - T).
VARIANT_SHIFTS = {"active": 0.0, "q_leak": 1.0, "i_leak": -1.0}


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


def interference_contribution(params: InterfererParams, k: int,
                              branch: str = "I") -> float:
    """Closed-form contribution of one interferer to soft bit k of a branch:
    a one-row evaluation of batch_interference."""
    payload = params.payload
    return float(batch_interference(payload.i_bits, payload.q_bits, params.amplitude,
                                    params.tau, params.phi_c, branch, 1,
                                    index_offset=-k)[0])


def _shifted_pair(bits: np.ndarray, shift: int, num_bits: int):
    """(prev, cur) where cur[..., k] = bits[..., k - shift] and prev lags cur
    by one index; single buffer, zero outside the payload."""
    buf = np.zeros(bits.shape[:-1] + (num_bits + 1,), dtype=bits.dtype)
    lo = max(0, shift + 1)
    hi = min(num_bits + 1, bits.shape[-1] + shift + 1)
    if lo < hi:
        buf[..., lo:hi] = bits[..., lo - shift - 1 : hi - shift - 1]
    return buf[..., :-1], buf[..., 1:]


def batch_interference(i_bits: np.ndarray, q_bits: np.ndarray, amplitude: float,
                       tau: float, phi_c, branch: str, num_bits: int,
                       index_offset: int = 0) -> np.ndarray:
    """Contributions of one interferer for decision indices 0..num_bits-1.

    i_bits/q_bits hold +-1 payload bits on the trailing axis with arbitrary
    leading batch axes; phi_c broadcasts over (not beyond) those leading
    axes. This is the only evaluator of the closed form;
    interference_contribution is its one-row case. index_offset is the
    interferer payload's first branch index relative to the first decision
    index (0 when both grids start at bit 0).
    """
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    main_dec = decompose_offset(tau, "active")
    leak_dec = decompose_offset(tau, "q_leak" if branch == "I" else "i_leak")
    main_bits = i_bits if branch == "I" else q_bits
    leak_bits = q_bits if branch == "I" else i_bits
    phi_c = np.asarray(phi_c, dtype=np.float64)[..., None]
    main_prev, main_cur = _shifted_pair(main_bits, main_dec.k_shift + index_offset,
                                        num_bits)
    leak_prev, leak_cur = _shifted_pair(leak_bits, leak_dec.k_shift + index_offset,
                                        num_bits)
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
    # The operation order is fixed: the pinned table digests depend on every
    # rounding. In place, so a call allocates three arrays rather than nine.
    direct = (gain * (cos_p * main_dec.tau_rel - over_pi * sin_p)) * main_prev
    leak = (gain * (cos_p * (two_t - main_dec.tau_rel) + over_pi * sin_p)) * main_cur
    direct += leak
    np.multiply(gain * (sin_p * leak_dec.tau_rel + over_pi * cos_p), leak_prev, out=leak)
    leak += (gain * (sin_p * (two_t - leak_dec.tau_rel) - over_pi * cos_p)) * leak_cur
    direct *= np.cos(phi_c)
    leak *= np.sin(phi_c)
    direct -= leak
    return direct

