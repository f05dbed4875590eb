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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal_model import InterfererParams, Scenario

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


def decompose_offset(tau: float, T: float = 1.0, variant: str = "active") -> OffsetDecomposition:
    """Decompose a time offset for one pulse grid; total for all finite tau."""
    if T <= 0:
        raise ValueError("T must be positive")
    if variant not in VARIANT_SHIFTS:
        raise ValueError(f"unknown variant {variant!r}")
    shifted = tau + VARIANT_SHIFTS[variant] * T
    two_t = 2.0 * T
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
                              branch: str = "I", T: float = 1.0) -> float:
    """Closed-form contribution of one interferer to soft bit k of a branch:
    a one-row evaluation of batch_interference."""
    payload = params.payload
    return float(batch_interference(payload.i_bits, payload.q_bits, params.amplitude,
                                    params.tau, params.phi_c, branch, 1, T,
                                    payload.origin_index - k)[0])


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
                       T: float = 1.0, index_offset: int = 0) -> np.ndarray:
    """Contributions of one interferer for decision indices 0..num_bits-1.

    i_bits/q_bits hold +-1 payload bits on the trailing axis with arbitrary
    leading batch axes; phi_c broadcasts over those leading axes. This is
    the only evaluator of the closed form; interference_contribution is its
    one-row case. index_offset is the interferer payload's first branch
    index relative to the first decision index (0 when both grids start at
    bit 0).
    """
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    main_dec = decompose_offset(tau, T, "active")
    leak_dec = decompose_offset(tau, T, "q_leak" if branch == "I" else "i_leak")
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
    two_t = 2.0 * T
    over_pi = two_t / math.pi
    gain = amplitude / two_t
    cos_p = math.cos(main_dec.phi_p)
    sin_p = math.sin(main_dec.phi_p)
    direct = ((gain * (cos_p * main_dec.tau_rel - over_pi * sin_p)) * main_prev
              + (gain * (cos_p * (two_t - main_dec.tau_rel) + over_pi * sin_p)) * main_cur)
    leak = ((gain * (sin_p * leak_dec.tau_rel + over_pi * cos_p)) * leak_prev
            + (gain * (sin_p * (two_t - leak_dec.tau_rel) - over_pi * cos_p)) * leak_cur)
    return np.cos(phi_c) * direct - np.sin(phi_c) * leak


def packet_soft_bits(scenario: Scenario, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Soft bits for every payload index of the synchronized sender's grid.

    Returns (soft_i, soft_q) float arrays covering the synchronized
    sender's payload span on each branch.
    """
    payload = scenario.soi_payload
    n_i, n_q = len(payload.i_bits), len(payload.q_bits)
    soft_i = scenario.soi_amplitude * payload.i_bits.astype(np.float64)
    soft_q = scenario.soi_amplitude * payload.q_bits.astype(np.float64)
    for u in scenario.interferers:
        bi = u.payload.i_bits.astype(np.float64)
        bq = u.payload.q_bits.astype(np.float64)
        offset = u.payload.origin_index - payload.origin_index
        soft_i += batch_interference(bi, bq, u.amplitude, u.tau, u.phi_c, "I",
                                     n_i, scenario.half_bit, offset)
        soft_q += batch_interference(bi, bq, u.amplitude, u.tau, u.phi_c, "Q",
                                     n_q, scenario.half_bit, offset)
    if scenario.noise_std > 0:
        if rng is None:
            raise ValueError("rng is required when noise_std > 0")
        soft_i += rng.normal(0.0, scenario.noise_std, size=n_i)
        soft_q += rng.normal(0.0, scenario.noise_std, size=n_q)
    return soft_i, soft_q
