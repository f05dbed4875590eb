"""Numerical validation of the closed-form demodulator contributions.

Integrates the matched-filter product of an interfering signal directly,
either in baseband after ideal lowpass filtering (the primary oracle, tight
tolerance) or in full passband with an explicit carrier (secondary check;
the unfiltered double-carrier terms leave a residue of order
1/carrier_multiple). Also evaluates the pulse-train primitive integrals
both in closed form and by quadrature.

Pulse trains are piecewise constant, so every integration interval is split
exactly at pulse edges; within a piece the bit values are constants and the
composite rule integrates only the smooth trigonometric factor, preserving
the rule's theoretical convergence order. As in the closed forms, times are
in units of T = 1, so a bit lasts 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demod import decompose_offset
from .signal_model import InterfererParams, IqStream

_EDGE_EPS = 1e-12

#: Most composite-rule steps per bit: one piece's sample arrays stay near
#: 8 MB each.
MAX_STEPS_PER_BIT = 2**20


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite-rule settings: subdivisions of one 2T bit interval, the
    rule itself, and the carrier frequency multiple for passband runs."""

    steps_per_bit: int = 4096
    method: str = "simpson"
    carrier_multiple: int = 256

    def __post_init__(self):
        if not 64 <= self.steps_per_bit <= MAX_STEPS_PER_BIT:
            raise ValueError(f"steps_per_bit must lie in 64..{MAX_STEPS_PER_BIT}")
        if self.method not in ("midpoint", "simpson"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "simpson" and self.steps_per_bit % 2 != 0:
            raise ValueError("simpson requires an even step count")
        # Passband double-carrier terms have period 2T / carrier_multiple:
        # at 4 steps per period (4096 steps, multiple 1024) the oracle sat
        # 5e-7 from baseband, at 2 it aliased them (0.32). The shipped
        # multiple stays valid at any step count: baseband runs ignore it.
        ceiling = max(256, self.steps_per_bit // 4)
        if not 8 <= self.carrier_multiple <= ceiling:
            raise ValueError(f"carrier_multiple must lie in 8..{ceiling}")


def _composite(f, a: float, b: float, steps: int, method: str) -> float:
    h = (b - a) / steps
    if method == "midpoint":
        t = a + (np.arange(steps) + 0.5) * h
        return float(h * np.sum(f(t)))
    t = np.linspace(a, b, steps + 1)
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(w * f(t)))


def _pulse_edges(a: float, b: float, tau: float) -> list[float]:
    """Interior points of (a, b) where either pulse train may jump.

    In-phase edges sit at tau + (odd)T, quadrature edges at tau + (even)T;
    together every multiple of T offset by tau.
    """
    m0 = math.ceil(a - tau)
    edges = []
    m = m0
    while True:
        t = tau + m
        if t >= b - _EDGE_EPS:
            break
        if t > a + _EDGE_EPS:
            edges.append(t)
        m += 1
    return edges


def _integrate_pieces(coeff, bits_at, a: float, b: float, tau: float,
                      cfg: QuadratureConfig) -> float:
    """Integrate sum_j bits_at(mid)[j] * coeff(t)[j] with bits constant per piece."""
    points = [a] + _pulse_edges(a, b, tau) + [b]
    steps_total = cfg.steps_per_bit
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        if hi - lo <= _EDGE_EPS:
            continue
        steps = max(4, math.ceil(steps_total * (hi - lo) / (b - a)))
        if cfg.method == "simpson" and steps % 2:
            steps += 1
        mids = bits_at(0.5 * (lo + hi))

        def piece(t, mids=mids):
            parts = coeff(t)
            acc = mids[0] * parts[0]
            for bit, part in zip(mids[1:], parts[1:]):
                acc = acc + bit * part
            return acc

        total += _composite(piece, lo, hi, steps, cfg.method)
    return total


def _bit_i_at(payload: IqStream, t: float, tau: float) -> int:
    """In-phase pulse-train value at time t for a signal delayed by tau."""
    return payload.i_bit(math.floor((t - tau + 1.0) / 2.0))


def _bit_q_at(payload: IqStream, t: float, tau: float) -> int:
    """Quadrature pulse-train value at time t for a signal delayed by tau."""
    return payload.q_bit(math.floor((t - tau) / 2.0))


def _interval(k: int, branch: str) -> tuple[float, float]:
    if branch == "I":
        return (float(2 * k - 1), float(2 * k + 1))
    return (float(2 * k), float(2 * k + 2))


def oracle_lambda_baseband(params: InterfererParams, k: int, branch: str = "I",
                           cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Numerically integrate the post-lowpass matched-filter product.

    Converges to the closed form as the step count grows; independent of
    the closed form's bit-index bookkeeping because the pulse trains are
    evaluated pointwise.
    """
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    a, b = _interval(k, branch)
    w_p = math.pi / 2.0
    phi_p = w_p * params.tau
    phi_c = params.phi_c
    amp = 2.0 * params.amplitude / 4.0
    cos_c, sin_c = math.cos(phi_c), math.sin(phi_c)

    if branch == "I":
        def coeff(t):
            return (amp * cos_c * (math.cos(phi_p) + np.cos(2 * w_p * t - phi_p)),
                    amp * sin_c * (np.sin(2 * w_p * t - phi_p) - math.sin(phi_p)))
    else:
        def coeff(t):
            return (-amp * sin_c * (np.sin(2 * w_p * t - phi_p) + math.sin(phi_p)),
                    amp * cos_c * (math.cos(phi_p) - np.cos(2 * w_p * t - phi_p)))

    def bits_at(t):
        return (_bit_i_at(params.payload, t, params.tau),
                _bit_q_at(params.payload, t, params.tau))

    return _integrate_pieces(coeff, bits_at, a, b, params.tau, cfg)


def oracle_lambda_passband(params: InterfererParams, k: int, branch: str = "I",
                           cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Integrate the full passband product with an explicit carrier.

    The carrier is carrier_multiple times the pulse frequency; agreement
    with the baseband oracle is up to an O(1/carrier_multiple) residue from
    the unfiltered double-carrier terms.
    """
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    a, b = _interval(k, branch)
    w_p = math.pi / 2.0
    w_c = cfg.carrier_multiple * w_p
    tau, phi_c = params.tau, params.phi_c
    gain = 2.0 * params.amplitude

    if branch == "I":
        def basis(t):
            return np.cos(w_p * t) * np.cos(w_c * t)
    else:
        def basis(t):
            return np.sin(w_p * t) * np.sin(w_c * t)

    def coeff(t):
        ph = basis(t) * gain
        return (ph * np.cos(w_p * (t - tau)) * np.cos(w_c * t + phi_c),
                ph * np.sin(w_p * (t - tau)) * np.sin(w_c * t + phi_c))

    def bits_at(t):
        return (_bit_i_at(params.payload, t, tau),
                _bit_q_at(params.payload, t, tau))

    return _integrate_pieces(coeff, bits_at, a, b, tau, cfg)


def rect_integral(f_kind: str, branch: str, tau: float, payload: IqStream,
                  k: int) -> float:
    """Closed form of the pulse-train primitive integrals over the in-phase
    decision interval of bit k.

    f_kind selects the smooth factor: "one", "cos2wp" (cos 2*w_p*t) or
    "sin2wp" (sin 2*w_p*t). branch "I" integrates the in-phase pulse train,
    "Q" the quadrature train leaking into the same interval.
    """
    if f_kind not in ("one", "cos2wp", "sin2wp"):
        raise ValueError(f"unknown f_kind {f_kind!r}")
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    two_t = 2.0
    w_p = math.pi / two_t
    dec = decompose_offset(tau, "active" if branch == "I" else "q_leak")
    bit = payload.i_bit if branch == "I" else payload.q_bit
    kk = k - dec.k_shift
    prev, cur = bit(kk - 1), bit(kk)
    phi_p = dec.phi_p
    if f_kind == "one":
        return dec.tau_rel * prev + (two_t - dec.tau_rel) * cur
    diff = prev - cur
    if f_kind == "cos2wp":
        val = -1.0 / (2.0 * w_p) * math.sin(2.0 * phi_p) * diff
        return val if branch == "I" else -val
    if branch == "I":
        return -1.0 / (2.0 * w_p) * (1.0 - math.cos(2.0 * phi_p)) * diff
    return -1.0 / (2.0 * w_p) * (1.0 + math.cos(2.0 * phi_p)) * diff


def rect_integral_quadrature(f_kind: str, branch: str, tau: float,
                             payload: IqStream, k: int,
                             cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Direct quadrature of the primitive integrals; numeric twin of
    rect_integral."""
    if f_kind not in ("one", "cos2wp", "sin2wp"):
        raise ValueError(f"unknown f_kind {f_kind!r}")
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    a, b = _interval(k, "I")
    w_p = math.pi / 2.0

    if f_kind == "one":
        def coeff(t):
            return (np.ones_like(t),)
    elif f_kind == "cos2wp":
        def coeff(t):
            return (np.cos(2.0 * w_p * t),)
    else:
        def coeff(t):
            return (np.sin(2.0 * w_p * t),)

    if branch == "I":
        def bits_at(t):
            return (_bit_i_at(payload, t, tau),)
    else:
        def bits_at(t):
            return (_bit_q_at(payload, t, tau),)

    return _integrate_pieces(coeff, bits_at, a, b, tau, cfg)
