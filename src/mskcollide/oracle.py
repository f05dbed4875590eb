"""Numerical validation of the closed-form demodulator contributions.

Integrates the matched-filter product of an interfering signal directly,
either in baseband after ideal lowpass filtering (the primary oracle, tight
tolerance) or in full passband with an explicit carrier (secondary check;
the unfiltered double-carrier terms leave a residue of order
1/carrier_multiple). Also evaluates the pulse-train primitive integrals
both in closed form and by quadrature.

Pulse trains are piecewise constant, so every integration interval is split
exactly at pulse edges; within a piece the bit values are constants and a
16-node Gauss-Legendre rule integrates only the smooth trigonometric factor,
one panel per piece in baseband and one per double-carrier period in
passband. As in the closed forms, times are in units of T = 1, so a bit
lasts 2.
"""

from __future__ import annotations

import math

import numpy as np

from .demod import decompose_offset
from .signal_model import InterfererParams

_EDGE_EPS = 1e-12

#: Most carrier multiples a passband run takes: its node arrays stay near
#: 8 MB each.
MAX_CARRIER_MULTIPLE = 2**16


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    from the eigenvalues of the Jacobi matrix (Golub and Welsch, 1969)."""
    i = np.arange(1, n)
    beta = i / np.sqrt(4.0 * i * i - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


_NODES, _WEIGHTS = _gauss_legendre(16)


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
                      panels_per_bit: int = 1) -> float:
    """Integrate sum_j bits_at(mid)[j] * coeff(t)[j] with bits constant per piece.

    Each piece between pulse edges gets ceil(panels_per_bit * its share of
    [a, b]) equal Gauss-Legendre panels. A table row per piece holds its
    first panel's midpoint, the half-width and the piece's bits, repeated
    per panel where a piece has more than one; coeff is evaluated once on
    the nodes of every panel, an array of shape (panels, nodes).
    """
    points = [a, *_pulse_edges(a, b, tau), b]
    counts, rows = [], []
    for lo, hi in zip(points[:-1], points[1:]):
        counts.append(math.ceil(panels_per_bit * (hi - lo) / (b - a)))
        half = 0.5 * (hi - lo) / counts[-1]
        rows.append((lo + half, half, *bits_at(0.5 * (lo + hi))))
    table = np.array(rows)
    if len(rows) < sum(counts):
        table = np.repeat(table, counts, axis=0)
        panel = np.arange(len(table)) - np.repeat(np.cumsum(counts) - counts, counts)
        table[:, 0] += 2.0 * table[:, 1] * panel
    parts = np.asarray(coeff(table[:, :1] + table[:, 1:2] * _NODES)) @ _WEIGHTS
    return float(np.vdot(parts, table[:, 2:].T * table[:, 1]))


def _bit(bits: np.ndarray, n: int) -> int:
    """Payload bit at transmit position n: in-phase bit m sits at 2m and
    quadrature bit m at 2m + 1. 0 (silence) outside the payload."""
    return int(bits[n]) if 0 <= n < len(bits) else 0


def _bit_i_at(bits: np.ndarray, t: float, tau: float) -> int:
    """In-phase pulse-train value at time t for a signal delayed by tau."""
    return _bit(bits, 2 * math.floor((t - tau + 1.0) / 2.0))


def _bit_q_at(bits: np.ndarray, t: float, tau: float) -> int:
    """Quadrature pulse-train value at time t for a signal delayed by tau."""
    return _bit(bits, 2 * math.floor((t - tau) / 2.0) + 1)


def _interval(k: int, branch: str) -> tuple[float, float]:
    if branch == "I":
        return (float(2 * k - 1), float(2 * k + 1))
    return (float(2 * k), float(2 * k + 2))


def oracle_lambda_baseband(params: InterfererParams, k: int, branch: str = "I") -> float:
    """Numerically integrate the post-lowpass matched-filter product.

    Independent of the closed form's bit-index bookkeeping because the
    pulse trains are evaluated pointwise. Within a piece the integrand has
    frequency at most pi/T, so one Gauss-Legendre panel per piece reaches
    round-off. The integrand is taken at unit amplitude and the result
    scaled, so no finite amplitude overflows inside the sum.
    """
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    a, b = _interval(k, branch)
    w_p = math.pi / 2.0
    phi_p = w_p * params.tau
    phi_c = params.phi_c
    amp = 0.5
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
        return (_bit_i_at(params.bits, t, params.tau),
                _bit_q_at(params.bits, t, params.tau))

    return params.amplitude * _integrate_pieces(coeff, bits_at, a, b, params.tau)


def oracle_lambda_passband(params: InterfererParams, k: int, branch: str = "I",
                           carrier_multiple: int = 256) -> float:
    """Integrate the full passband product with an explicit carrier.

    The carrier is carrier_multiple times the pulse frequency; agreement
    with the baseband oracle is up to an O(1/carrier_multiple) residue from
    the unfiltered double-carrier terms. A bit holds carrier_multiple
    double-carrier periods, and each gets one Gauss-Legendre panel. As in
    baseband, the integral is taken at unit amplitude and then scaled.
    """
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    if not 8 <= carrier_multiple <= MAX_CARRIER_MULTIPLE:
        raise ValueError(f"carrier_multiple must lie in 8..{MAX_CARRIER_MULTIPLE}")
    a, b = _interval(k, branch)
    w_p = math.pi / 2.0
    w_c = carrier_multiple * w_p
    tau, phi_c = params.tau, params.phi_c

    if branch == "I":
        def basis(t):
            return np.cos(w_p * t) * np.cos(w_c * t)
    else:
        def basis(t):
            return np.sin(w_p * t) * np.sin(w_c * t)

    def coeff(t):
        ph = basis(t) * 2.0
        return (ph * np.cos(w_p * (t - tau)) * np.cos(w_c * t + phi_c),
                ph * np.sin(w_p * (t - tau)) * np.sin(w_c * t + phi_c))

    def bits_at(t):
        return (_bit_i_at(params.bits, t, tau),
                _bit_q_at(params.bits, t, tau))

    return params.amplitude * _integrate_pieces(coeff, bits_at, a, b, tau,
                                                panels_per_bit=carrier_multiple)


def rect_integral(f_kind: str, branch: str, tau: float, bits: np.ndarray,
                  k: int) -> float:
    """Closed form of the pulse-train primitive integrals over the in-phase
    decision interval of bit k.

    f_kind selects the smooth factor: "one", "cos2wp" (cos 2*w_p*t) or
    "sin2wp" (sin 2*w_p*t). branch "I" integrates the in-phase pulse train,
    "Q" the quadrature train leaking into the same interval. bits is the
    payload in transmit order.
    """
    if f_kind not in ("one", "cos2wp", "sin2wp"):
        raise ValueError(f"unknown f_kind {f_kind!r}")
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    two_t = 2.0
    w_p = math.pi / two_t
    k_shift, tau_rel = decompose_offset(tau if branch == "I" else tau + 1.0)
    n = 2 * (k - k_shift) + (0 if branch == "I" else 1)
    prev, cur = _bit(bits, n - 2), _bit(bits, n)
    phi_p = math.pi * tau / two_t
    if f_kind == "one":
        return tau_rel * prev + (two_t - tau_rel) * cur
    diff = prev - cur
    if f_kind == "cos2wp":
        val = -1.0 / (2.0 * w_p) * math.sin(2.0 * phi_p) * diff
        return val if branch == "I" else -val
    if branch == "I":
        return -1.0 / (2.0 * w_p) * (1.0 - math.cos(2.0 * phi_p)) * diff
    return -1.0 / (2.0 * w_p) * (1.0 + math.cos(2.0 * phi_p)) * diff


def rect_integral_quadrature(f_kind: str, branch: str, tau: float,
                             bits: np.ndarray, k: int) -> float:
    """Direct quadrature of the primitive integrals; numeric twin of
    rect_integral."""
    if f_kind not in ("one", "cos2wp", "sin2wp"):
        raise ValueError(f"unknown f_kind {f_kind!r}")
    if branch not in ("I", "Q"):
        raise ValueError("branch must be 'I' or 'Q'")
    a, b = _interval(k, "I")
    w_p = math.pi / 2.0
    smooth = {"one": np.ones_like, "cos2wp": np.cos, "sin2wp": np.sin}[f_kind]
    bit_at = _bit_i_at if branch == "I" else _bit_q_at

    def coeff(t):
        return (smooth(2.0 * w_p * t),)

    def bits_at(t):
        return (bit_at(bits, t, tau),)

    return _integrate_pieces(coeff, bits_at, a, b, tau)
