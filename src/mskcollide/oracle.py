"""Numerical validation of the closed-form demodulator contributions.

Integrates the matched-filter product of an interfering signal directly,
either in baseband after ideal lowpass filtering (the primary oracle, tight
tolerance) or in full passband with an explicit carrier (secondary check;
the unfiltered double-carrier terms leave a residue of order
1/carrier_multiple). Also evaluates the pulse-train primitive integrals
both in closed form and by quadrature.

Pulse trains are piecewise constant between edges at tau + mT, and a
decision of transmit position n integrates over [n - T, n + T], so every
integration splits into exactly three pieces at the two edges inside it
(the first has zero width when tau is a whole multiple of T). Within a
piece the bit values are constants and a 16-node Gauss-Legendre rule
integrates only the smooth trigonometric factor, one panel per piece in
baseband and one per double-carrier period in passband. As in the closed
forms, times are in units of T = 1, so a bit lasts 2.
"""

from __future__ import annotations

import math

import numpy as np

from .demod import decompose_offset
from .signal_model import InterfererParams, _is_integer, transmit_position

#: The smooth factors of the pulse-train primitive integrals.
RECT_KINDS = ("one", "cos2wp", "sin2wp")

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


def _integrate_pieces(coeff, bits: np.ndarray, n: int, tau: float,
                      trains=(0, 1), panels_per_bit: int = 1) -> float:
    """Integrate sum_j train_j(t) * coeff(t)[j] over the decision interval
    [n - 1, n + 1] of transmit position n, for the pulse trains of the given
    parities (0 in-phase, 1 quadrature) of bits delayed by tau.

    The edges tau + m and tau + (m + 1) split the interval into three
    pieces; each gets max(1, ceil(panels_per_bit * its share of the
    interval)) equal Gauss-Legendre panels, so a zero-width piece adds
    exactly 0. A table row per piece holds its first panel's midpoint, the
    half-width and the trains' values at the piece midpoint, repeated per
    panel where a piece has more than one; coeff is evaluated once on the
    nodes of every panel, an array of shape (panels, nodes).
    """
    m = math.ceil(n - 1 - tau)
    points = (n - 1.0, tau + m, tau + (m + 1), n + 1.0)
    counts, rows = [], []
    for lo, hi in zip(points[:-1], points[1:]):
        counts.append(max(1, math.ceil(panels_per_bit * (hi - lo) / 2.0)))
        half = 0.5 * (hi - lo) / counts[-1]
        row = [lo + half, half]
        for parity in trains:
            row.append(_train(bits, 0.5 * (lo + hi), tau, parity))
        rows.append(row)
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


def _train(bits: np.ndarray, t: float, tau: float, parity: int) -> int:
    """Value at time t of the pulse train of parity 0 (in-phase) or 1
    (quadrature) of bits delayed by tau: the bit at the train's transmit
    position whose pulse, centred on tau + that position, covers t."""
    return _bit(bits, 2 * math.floor((t - tau + (1 - parity)) / 2.0) + parity)


def oracle_lambda_baseband(params: InterfererParams, k: int, branch: str = "I") -> float:
    """Numerically integrate the post-lowpass matched-filter product.

    Independent of the closed form's bit-index bookkeeping because the
    pulse trains are evaluated pointwise. Within a piece the integrand has
    frequency at most pi/T, so one Gauss-Legendre panel per piece reaches
    round-off. The integrand is taken at unit amplitude and the result
    scaled, so no finite amplitude overflows inside the sum.
    """
    n = transmit_position(k, branch)
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

    return params.amplitude * _integrate_pieces(coeff, params.bits, n, params.tau)


def oracle_lambda_passband(params: InterfererParams, k: int, branch: str = "I",
                           carrier_multiple: int = 256) -> float:
    """Integrate the full passband product with an explicit carrier.

    The carrier is carrier_multiple times the pulse frequency; agreement
    with the baseband oracle is up to an O(1/carrier_multiple) residue from
    the unfiltered double-carrier terms. A bit holds carrier_multiple
    double-carrier periods, and each gets one Gauss-Legendre panel. As in
    baseband, the integral is taken at unit amplitude and then scaled.
    """
    n = transmit_position(k, branch)
    if not _is_integer(carrier_multiple) or not 8 <= carrier_multiple <= MAX_CARRIER_MULTIPLE:
        raise ValueError(f"carrier_multiple must be an integer in "
                         f"8..{MAX_CARRIER_MULTIPLE}, not {carrier_multiple!r}")
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

    return params.amplitude * _integrate_pieces(coeff, params.bits, n, tau,
                                                panels_per_bit=carrier_multiple)


def rect_integral(f_kind: str, params: InterfererParams, k: int,
                  branch: str = "I") -> float:
    """Closed form of the pulse-train primitive integrals over the in-phase
    decision interval of bit k, for the offset and payload of params (its
    amplitude and phase do not enter).

    f_kind selects the smooth factor: "one", "cos2wp" (cos 2*w_p*t) or
    "sin2wp" (sin 2*w_p*t). branch "I" integrates the in-phase pulse train,
    "Q" the quadrature train leaking into the same interval.
    """
    if f_kind not in RECT_KINDS:
        raise ValueError(f"unknown f_kind {f_kind!r}")
    n = transmit_position(k, branch)
    tau, bits = params.tau, params.bits
    two_t = 2.0
    w_p = math.pi / two_t
    k_shift, tau_rel = decompose_offset(tau if branch == "I" else tau + 1.0)
    n -= 2 * k_shift
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


def rect_integral_quadrature(f_kind: str, params: InterfererParams, k: int,
                             branch: str = "I") -> float:
    """Direct quadrature of the primitive integrals; numeric twin of
    rect_integral."""
    if f_kind not in RECT_KINDS:
        raise ValueError(f"unknown f_kind {f_kind!r}")
    n = transmit_position(k, branch)
    w_p = math.pi / 2.0
    smooth = {"one": np.ones_like, "cos2wp": np.cos, "sin2wp": np.sin}[f_kind]

    def coeff(t):
        return (smooth(2.0 * w_p * t),)

    # the in-phase decision interval of bit k, centred on 2k, either train
    return _integrate_pieces(coeff, params.bits, n - n % 2, params.tau, trains=(n % 2,))
