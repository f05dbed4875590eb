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

Every integration runs on a batch of draws along a leading axis
(signal_model's `Draws`, as the closed forms do): one table row per
(draw, piece), one evaluation of the smooth factor on the nodes of all of
them, one reduction per draw. Each public function takes a batch and
returns every branch (and kind) of it, one integration per column, and a
draw's value does not depend on its batch. A batch is integrated in
chunks of at most `_CHUNK_PANELS` panels' worth of draws (at least one),
so node arrays stay near 0.5 MB, or one draw's 8 MB at the largest
carrier multiple.
"""

from __future__ import annotations

import math

import numpy as np

from .demod import decompose_offset
from .signal_model import Draws, _is_integer

#: The smooth factors of the pulse-train primitive integrals, and each as a
#: function of 2 * w_p * t.
RECT_KINDS = ("one", "cos2wp", "sin2wp")
_SMOOTH = {"one": np.ones_like, "cos2wp": np.cos, "sin2wp": np.sin}

#: Most carrier multiples a passband run takes: its node arrays stay near
#: 8 MB each.
MAX_CARRIER_MULTIPLE = 2**16

#: Panels one evaluation of the smooth factor covers at most, unless one
#: draw alone needs more (up to panels_per_bit + 3): 1,024 baseband draws,
#: and node arrays of 0.5 MB that stay in cache.
_CHUNK_PANELS = 2**12


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    from the eigenvalues of the Jacobi matrix (Golub and Welsch, 1969)."""
    i = np.arange(1, n)
    beta = i / np.sqrt(4.0 * i * i - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


_NODES, _WEIGHTS = _gauss_legendre(16)


def _table_map(trains) -> tuple[np.ndarray, np.ndarray]:
    """The affine map, a matrix and an offset, from a draw's (start, edge,
    start - tau, m, tau, phi_c) to its three table rows, one per piece of
    [start, start + 2] split at edge = tau + m and edge + 1. A row holds
    the piece's midpoint and half-width, tau, phi_c, and for each train
    parity p the value (midpoint - tau + 3 - p) / 2, whose floor is q + 1
    when the pulse of the train's bit at transmit position 2q + p covers
    the midpoint. No entry takes more than two terms of the draw, and
    every coefficient is a multiple of 1/4, so every product is exact and
    each entry is rounded the same way for any batch size."""
    start, edge, start_tau, m, tau, phi_c, one = np.eye(7)
    pieces = ((start, edge, start_tau, m),
              (edge, edge + one, m, m + one),
              (edge + one, start + 2 * one, m + one, start_tau + 2 * one))
    columns = []
    for lo, hi, lo_tau, hi_tau in pieces:
        columns += [0.5 * (lo + hi), 0.5 * (hi - lo), tau, phi_c]
        columns += [0.25 * (lo_tau + hi_tau) + 0.5 * (3 - p) * one for p in trains]
    table_map = np.array(columns).T
    return table_map[:-1], table_map[-1]


#: The table maps of the train sets the oracles integrate, and their parities.
_TABLE_MAPS = {trains: (*_table_map(trains), np.array(trains))
               for trains in ((0,), (1,), (0, 1))}


def _integrate_pieces(coeff, bits: np.ndarray, n: np.ndarray, tau: np.ndarray,
                      phi_c: np.ndarray, trains=(0, 1), panels_per_bit: int = 1) -> np.ndarray:
    """For each draw d, integrate sum_j train_j(t) * coeff(t)[j] over the
    decision interval [n[d] - 1, n[d] + 1], for the pulse trains of the
    given parities (0 in-phase, 1 quadrature) of bits[d] delayed by tau[d].
    bits is laid out as in Draws; n, tau and phi_c hold one value a draw.

    The edges tau + m and tau + m + 1 split each interval into three
    pieces; each gets max(1, ceil(panels_per_bit * its share of the
    interval)) equal Gauss-Legendre panels, so a zero-width piece adds
    exactly 0. A table row per (draw, piece) holds its midpoint, the
    half-width and the draw's tau and phi_c (see _table_map), and the
    trains' values at the midpoint are read from bits beside it (silence
    outside the payload). Rows are repeated per panel where a piece has
    more than one. coeff(t, tau, phi_c) is evaluated once a chunk on the
    nodes of every panel, t of shape (panels, nodes) and tau and phi_c of
    shape (panels, 1), and returns one array of that shape per train. Each
    piece's panels are summed, then weighted by the trains' values and the
    half-width. A chunk holds as many draws as fit in _CHUNK_PANELS panels,
    at least one.
    """
    per = max(1, _CHUNK_PANELS // (panels_per_bit + 3))
    if len(n) <= per:
        return _integrate_chunk(coeff, bits, n, tau, phi_c, trains, panels_per_bit)
    return np.concatenate([
        _integrate_chunk(coeff, bits[s:s + per], n[s:s + per], tau[s:s + per],
                         phi_c[s:s + per], trains, panels_per_bit)
        for s in range(0, len(n), per)])


def _integrate_chunk(coeff, bits, n, tau, phi_c, trains, panels_per_bit):
    """_integrate_pieces on draws that fit in one chunk."""
    draws = len(n)
    table_map, offset, parity = _TABLE_MAPS[trains]
    start = n - 1.0
    start_tau = start - tau
    m = np.ceil(start_tau)
    table = (np.array([start, tau + m, start_tau, m, tau, phi_c]).T @ table_map
             + offset).reshape(draws, 3, -1)
    # clipped to the bits, where the cast floors; a position outside the
    # payload reads the silence of the first or last q
    q = np.minimum(np.maximum(table[..., 4:], 0.0), bits.shape[1] - 1.0).astype(np.intp)
    values = bits[np.arange(draws)[:, None, None], q, parity]
    panels = table.reshape(3 * draws, -1)
    if panels_per_bit > 1:  # with one, no piece is wider than a panel
        counts = np.maximum(1, np.ceil(panels_per_bit * panels[:, 1])).astype(np.intp)
        panels[:, 1] /= counts  # in table too, which then holds panel half-widths
        firsts = np.cumsum(counts) - counts
        panels = np.repeat(panels[:, :4], counts, axis=0)
        panels[:, 0] += panels[:, 1] * (2 * (np.arange(len(panels)) - np.repeat(firsts, counts))
                                        + 1 - np.repeat(counts, counts))
    # vecdot sums each row on its own, so a draw's value does not depend on
    # the rest of its batch
    parts = np.vecdot(coeff(panels[:, :1] + panels[:, 1:2] * _NODES, panels[:, 2:3],
                            panels[:, 3:4]), _WEIGHTS)
    if panels_per_bit > 1:
        parts = np.add.reduceat(parts, firsts, axis=1)
    return np.vecdot(np.vecdot(parts.T.reshape(draws, 3, -1), values), table[..., 1])


def oracle_lambda_baseband(draws: Draws) -> np.ndarray:
    """Numerically integrate the post-lowpass matched-filter product of each
    draw of a batch at its bit k, as (draws, 2) columns for the in-phase and
    quadrature branches, one integration each.

    Independent of the closed form's bit-index bookkeeping because the
    pulse trains are evaluated pointwise. Within a piece the integrand has
    frequency at most pi/T, so one Gauss-Legendre panel per piece reaches
    round-off. The integrand is taken at unit amplitude and the result
    scaled, so no finite amplitude overflows inside the sum.
    """
    w_p = math.pi / 2.0

    def in_phase(t, tau, phi_c):
        phi_p = w_p * tau
        wave = 2 * w_p * t - phi_p
        return (np.cos(phi_c) * (np.cos(phi_p) + np.cos(wave)),
                np.sin(phi_c) * (np.sin(wave) - np.sin(phi_p)))

    def quadrature(t, tau, phi_c):
        phi_p = w_p * tau
        wave = 2 * w_p * t - phi_p
        return (-np.sin(phi_c) * (np.sin(wave) + np.sin(phi_p)),
                np.cos(phi_c) * (np.cos(phi_p) - np.cos(wave)))

    # the matched-filter gain 1/2 goes with the amplitude: a power of two
    # changes no rounding
    return np.stack([0.5 * draws.amplitude * _integrate_pieces(
        coeff, draws.bits, draws.position + parity, draws.tau, draws.phi_c)
        for parity, coeff in enumerate((in_phase, quadrature))], axis=1)


def oracle_lambda_passband(draws: Draws, carrier_multiple: int = 256) -> np.ndarray:
    """Integrate the full passband product with an explicit carrier, as
    oracle_lambda_baseband's (draws, 2) columns.

    The carrier is carrier_multiple times the pulse frequency; agreement
    with the baseband oracle is up to an O(1/carrier_multiple) residue from
    the unfiltered double-carrier terms. A bit holds carrier_multiple
    double-carrier periods, and each gets one Gauss-Legendre panel. As in
    baseband, the integral is taken at unit amplitude and then scaled.
    """
    if not _is_integer(carrier_multiple) or not 8 <= carrier_multiple <= MAX_CARRIER_MULTIPLE:
        raise ValueError(f"carrier_multiple must be an integer in "
                         f"8..{MAX_CARRIER_MULTIPLE}, not {carrier_multiple!r}")
    w_p = math.pi / 2.0
    w_c = carrier_multiple * w_p

    def in_phase(t):
        return np.cos(w_p * t) * np.cos(w_c * t)

    def quadrature(t):
        return np.sin(w_p * t) * np.sin(w_c * t)

    def integrate(parity, basis):
        def coeff(t, tau, phi_c):
            ph = basis(t) * 2.0
            return (ph * np.cos(w_p * (t - tau)) * np.cos(w_c * t + phi_c),
                    ph * np.sin(w_p * (t - tau)) * np.sin(w_c * t + phi_c))

        return draws.amplitude * _integrate_pieces(coeff, draws.bits, draws.position + parity,
                                                   draws.tau, draws.phi_c,
                                                   panels_per_bit=carrier_multiple)

    return np.stack([integrate(parity, basis)
                     for parity, basis in enumerate((in_phase, quadrature))], axis=1)


def rect_integral(draws: Draws) -> np.ndarray:
    """Closed form of the pulse-train primitive integrals over the in-phase
    decision interval of each draw's bit k, for its offset and payload (its
    amplitude and phase do not enter), as (draws, 6) columns: each kind of
    RECT_KINDS on the in-phase, then the quadrature train. The kinds are the
    smooth factors 1, cos 2*w_p*t and sin 2*w_p*t; the quadrature train is
    the one leaking into the same interval."""
    two_t = 2.0
    w_p = math.pi / two_t
    phi_p = math.pi * draws.tau[:, None] / two_t
    scale = -1.0 / (2.0 * w_p)
    # the quadrature train leaks in with the offset decomposed as tau + T,
    # and its cos2wp and sin2wp terms change sign; columns I, Q throughout
    sign = np.array([1.0, -1.0])
    k_shift, tau_rel = decompose_offset(draws.tau[:, None] + (0.0, 1.0))
    n = draws.position[:, None] + (0.0, 1.0) - 2.0 * k_shift
    prev, cur = np.hsplit(draws.bits_at(np.hstack([n - 2.0, n])), 2)
    diff = prev - cur
    return np.hstack([tau_rel * prev + (two_t - tau_rel) * cur,
                      sign * (scale * np.sin(2.0 * phi_p) * diff),
                      scale * (1.0 - sign * np.cos(2.0 * phi_p)) * diff])


def rect_integral_quadrature(draws: Draws) -> np.ndarray:
    """Direct quadrature of the primitive integrals; numeric twin of
    rect_integral, with its (draws, 6) columns, one integration each."""
    def integrate(smooth, parity):
        def coeff(t, tau, phi_c):
            return smooth(math.pi * t)[None]

        # the in-phase decision interval of bit k, centred on 2k, either train
        return _integrate_pieces(coeff, draws.bits, draws.position, draws.tau, draws.phi_c,
                                 trains=(parity,))

    return np.stack([integrate(_SMOOTH[kind], parity)
                     for kind in RECT_KINDS for parity in (0, 1)], axis=1)
