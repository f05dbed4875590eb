"""Numerical oracle: primitive integrals, convergence, and agreement with
the closed forms."""

import math
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from mskcollide import (Draws, interference_contribution, oracle, oracle_lambda_baseband,
                        oracle_lambda_passband, rect_integral, rect_integral_quadrature)

RECT_KINDS = ("one", "cos2wp", "sin2wp")


class Interferer(NamedTuple):
    """One interferer, in the order of a Draws.of row before its bit index."""

    bits: object
    amplitude: float
    tau: float
    phi_c: float


def _random_interferer(rng, n_bits=16):
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    return Interferer(
        amplitude=float(10.0 ** rng.uniform(-1, 1)),
        tau=float(rng.uniform(-4.0, 4.0)),
        phi_c=float(rng.uniform(0.0, 2 * math.pi)),
        bits=bits,
    )


def _draws(pairs):
    """The batch of (Interferer, k) pairs."""
    return Draws.of([(*u, k) for u, k in pairs])


def _one(u, k):
    """u drawn at bit k: a batch of one."""
    return _draws([(u, k)])


def _random_pairs(rng, count, n_bits=16, k_end=8):
    """count (Interferer, k) pairs, each k in [0, k_end)."""
    return [(_random_interferer(rng, n_bits), int(rng.integers(0, k_end)))
            for _ in range(count)]


def _rect_params(tau, bits, k=0):
    """A draw with the given offset and payload; the rect integrals read
    only these two."""
    return _one(Interferer(np.array(bits), 1.0, tau, 0.0), k)


#: rect_integral's columns, by kind and branch
def _col(kind, branch):
    return 2 * RECT_KINDS.index(kind) + "IQ".index(branch)


class TestRectClosedForms:
    def test_one_synchronized(self):
        u = _rect_params(0.0, [+1, +1, +1, +1])
        assert rect_integral(u)[0, _col("one", "I")] == pytest.approx(2.0)

    def test_cos_term_vanishes_at_zero_offset(self):
        u = _rect_params(0.0, [+1, -1, -1, +1])
        assert rect_integral(u)[0, _col("cos2wp", "I")] == pytest.approx(0.0, abs=1e-15)

    def test_sin_term_half_bit(self):
        # i bits (k-1, k) = (+1, -1); tau = T/2 makes 2*phi_p = pi/2
        u = _rect_params(0.5, [+1, +1, -1, -1], k=1)
        got = rect_integral(u)[0, _col("sin2wp", "I")]
        assert got == pytest.approx(-2.0 / math.pi, abs=1e-12)

    @pytest.mark.parametrize("kind", RECT_KINDS)
    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_agrees_with_simpson_quadrature(self, kind, branch):
        rng = np.random.default_rng([ord(c) for c in kind + branch])
        batch = _draws(_random_pairs(rng, 150))
        closed = rect_integral(batch)[:, _col(kind, branch)]
        quad = rect_integral_quadrature(batch)[:, _col(kind, branch)]
        assert np.all(np.abs(closed - quad) <= 1e-9 * (1 + np.abs(quad)))

    @pytest.mark.parametrize("tau, bits", [(math.inf, [1, -1]), (-math.inf, [1, -1]),
                                           (math.nan, [1, -1]), (0.3, [2, 5]),
                                           (0.3, [1, 0, -1])],
                             ids=["inf", "-inf", "nan", "bits-2-5", "bits-0"])
    def test_bad_offset_or_bits_is_a_value_error(self, tau, bits):
        # the offset and payload reach both forms only through Draws.of,
        # which rejects them before any integral
        with pytest.raises(ValueError):
            _rect_params(tau, bits)


class TestReassembly:
    """Recombining the primitive integrals reproduces the full closed form."""

    def test_identity(self):
        rng = np.random.default_rng(21)
        pairs = _random_pairs(rng, 300)
        batch = _draws(pairs)
        rects, lambdas = rect_integral(batch), interference_contribution(batch)
        for (u, _), rect, direct in zip(pairs, rects, lambdas[:, 0]):
            one_i, one_q, cos_i, cos_q, sin_i, sin_q = rect
            phi_p = math.pi * u.tau / 2.0
            x1 = (math.cos(phi_p) * one_i + math.cos(phi_p) * cos_i
                  + math.sin(phi_p) * sin_i)
            x2 = -(math.sin(phi_p) * one_q + math.sin(phi_p) * cos_q
                   - math.cos(phi_p) * sin_q)
            rebuilt = u.amplitude / 2.0 * (math.cos(u.phi_c) * x1 + math.sin(u.phi_c) * x2)
            assert rebuilt == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))


class TestBasebandOracle:
    def test_synchronized_unit(self):
        u = _one(Interferer([+1, +1, +1, +1], 1.0, 0.0, 0.0), 0)
        got = oracle_lambda_baseband(u)[0, 0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_half_bit_transition_value(self):
        u = _one(Interferer([+1, +1, -1, -1], 1.0, 1.0, 0.0), 1)
        got = oracle_lambda_baseband(u)[0, 0]
        assert got == pytest.approx(-2.0 / math.pi, abs=1e-9)

    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_matches_closed_form(self, branch):
        rng = np.random.default_rng(30 if branch == "I" else 31)
        batch = _draws(_random_pairs(rng, 200))
        col = "IQ".index(branch)
        closed = interference_contribution(batch)[:, col]
        ref = oracle_lambda_baseband(batch)[:, col]
        assert np.all(np.abs(closed - ref) <= 1e-9 * (1 + np.abs(ref)))

    def test_specific_mixed_offsets_case(self):
        u = _one(Interferer([1, -1, -1, 1, 1, 1, -1, 1], 1.0, 0.37, 1.1), 2)
        closed, ref = interference_contribution(u), oracle_lambda_baseband(u)
        assert np.all(np.abs(closed - ref) <= 1e-9 * (1 + np.abs(ref)))

    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_largest_amplitude_stays_finite(self, branch):
        # the integrand is taken at unit amplitude and the result scaled, so
        # an amplitude near the largest float does not overflow in the sum
        u = _one(Interferer([1, -1, 1, 1, -1, 1], 1e308, 0.3, 1.0), 1)
        col = "IQ".index(branch)
        ref = oracle_lambda_baseband(u)[0, col]
        assert math.isfinite(ref) and math.isfinite(oracle_lambda_passband(u)[0, col])
        assert abs(interference_contribution(u)[0, col] - ref) <= 1e-9 * (1 + abs(ref))


class TestPassbandOracle:
    def test_synchronized_unit_within_residue(self):
        u = _one(Interferer([+1, +1, +1, +1], 1.0, 0.0, 0.0), 0)
        got = oracle_lambda_passband(u)[0, 0]
        assert got == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_agrees_with_baseband_within_residue(self, branch):
        rng = np.random.default_rng(40)
        batch = _draws(_random_pairs(rng, 25, n_bits=12, k_end=6))
        col = "IQ".index(branch)
        base = oracle_lambda_baseband(batch)[:, col]
        pas = oracle_lambda_passband(batch)[:, col]
        assert np.all(np.abs(pas - base) <= 1e-2 * (1 + np.abs(base)))

    def test_residue_shrinks_with_carrier_multiple(self):
        rng = np.random.default_rng(41)
        batch = _draws(_random_pairs(rng, 20, n_bits=12, k_end=6))
        base = oracle_lambda_baseband(batch)[:, 0]
        devs = {mult: np.abs(oracle_lambda_passband(batch, mult)[:, 0] - base)
                for mult in (64, 128)}
        ratio = np.mean(devs[128]) / np.mean(devs[64])
        assert ratio < 0.8
        assert np.mean(devs[128]) < np.mean(devs[64])

    def test_carrier_multiple_bounds(self):
        u = _one(Interferer([+1, -1, +1, +1], 1.0, 0.3, 0.2), 0)
        for mult in (7, oracle.MAX_CARRIER_MULTIPLE + 1, 8.5, True):
            with pytest.raises(ValueError):
                oracle_lambda_passband(u, mult)
        assert oracle_lambda_passband(u, 8)[0, 0] == pytest.approx(
            oracle_lambda_baseband(u)[0, 0], abs=0.1)
        assert np.array_equal(oracle_lambda_passband(u, np.int64(8)),
                              oracle_lambda_passband(u, 8))


def test_shipped_panels_have_converged(monkeypatch):
    """Four times the shipped panels move no value beyond round-off."""
    rng = np.random.default_rng(50)
    batch = _draws(_random_pairs(rng, 20, n_bits=12, k_end=6))

    def values():
        return {"baseband": oracle_lambda_baseband(batch),
                "rect": rect_integral_quadrature(batch),
                "passband": np.concatenate([oracle_lambda_passband(batch, mult)
                                            for mult in (8, 256, 1024)])}

    shipped = values()
    integrate = oracle._integrate_pieces
    monkeypatch.setattr(oracle, "_integrate_pieces",
                        lambda *args, panels_per_bit=1, **kwargs:
                        integrate(*args, panels_per_bit=4 * panels_per_bit, **kwargs))
    finer = values()
    assert all(np.any(shipped[name] != finer[name]) for name in shipped)
    for name, bound in (("baseband", 1e-13), ("rect", 1e-13), ("passband", 1e-11)):
        got, ref = shipped[name], finer[name]
        assert np.all(np.abs(got - ref) <= bound * (1 + np.abs(ref))), name


@pytest.mark.parametrize("tau", [m + d for m in range(-2, 4)
                                 for d in (0.0, 1e-13, -1e-13, 1e-12, -1e-12)])
def test_near_aligned_offsets_match_closed_forms(tau):
    """At and within 1e-12 of a whole-T offset, where one piece of the
    decision interval is empty or thin, the oracle and the closed forms
    still agree to round-off on both branches."""
    bits = np.random.default_rng(70).integers(0, 2, size=12) * 2 - 1
    batch = _draws((Interferer(bits, 1.7, tau, 0.9), k) for k in range(6))
    closed = np.hstack([interference_contribution(batch), rect_integral(batch)])
    ref = np.hstack([oracle_lambda_baseband(batch), rect_integral_quadrature(batch)])
    assert np.all(np.abs(closed - ref) <= 1e-13 * (1 + np.abs(ref)))


def _brute_force_integrate(coeff, bits, n, tau, phi_c, trains=(0, 1), panels_per_bit=1):
    """_integrate_pieces for one draw, one node at a time: piece, then
    panel, then node, every product summed exactly by math.fsum. bits are
    the draw's transmit-order bits. Returns the value and the number of
    pieces: the interval [n - 1, n + 1] is split at every edge tau + m
    strictly inside it, and a train of parity p reads the bit at the
    transmit position j = p (mod 2) whose pulse, centred on tau + j, covers
    the piece midpoint."""
    a, b = n - 1.0, n + 1.0
    edges = [tau + m for m in range(math.floor(a - tau), math.ceil(b - tau) + 1)
             if a < tau + m < b]
    points = [a, *edges, b]
    terms = []
    for lo, hi in zip(points[:-1], points[1:]):
        panels = math.ceil(panels_per_bit * (hi - lo) / (b - a))
        half = 0.5 * (hi - lo) / panels
        positions = [p + 2 * round((0.5 * (lo + hi) - tau - p) / 2) for p in trains]
        values = [int(bits[j]) if 0 <= j < len(bits) else 0 for j in positions]
        for panel in range(panels):
            mid = lo + half + 2.0 * half * panel
            for node, weight in zip(oracle._NODES, oracle._WEIGHTS):
                coeffs = np.ravel(coeff(np.array([[mid + half * node]]), np.array([[tau]]),
                                        np.array([[phi_c]])))
                terms += [bit * float(c) * half * weight for bit, c in zip(values, coeffs)]
    return math.fsum(terms), len(points) - 1


def _oracle_calls(batch):
    """Every integration of the baseband, rect and passband (multiples 8 and
    64) oracles on a batch of draws."""
    yield partial(oracle_lambda_baseband, batch)
    yield partial(rect_integral_quadrature, batch)
    for mult in (8, 64):
        yield partial(oracle_lambda_passband, batch, mult)


#: The offset of the last of _draws_with_an_aligned_offset, a whole T.
_ALIGNED_TAU = 1.0


def _draws_with_an_aligned_offset():
    rng = np.random.default_rng(60)
    pairs = _random_pairs(rng, 12, n_bits=12, k_end=6)
    u = _random_interferer(rng, n_bits=12)
    return pairs + [(u._replace(tau=_ALIGNED_TAU), 2)]


def test_panel_table_matches_brute_force(monkeypatch):
    integrate = oracle._integrate_pieces
    seen = []

    def both(coeff, bits, n, tau, phi_c, trains=(0, 1), panels_per_bit=1):
        got = integrate(coeff, bits, n, tau, phi_c, trains, panels_per_bit=panels_per_bit)
        assert got.shape == n.shape
        for d in range(len(n)):
            ref, pieces = _brute_force_integrate(coeff, bits[d].ravel()[2:], n[d], tau[d],
                                                 phi_c[d], trains, panels_per_bit)
            seen.append((pieces, panels_per_bit))
            assert abs(got[d] - ref) <= 1e-14 * (1 + abs(ref)), (n[d], tau[d], trains,
                                                                 panels_per_bit)
        return got

    monkeypatch.setattr(oracle, "_integrate_pieces", both)
    for call in _oracle_calls(_draws(_draws_with_an_aligned_offset())):
        call()
    # the aligned draw has only two pieces with positive width
    for panels_per_bit in (1, 8, 64):
        assert {p for p, ppb in seen if ppb == panels_per_bit} == {2, 3}


def test_one_coeff_call_per_integration(monkeypatch):
    """Every integration evaluates coeff once a chunk on all its panels'
    nodes: three panels a draw in baseband, one per piece, and at a
    whole-T offset a first piece of zero width."""
    integrate = oracle._integrate_pieces
    shapes = []

    def recording(coeff, bits, n, tau, phi_c, trains=(0, 1), panels_per_bit=1):
        calls = []

        def counted(t, *rows):
            calls.append(t)
            return coeff(t, *rows)

        value = integrate(counted, bits, n, tau, phi_c, trains, panels_per_bit=panels_per_bit)
        per = max(1, oracle._CHUNK_PANELS // (panels_per_bit + 3))
        assert len(calls) == -(-len(n) // per)
        assert all(t.shape[1] == 16 and t.shape[0] >= 3 for t in calls)
        if panels_per_bit == 1:
            assert [t.shape[0] for t in calls] == [3 * len(chunk)
                                                  for chunk in np.array_split(n, len(calls))]
        if len(n) == 1 and tau[0] == _ALIGNED_TAU:
            assert np.all(calls[0][0] == n[0] - 1.0)
        shapes.append((panels_per_bit, len(n), tau[0], len(calls),
                       sum(t.shape[0] for t in calls)))
        return value

    monkeypatch.setattr(oracle, "_integrate_pieces", recording)
    draws = _draws_with_an_aligned_offset()
    for call in _oracle_calls(_draws(draws)):
        call()
    for call in _oracle_calls(_draws(draws[-1:])):
        call()
    assert {ppb for ppb, size, tau, *_ in shapes if size == 1 and tau == _ALIGNED_TAU} == {
        1, 8, 64}
    # a chunk of 8 panels holds two baseband draws, so 13 draws take 7 calls
    # and 3 x 13 panels, on each branch
    monkeypatch.setattr(oracle, "_CHUNK_PANELS", 8)
    shapes.clear()
    oracle_lambda_baseband(_draws(draws))
    assert shapes == [(1, 13, draws[0][0].tau, 7, 39)] * 2
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_integrate_pieces", recording)
    # (1, 3) at tau = 0.3 has pieces of 0.15, 0.5 and 0.35 of the bit, and
    # so has (2, 4), the quadrature branch's interval
    u = _one(Interferer([1, -1, 1, 1, -1, 1], 1.0, 0.3, 0.2), 1)
    shapes.clear()
    oracle_lambda_baseband(u)
    oracle_lambda_passband(u, 8)
    oracle_lambda_passband(u, 64)
    assert [panels for *_, panels in shapes] == [3] * 2 + [2 + 4 + 3] * 2 + [10 + 32 + 23] * 2


#: Payloads of 8 to 24 bits, whole-T offsets and offsets within 1e-12 of
#: one (as in test_near_aligned_offsets_match_closed_forms), and random
#: ones, with decisions inside and outside the payload.
def _mixed_draws():
    rng = np.random.default_rng(80)
    taus = [m + d for m in range(-2, 4) for d in (0.0, 1e-13, -1e-13, 1e-12, -1e-12)]
    taus += list(rng.uniform(-4.0, 4.0, size=30))
    draws = []
    for tau in taus:
        u = _random_interferer(rng, n_bits=int(rng.integers(8, 25)))
        draws.append((u._replace(tau=tau), int(rng.integers(-1, len(u.bits) // 2 + 2))))
    return draws


def _assert_batch_matches_batch_of_one(integrate, draws, col):
    batch = integrate(_draws(draws))[:, col]
    assert batch.shape == (len(draws),)
    for value, draw in zip(batch, draws):
        alone = integrate(_draws([draw]))[0, col]
        assert abs(value - alone) <= 1e-15 * (1 + abs(alone)), draw


@pytest.mark.parametrize("branch", ("I", "Q"))
def test_batch_matches_batch_of_one(branch):
    draws = _mixed_draws()
    col = "IQ".index(branch)
    _assert_batch_matches_batch_of_one(oracle_lambda_baseband, draws, col)
    for kind in RECT_KINDS:
        _assert_batch_matches_batch_of_one(rect_integral_quadrature, draws, _col(kind, branch))


@pytest.mark.parametrize("branch", ("I", "Q"))
def test_passband_batch_spans_panel_chunks(branch):
    """At 2^10 carrier periods a bit, a chunk holds three draws, so seven
    draws take three chunks; each draw still gets its value alone."""
    mult = 2**10
    assert oracle._CHUNK_PANELS // (mult + 3) == 3
    draws = _mixed_draws()[::9]
    assert len(draws) == 7
    _assert_batch_matches_batch_of_one(
        partial(oracle_lambda_passband, carrier_multiple=mult), draws, "IQ".index(branch))
