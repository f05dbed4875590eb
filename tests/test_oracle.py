"""Numerical oracle: primitive integrals, convergence, and agreement with
the closed forms."""

import math
from functools import partial

import numpy as np
import pytest

from mskcollide import (InterfererParams, interference_contribution, oracle,
                        oracle_lambda_baseband, oracle_lambda_passband,
                        rect_integral, rect_integral_quadrature)

RECT_KINDS = ("one", "cos2wp", "sin2wp")


def _random_interferer(rng, n_bits=16):
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    return InterfererParams(
        amplitude=float(10.0 ** rng.uniform(-1, 1)),
        tau=float(rng.uniform(-4.0, 4.0)),
        phi_c=float(rng.uniform(0.0, 2 * math.pi)),
        bits=bits,
    )


def _rect_params(tau, bits):
    """An interferer with the given offset and payload; the rect integrals
    read only these two."""
    return InterfererParams(1.0, tau, 0.0, np.array(bits))


class TestRectClosedForms:
    def test_one_synchronized(self):
        u = _rect_params(0.0, [+1, +1, +1, +1])
        assert rect_integral("one", u, 0) == pytest.approx(2.0)

    def test_cos_term_vanishes_at_zero_offset(self):
        u = _rect_params(0.0, [+1, -1, -1, +1])
        assert rect_integral("cos2wp", u, 0) == pytest.approx(0.0, abs=1e-15)

    def test_sin_term_half_bit(self):
        # i bits (k-1, k) = (+1, -1); tau = T/2 makes 2*phi_p = pi/2
        u = _rect_params(0.5, [+1, +1, -1, -1])
        got = rect_integral("sin2wp", u, 1, "I")
        assert got == pytest.approx(-2.0 / math.pi, abs=1e-12)

    @pytest.mark.parametrize("kind", RECT_KINDS)
    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_agrees_with_simpson_quadrature(self, kind, branch):
        rng = np.random.default_rng([ord(c) for c in kind + branch])
        for _ in range(150):
            u = _random_interferer(rng)
            k = int(rng.integers(0, 8))
            closed = rect_integral(kind, u, k, branch)
            quad = rect_integral_quadrature(kind, u, k, branch)
            assert closed == pytest.approx(quad, abs=1e-9 * (1 + abs(quad)))

    def test_rejects_unknown_kind(self):
        u = _rect_params(0.0, [1, -1])
        for fn in (rect_integral, rect_integral_quadrature):
            with pytest.raises(ValueError):
                fn("tan2wp", u, 0)

    @pytest.mark.parametrize("tau, bits", [(math.inf, [1, -1]), (-math.inf, [1, -1]),
                                           (math.nan, [1, -1]), (0.3, [2, 5]),
                                           (0.3, [1, 0, -1])],
                             ids=["inf", "-inf", "nan", "bits-2-5", "bits-0"])
    def test_bad_offset_or_bits_is_a_value_error(self, tau, bits):
        # the offset and payload reach both forms only through
        # InterfererParams, which rejects them before any integral
        for fn in (rect_integral, rect_integral_quadrature):
            with pytest.raises(ValueError):
                fn("one", _rect_params(tau, bits), 0)


class TestReassembly:
    """Recombining the primitive integrals reproduces the full closed form."""

    def test_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            u = _random_interferer(rng)
            k = int(rng.integers(0, 8))
            phi_p = math.pi * u.tau / 2.0
            x1 = (math.cos(phi_p) * rect_integral("one", u, k, "I")
                  + math.cos(phi_p) * rect_integral("cos2wp", u, k, "I")
                  + math.sin(phi_p) * rect_integral("sin2wp", u, k, "I"))
            x2 = -(math.sin(phi_p) * rect_integral("one", u, k, "Q")
                   + math.sin(phi_p) * rect_integral("cos2wp", u, k, "Q")
                   - math.cos(phi_p) * rect_integral("sin2wp", u, k, "Q"))
            rebuilt = u.amplitude / 2.0 * (math.cos(u.phi_c) * x1 + math.sin(u.phi_c) * x2)
            direct = interference_contribution(u, k, "I")
            assert rebuilt == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))


class TestBasebandOracle:
    def test_synchronized_unit(self):
        u = InterfererParams(1.0, 0.0, 0.0, [+1, +1, +1, +1])
        got = oracle_lambda_baseband(u, 0, "I")
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_half_bit_transition_value(self):
        u = InterfererParams(1.0, 1.0, 0.0, [+1, +1, -1, -1])
        got = oracle_lambda_baseband(u, 1, "I")
        assert got == pytest.approx(-2.0 / math.pi, abs=1e-9)

    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_matches_closed_form(self, branch):
        rng = np.random.default_rng(30 if branch == "I" else 31)
        for _ in range(200):
            u = _random_interferer(rng)
            k = int(rng.integers(0, 8))
            closed = interference_contribution(u, k, branch)
            ref = oracle_lambda_baseband(u, k, branch)
            assert closed == pytest.approx(ref, abs=1e-9 * (1 + abs(ref)))

    def test_specific_mixed_offsets_case(self):
        u = InterfererParams(1.0, 0.37, 1.1, [1, -1, -1, 1, 1, 1, -1, 1])
        for branch in ("I", "Q"):
            closed = interference_contribution(u, 2, branch)
            ref = oracle_lambda_baseband(u, 2, branch)
            assert closed == pytest.approx(ref, abs=1e-9 * (1 + abs(ref)))

    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_largest_amplitude_stays_finite(self, branch):
        # the integrand is taken at unit amplitude and the result scaled, so
        # an amplitude near the largest float does not overflow in the sum
        u = InterfererParams(1e308, 0.3, 1.0, [1, -1, 1, 1, -1, 1])
        ref = oracle_lambda_baseband(u, 1, branch)
        assert math.isfinite(ref) and math.isfinite(oracle_lambda_passband(u, 1, branch))
        assert abs(interference_contribution(u, 1, branch) - ref) <= 1e-9 * (1 + abs(ref))

class TestPassbandOracle:
    def test_synchronized_unit_within_residue(self):
        u = InterfererParams(1.0, 0.0, 0.0, [+1, +1, +1, +1])
        got = oracle_lambda_passband(u, 0, "I")
        assert got == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_agrees_with_baseband_within_residue(self, branch):
        rng = np.random.default_rng(40)
        for _ in range(25):
            u = _random_interferer(rng, n_bits=12)
            k = int(rng.integers(0, 6))
            base = oracle_lambda_baseband(u, k, branch)
            pas = oracle_lambda_passband(u, k, branch)
            assert pas == pytest.approx(base, abs=1e-2 * (1 + abs(base)))

    def test_residue_shrinks_with_carrier_multiple(self):
        rng = np.random.default_rng(41)
        devs = {m: [] for m in (64, 128)}
        draws = [(_random_interferer(rng, n_bits=12), int(rng.integers(0, 6)))
                 for _ in range(20)]
        for mult in devs:
            for u, k in draws:
                base = oracle_lambda_baseband(u, k, "I")
                devs[mult].append(abs(oracle_lambda_passband(u, k, "I", mult) - base))
        ratio = np.mean(devs[128]) / np.mean(devs[64])
        assert ratio < 0.8
        assert np.mean(devs[128]) < np.mean(devs[64])

    def test_carrier_multiple_bounds(self):
        u = InterfererParams(1.0, 0.3, 0.2, [+1, -1, +1, +1])
        for mult in (7, oracle.MAX_CARRIER_MULTIPLE + 1, 8.5, True):
            with pytest.raises(ValueError):
                oracle_lambda_passband(u, 0, "I", mult)
        assert oracle_lambda_passband(u, 0, "I", 8) == pytest.approx(
            oracle_lambda_baseband(u, 0, "I"), abs=0.1)
        assert oracle_lambda_passband(u, 0, "I", np.int64(8)) == oracle_lambda_passband(
            u, 0, "I", 8)


def test_shipped_panels_have_converged(monkeypatch):
    """Four times the shipped panels move no value beyond round-off."""
    rng = np.random.default_rng(50)
    draws = [(_random_interferer(rng, n_bits=12), int(rng.integers(0, 6)))
             for _ in range(20)]
    batch = oracle._stack(draws)

    def values():
        out = {"baseband": [], "rect": [], "passband": []}
        for branch in ("I", "Q"):
            out["baseband"].append(oracle._lambda_baseband(batch, branch))
            out["rect"] += [oracle._rect_quadrature(kind, batch, branch) for kind in RECT_KINDS]
        out["passband"] += [oracle._lambda_passband(batch, "I", mult) for mult in (8, 256, 1024)]
        return {name: np.concatenate(arrays) for name, arrays in out.items()}

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
    u = InterfererParams(1.7, tau, 0.9, bits)
    for branch in ("I", "Q"):
        for k in range(6):
            pairs = [(interference_contribution(u, k, branch),
                      oracle_lambda_baseband(u, k, branch))]
            pairs += [(rect_integral(kind, u, k, branch),
                       rect_integral_quadrature(kind, u, k, branch))
                      for kind in RECT_KINDS]
            for closed, ref in pairs:
                assert abs(closed - ref) <= 1e-13 * (1 + abs(ref)), (branch, k)


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
    for branch in ("I", "Q"):
        yield partial(oracle._lambda_baseband, batch, branch)
        for kind in RECT_KINDS:
            yield partial(oracle._rect_quadrature, kind, batch, branch)
        for mult in (8, 64):
            yield partial(oracle._lambda_passband, batch, branch, mult)


#: The offset of the last of _draws_with_an_aligned_offset, a whole T.
_ALIGNED_TAU = 1.0


def _draws_with_an_aligned_offset():
    rng = np.random.default_rng(60)
    draws = [(_random_interferer(rng, n_bits=12), int(rng.integers(0, 6)))
             for _ in range(12)]
    u = _random_interferer(rng, n_bits=12)
    aligned = InterfererParams(u.amplitude, _ALIGNED_TAU, u.phi_c, u.bits)
    return draws + [(aligned, 2)]


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
    for call in _oracle_calls(oracle._stack(_draws_with_an_aligned_offset())):
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
    for call in _oracle_calls(oracle._stack(draws)):
        call()
    for call in _oracle_calls(oracle._stack(draws[-1:])):
        call()
    assert {ppb for ppb, size, tau, *_ in shapes if size == 1 and tau == _ALIGNED_TAU} == {
        1, 8, 64}
    # a chunk of 8 panels holds two baseband draws, so 13 draws take 7 calls
    # and 3 x 13 panels
    monkeypatch.setattr(oracle, "_CHUNK_PANELS", 8)
    shapes.clear()
    oracle._lambda_baseband(oracle._stack(draws), "I")
    assert shapes == [(1, 13, draws[0][0].tau, 7, 39)]
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_integrate_pieces", recording)
    # (1, 3) at tau = 0.3 has pieces of 0.15, 0.5 and 0.35 of the bit.
    u = InterfererParams(1.0, 0.3, 0.2, [1, -1, 1, 1, -1, 1])
    shapes.clear()
    oracle_lambda_baseband(u, 1, "I")
    oracle_lambda_passband(u, 1, "I", 8)
    oracle_lambda_passband(u, 1, "I", 64)
    assert [panels for *_, panels in shapes] == [3, 2 + 4 + 3, 10 + 32 + 23]


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
        draws.append((InterfererParams(u.amplitude, tau, u.phi_c, u.bits),
                      int(rng.integers(-1, len(u.bits) // 2 + 2))))
    return draws


def _assert_batch_matches_batch_of_one(integrate, draws):
    batch = integrate(oracle._stack(draws))
    assert batch.shape == (len(draws),)
    for value, draw in zip(batch, draws):
        alone = integrate(oracle._stack([draw]))[0]
        assert abs(value - alone) <= 1e-15 * (1 + abs(alone)), draw


@pytest.mark.parametrize("branch", ("I", "Q"))
def test_batch_matches_batch_of_one(branch):
    draws = _mixed_draws()
    _assert_batch_matches_batch_of_one(partial(oracle._lambda_baseband, branch=branch), draws)
    for kind in RECT_KINDS:
        _assert_batch_matches_batch_of_one(partial(oracle._rect_quadrature, kind,
                                                   branch=branch), draws)
    # the public calls are batches of one
    u, k = draws[-1]
    assert oracle_lambda_baseband(u, k, branch) == oracle._lambda_baseband(
        oracle._stack([(u, k)]), branch)[0]


@pytest.mark.parametrize("branch", ("I", "Q"))
def test_passband_batch_spans_panel_chunks(branch):
    """At 2^10 carrier periods a bit, a chunk holds three draws, so seven
    draws take three chunks; each draw still gets its value alone."""
    mult = 2**10
    assert oracle._CHUNK_PANELS // (mult + 3) == 3
    draws = _mixed_draws()[::9]
    assert len(draws) == 7
    _assert_batch_matches_batch_of_one(
        partial(oracle._lambda_passband, branch=branch, carrier_multiple=mult), draws)
