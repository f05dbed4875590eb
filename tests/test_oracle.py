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

    def values():
        out = {"baseband": [], "rect": [], "passband": []}
        for u, k in draws:
            for branch in ("I", "Q"):
                out["baseband"].append(oracle_lambda_baseband(u, k, branch))
                out["rect"] += [rect_integral_quadrature(kind, u, k, branch)
                                for kind in RECT_KINDS]
            for mult in (8, 256, 1024):
                out["passband"].append(oracle_lambda_passband(u, k, "I", mult))
        return out

    shipped = values()
    integrate = oracle._integrate_pieces
    monkeypatch.setattr(oracle, "_integrate_pieces",
                        lambda *args, panels_per_bit=1, **kwargs:
                        integrate(*args, panels_per_bit=4 * panels_per_bit, **kwargs))
    finer = values()
    assert shipped != finer
    for name, bound in (("baseband", 1e-13), ("rect", 1e-13), ("passband", 1e-11)):
        got, ref = np.array(shipped[name]), np.array(finer[name])
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


def _brute_force_integrate(coeff, bits, n, tau, trains=(0, 1), panels_per_bit=1):
    """_integrate_pieces one node at a time: piece, then panel, then node,
    every product summed exactly by math.fsum. Returns the value and the
    number of pieces: the interval [n - 1, n + 1] is split at every edge
    tau + m strictly inside it, and a train of parity p reads the bit at
    the transmit position j = p (mod 2) whose pulse, centred on tau + j,
    covers the piece midpoint."""
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
                coeffs = coeff(np.array([mid + half * node]))
                terms += [bit * float(c[0]) * half * weight
                          for bit, c in zip(values, coeffs)]
    return math.fsum(terms), len(points) - 1


def _oracle_calls(draws):
    """Every integration of the baseband, rect and passband (multiples 8 and
    64) oracles on the given draws."""
    for u, k in draws:
        for branch in ("I", "Q"):
            yield partial(oracle_lambda_baseband, u, k, branch)
            for kind in RECT_KINDS:
                yield partial(rect_integral_quadrature, kind, u, k, branch)
            for mult in (8, 64):
                yield partial(oracle_lambda_passband, u, k, branch, mult)


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

    def both(coeff, bits, n, tau, trains=(0, 1), panels_per_bit=1):
        got = integrate(coeff, bits, n, tau, trains, panels_per_bit=panels_per_bit)
        ref, pieces = _brute_force_integrate(coeff, bits, n, tau, trains, panels_per_bit)
        seen.append((pieces, panels_per_bit))
        assert abs(got - ref) <= 1e-14 * (1 + abs(ref)), (n, tau, trains, panels_per_bit)
        return got

    monkeypatch.setattr(oracle, "_integrate_pieces", both)
    for call in _oracle_calls(_draws_with_an_aligned_offset()):
        call()
    # the aligned draw has only two pieces with positive width
    for panels_per_bit in (1, 8, 64):
        assert {p for p, ppb in seen if ppb == panels_per_bit} == {2, 3}


def test_one_coeff_call_per_integration(monkeypatch):
    """Every integration evaluates coeff once on all its panels' nodes: three
    panels in baseband, one per piece, and at a whole-T offset a first
    piece of zero width."""
    integrate = oracle._integrate_pieces
    shapes = []

    def recording(coeff, bits, n, tau, trains=(0, 1), panels_per_bit=1):
        calls = []

        def counted(t):
            calls.append(t)
            return coeff(t)

        value = integrate(counted, bits, n, tau, trains, panels_per_bit=panels_per_bit)
        [t] = calls
        assert t.shape[1] == 16 and t.shape[0] >= 3
        if panels_per_bit == 1:
            assert t.shape == (3, 16)
        if tau == _ALIGNED_TAU:
            assert np.all(t[0] == n - 1.0)
        shapes.append((panels_per_bit, tau, t.shape[0]))
        return value

    monkeypatch.setattr(oracle, "_integrate_pieces", recording)
    for call in _oracle_calls(_draws_with_an_aligned_offset()):
        call()
    assert {ppb for ppb, tau, _ in shapes if tau == _ALIGNED_TAU} == {1, 8, 64}
    # (1, 3) at tau = 0.3 has pieces of 0.15, 0.5 and 0.35 of the bit.
    u = InterfererParams(1.0, 0.3, 0.2, [1, -1, 1, 1, -1, 1])
    shapes.clear()
    oracle_lambda_baseband(u, 1, "I")
    oracle_lambda_passband(u, 1, "I", 8)
    oracle_lambda_passband(u, 1, "I", 64)
    assert [panels for *_, panels in shapes] == [3, 2 + 4 + 3, 10 + 32 + 23]
