"""Numerical oracle: primitive integrals, convergence, and agreement with
the closed forms."""

import math

import numpy as np
import pytest

from mskcollide import (InterfererParams, QuadratureConfig,
                        interference_contribution, multiplex_bits,
                        oracle_lambda_baseband, oracle_lambda_passband,
                        rect_integral, rect_integral_quadrature)

RECT_KINDS = ("one", "cos2wp", "sin2wp")


def _random_interferer(rng, n_bits=16):
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    return InterfererParams(
        amplitude=float(10.0 ** rng.uniform(-1, 1)),
        tau=float(rng.uniform(-4.0, 4.0)),
        phi_c=float(rng.uniform(0.0, 2 * math.pi)),
        payload=multiplex_bits(bits),
    )


class TestQuadratureConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.steps_per_bit == 4096 and cfg.method == "simpson"

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            QuadratureConfig(steps_per_bit=32)
        with pytest.raises(ValueError):
            QuadratureConfig(steps_per_bit=4097, method="simpson")
        with pytest.raises(ValueError):
            QuadratureConfig(method="trapezoid")
        with pytest.raises(ValueError):
            QuadratureConfig(carrier_multiple=4)
        # a quarter of the steps per bit is the highest carrier multiple
        assert QuadratureConfig(carrier_multiple=1024).carrier_multiple == 1024
        with pytest.raises(ValueError):
            QuadratureConfig(carrier_multiple=1025)


class TestRectClosedForms:
    def test_one_synchronized(self):
        payload = multiplex_bits([+1, +1, +1, +1])
        assert rect_integral("one", "I", 0.0, payload, 0) == pytest.approx(2.0)

    def test_cos_term_vanishes_at_zero_offset(self):
        payload = multiplex_bits([+1, -1, -1, +1])
        assert rect_integral("cos2wp", "I", 0.0, payload, 0) == pytest.approx(0.0, abs=1e-15)

    def test_sin_term_half_bit(self):
        # i bits (k-1, k) = (+1, -1); tau = T/2 makes 2*phi_p = pi/2
        payload = multiplex_bits([+1, +1, -1, -1])
        got = rect_integral("sin2wp", "I", 0.5, payload, 1)
        assert got == pytest.approx(-2.0 / math.pi, abs=1e-12)

    @pytest.mark.parametrize("kind", RECT_KINDS)
    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_agrees_with_simpson_quadrature(self, kind, branch):
        rng = np.random.default_rng([ord(c) for c in kind + branch])
        cfg = QuadratureConfig(steps_per_bit=2048)
        for _ in range(150):
            u = _random_interferer(rng)
            k = int(rng.integers(0, 8))
            closed = rect_integral(kind, branch, u.tau, u.payload, k)
            quad = rect_integral_quadrature(kind, branch, u.tau, u.payload, k, cfg)
            assert closed == pytest.approx(quad, abs=1e-9 * (1 + abs(quad)))

    def test_agrees_with_midpoint_quadrature(self):
        # midpoint converges at second order, so it needs far more steps to
        # reach the same tolerance
        rng = np.random.default_rng(77)
        cfg = QuadratureConfig(steps_per_bit=65536, method="midpoint")
        for _ in range(1000):
            u = _random_interferer(rng, n_bits=12)
            k = int(rng.integers(0, 6))
            kind = RECT_KINDS[int(rng.integers(0, 3))]
            branch = "I" if rng.integers(0, 2) else "Q"
            closed = rect_integral(kind, branch, u.tau, u.payload, k)
            quad = rect_integral_quadrature(kind, branch, u.tau, u.payload, k, cfg)
            assert closed == pytest.approx(quad, abs=1e-9 * (1 + abs(quad)))

    def test_rejects_unknown_kind(self):
        payload = multiplex_bits([1, -1])
        with pytest.raises(ValueError):
            rect_integral("tan2wp", "I", 0.0, payload, 0)


class TestReassembly:
    """Recombining the primitive integrals reproduces the full closed form."""

    def test_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            u = _random_interferer(rng)
            k = int(rng.integers(0, 8))
            phi_p = math.pi * u.tau / 2.0
            x1 = (math.cos(phi_p) * rect_integral("one", "I", u.tau, u.payload, k)
                  + math.cos(phi_p) * rect_integral("cos2wp", "I", u.tau, u.payload, k)
                  + math.sin(phi_p) * rect_integral("sin2wp", "I", u.tau, u.payload, k))
            x2 = -(math.sin(phi_p) * rect_integral("one", "Q", u.tau, u.payload, k)
                   + math.sin(phi_p) * rect_integral("cos2wp", "Q", u.tau, u.payload, k)
                   - math.cos(phi_p) * rect_integral("sin2wp", "Q", u.tau, u.payload, k))
            rebuilt = u.amplitude / 2.0 * (math.cos(u.phi_c) * x1 + math.sin(u.phi_c) * x2)
            direct = interference_contribution(u, k, "I")
            assert rebuilt == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))


class TestBasebandOracle:
    def test_synchronized_unit(self):
        u = InterfererParams(1.0, 0.0, 0.0, multiplex_bits([+1, +1, +1, +1]))
        got = oracle_lambda_baseband(u, 0, "I")
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_half_bit_transition_value(self):
        u = InterfererParams(1.0, 1.0, 0.0, multiplex_bits([+1, +1, -1, -1]))
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
        u = InterfererParams(1.0, 0.37, 1.1, multiplex_bits([1, -1, -1, 1, 1, 1, -1, 1]))
        for branch in ("I", "Q"):
            closed = interference_contribution(u, 2, branch)
            ref = oracle_lambda_baseband(u, 2, branch)
            assert closed == pytest.approx(ref, abs=1e-9 * (1 + abs(ref)))

    def test_error_decays_at_method_order(self):
        u = InterfererParams(1.0, 0.37, 1.1, multiplex_bits([1, -1, -1, 1, 1, 1, -1, 1]))
        exact = interference_contribution(u, 2, "I")

        def err(steps, method):
            cfg = QuadratureConfig(steps_per_bit=steps, method=method)
            return abs(oracle_lambda_baseband(u, 2, "I", cfg) - exact)

        # fourth order: x64 fewer steps -> ~256^2 error growth; assert a
        # conservative factor in each quadrupling
        assert err(256, "simpson") < err(64, "simpson") / 60
        assert err(256, "midpoint") < err(64, "midpoint") / 8
        assert err(1024, "midpoint") < err(256, "midpoint") / 8


class TestPassbandOracle:
    def test_synchronized_unit_within_residue(self):
        u = InterfererParams(1.0, 0.0, 0.0, multiplex_bits([+1, +1, +1, +1]))
        got = oracle_lambda_passband(u, 0, "I")
        assert got == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("branch", ("I", "Q"))
    def test_agrees_with_baseband_within_residue(self, branch):
        rng = np.random.default_rng(40)
        cfg = QuadratureConfig(steps_per_bit=4096, carrier_multiple=256)
        for _ in range(25):
            u = _random_interferer(rng, n_bits=12)
            k = int(rng.integers(0, 6))
            base = oracle_lambda_baseband(u, k, branch)
            pas = oracle_lambda_passband(u, k, branch, cfg)
            assert pas == pytest.approx(base, abs=1e-2 * (1 + abs(base)))

    def test_residue_shrinks_with_carrier_multiple(self):
        rng = np.random.default_rng(41)
        devs = {m: [] for m in (64, 128)}
        draws = [(_random_interferer(rng, n_bits=12), int(rng.integers(0, 6)))
                 for _ in range(20)]
        for mult in devs:
            cfg = QuadratureConfig(steps_per_bit=16384, carrier_multiple=mult)
            for u, k in draws:
                base = oracle_lambda_baseband(u, k, "I")
                devs[mult].append(abs(oracle_lambda_passband(u, k, "I", cfg) - base))
        ratio = np.mean(devs[128]) / np.mean(devs[64])
        assert ratio < 0.8
        assert np.mean(devs[128]) < np.mean(devs[64])
