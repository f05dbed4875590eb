"""Closed-form demodulator contributions: special cases, reductions, and
agreement between one-row and whole-packet evaluations of the kernel."""

import math

import numpy as np
import pytest

from mskcollide import (InterfererParams, IqStream, Scenario,
                        batch_interference, decompose_offset,
                        interference_contribution, multiplex_bits,
                        packet_soft_bits)

TWO_OVER_PI = 2.0 / math.pi


def _interferer(bits, amplitude=1.0, tau=0.0, phi_c=0.0):
    return InterfererParams(amplitude=amplitude, tau=tau, phi_c=phi_c,
                            payload=multiplex_bits(bits))


def _random_interferer(rng, n_bits=16, tau_span=4.0):
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    return InterfererParams(
        amplitude=float(10.0 ** rng.uniform(-2, 2)),
        tau=float(rng.uniform(-tau_span, tau_span)),
        phi_c=float(rng.uniform(0.0, 2 * math.pi)),
        payload=multiplex_bits(bits),
    )


class TestDecomposeOffset:
    def test_zero_offset(self):
        d = decompose_offset(0.0, 1.0, "active")
        assert (d.k_shift, d.tau_rel, d.phi_p) == (0, 0.0, 0.0)

    def test_positive_offset(self):
        d = decompose_offset(2.5, 1.0, "active")
        assert d.k_shift == 1
        assert d.tau_rel == pytest.approx(0.5)

    def test_negative_offset_floors_down(self):
        d = decompose_offset(-0.5, 1.0, "active")
        assert d.k_shift == -1
        assert d.tau_rel == pytest.approx(1.5)

    def test_q_leak_shifts_by_plus_T(self):
        d = decompose_offset(0.0, 1.0, "q_leak")
        assert d.k_shift == 0
        assert d.tau_rel == pytest.approx(1.0)

    def test_i_leak_shifts_by_minus_T(self):
        d = decompose_offset(0.0, 1.0, "i_leak")
        assert d.k_shift == -1
        assert d.tau_rel == pytest.approx(1.0)

    def test_remainder_confined_and_consistent(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            tau = float(rng.uniform(-50, 50))
            T = float(10.0 ** rng.uniform(-3, 3))
            d = decompose_offset(tau, T, "active")
            assert 0.0 <= d.tau_rel < 2 * T
            assert tau == pytest.approx(d.tau_rel + 2 * d.k_shift * T, abs=1e-9 * T)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            decompose_offset(0.0, 0.0)
        with pytest.raises(ValueError):
            decompose_offset(0.0, 1.0, "sideways")


class TestSynchronizedContribution:
    """A fully synchronized signal contributes amplitude times its bit."""

    def test_unit(self):
        value = interference_contribution(_interferer([+1, -1]), 0, "I")
        assert type(value) is float and value == 1.0

    def test_scaled_negative(self):
        assert interference_contribution(_interferer([-1, +1], 0.5), 0, "I") == -0.5

    def test_silence(self):
        u = _interferer([+1, -1], amplitude=3.0)
        assert interference_contribution(u, 1, "I") == 0.0
        assert interference_contribution(u, -1, "Q") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _interferer([+1, -1], amplitude=-1.0)
        with pytest.raises(ValueError):
            _interferer([+1, 2])
        with pytest.raises(ValueError):
            interference_contribution(_interferer([+1, -1]), 0, "X")


class TestSpecialCases:
    def test_no_offsets_is_amplitude_times_bit(self):
        u = _interferer([+1, +1, +1, -1], amplitude=1.0)
        assert interference_contribution(u, 0, "I") == pytest.approx(1.0)
        u2 = _interferer([-1, +1], amplitude=0.7)
        assert interference_contribution(u2, 0, "I") == pytest.approx(-0.7)

    def test_quarter_turn_leaks_alternating_q_bits(self):
        # q bits (k-1, k) = (+1, -1) at k=1
        u = _interferer([+1, +1, +1, -1], phi_c=math.pi / 2)
        got = interference_contribution(u, 1, "I")
        assert got == pytest.approx(-TWO_OVER_PI, abs=1e-12)

    def test_quarter_turn_equal_q_bits_vanishes(self):
        u = _interferer([+1, +1, -1, +1], phi_c=math.pi / 2)  # q bits equal
        assert interference_contribution(u, 1, "I") == pytest.approx(0.0, abs=1e-12)

    def test_half_bit_delay_alternating_i_bits(self):
        # i bits (k-1, k) = (+1, -1) at k=1: only the transition term remains
        u = _interferer([+1, +1, -1, -1], tau=1.0)
        got = interference_contribution(u, 1, "I")
        assert got == pytest.approx(-TWO_OVER_PI, abs=1e-12)

    def test_q_branch_no_offsets(self):
        u = _interferer([+1, +1, +1, -1])
        assert interference_contribution(u, 0, "Q") == pytest.approx(1.0)

    def test_q_branch_opposed_carrier_flips_sign(self):
        u = _interferer([+1, +1, +1, -1], phi_c=math.pi)
        assert interference_contribution(u, 0, "Q") == pytest.approx(-1.0)

    def test_unit_magnitude_for_in_packet_bit(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=12) * 2 - 1
        u = _interferer(bits)
        for k in range(6):
            for branch in ("I", "Q"):
                assert abs(interference_contribution(u, k, branch)) == pytest.approx(1.0)


class TestReductions:
    """The combined-offsets expression collapses to the simpler forms."""

    @staticmethod
    def _phase_only(u, k):
        p = u.payload
        return u.amplitude * (math.cos(u.phi_c) * p.i_bit(k)
                              - math.sin(u.phi_c) / math.pi
                              * (p.q_bit(k - 1) - p.q_bit(k)))

    @staticmethod
    def _time_only(u, k, T=1.0):
        shift = math.floor(u.tau / (2 * T))
        tau_rel = u.tau - 2 * T * shift
        kp = k - shift
        p = u.payload
        phi_p = math.pi * u.tau / (2 * T)
        return u.amplitude / (2 * T) * (
            math.cos(phi_p) * (tau_rel * p.i_bit(kp - 1) + (2 * T - tau_rel) * p.i_bit(kp))
            - (2 * T / math.pi) * math.sin(phi_p) * (p.i_bit(kp - 1) - p.i_bit(kp)))

    def test_reduces_to_phase_only_form(self):
        rng = np.random.default_rng(10)
        for _ in range(400):
            u = _random_interferer(rng)
            u = InterfererParams(u.amplitude, 0.0, u.phi_c, u.payload)
            k = int(rng.integers(0, 8))
            got = interference_contribution(u, k, "I")
            want = self._phase_only(u, k)
            assert got == pytest.approx(want, abs=1e-13 * (1 + abs(want)))

    def test_reduces_to_time_only_form(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            u = _random_interferer(rng)
            u = InterfererParams(u.amplitude, u.tau, 0.0, u.payload)
            k = int(rng.integers(0, 8))
            got = interference_contribution(u, k, "I")
            want = self._time_only(u, k)
            assert got == pytest.approx(want, abs=1e-13 * (1 + abs(want)))

    def test_reduces_to_synchronized_form(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u = _random_interferer(rng)
            u = InterfererParams(u.amplitude, 0.0, 0.0, u.payload)
            k = int(rng.integers(0, 8))
            got = interference_contribution(u, k, "I")
            want = u.amplitude * u.payload.i_bit(k)
            assert got == pytest.approx(want, abs=1e-13 * (1 + abs(want)))


class TestProperties:
    def test_depends_only_on_tau_over_T(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            u = _random_interferer(rng)
            scale = float(10.0 ** rng.uniform(-2, 2))
            scaled = InterfererParams(u.amplitude, u.tau * scale, u.phi_c, u.payload)
            for branch in ("I", "Q"):
                a = interference_contribution(u, 2, branch)
                b = interference_contribution(scaled, 2, branch, T=scale)
                assert b == pytest.approx(a, abs=1e-11 * (1 + abs(a)))

    def test_four_T_periodicity_with_constant_bits(self):
        bits = np.ones(64, dtype=int)
        rng = np.random.default_rng(14)
        for _ in range(100):
            tau = float(rng.uniform(-8, 8))
            phi = float(rng.uniform(0, 2 * math.pi))
            a = InterfererParams(1.0, tau, phi, multiplex_bits(bits))
            b = InterfererParams(1.0, tau + 4.0, phi, multiplex_bits(bits))
            # k in the payload middle so both offsets stay inside the span
            va = interference_contribution(a, 16, "I")
            vb = interference_contribution(b, 18, "I")
            assert vb == pytest.approx(va, abs=1e-12)

    def test_magnitude_bound(self):
        bound = 1.0 + TWO_OVER_PI
        rng = np.random.default_rng(15)
        for _ in range(3000):
            u = _random_interferer(rng)
            k = int(rng.integers(-2, 10))
            for branch in ("I", "Q"):
                v = interference_contribution(u, k, branch)
                assert abs(v) <= u.amplitude * bound + 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            u = _random_interferer(rng, n_bits=20)
            n_i = len(u.payload.i_bits)
            n_q = len(u.payload.q_bits)
            for branch, n in (("I", n_i), ("Q", n_q)):
                vec = batch_interference(u.payload.i_bits, u.payload.q_bits,
                                         u.amplitude, u.tau, u.phi_c, branch, n)
                for k in range(n):
                    want = interference_contribution(u, k, branch)
                    assert vec[k] == pytest.approx(want, abs=1e-12 * (1 + abs(want)))

    def test_batch_honors_origin_offset(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=16) * 2 - 1
        stream = multiplex_bits(bits)
        shifted = IqStream(i_bits=stream.i_bits, q_bits=stream.q_bits, origin_index=3)
        u = InterfererParams(1.3, 0.7, 2.1, shifted)
        vec = batch_interference(stream.i_bits, stream.q_bits, u.amplitude,
                                 u.tau, u.phi_c, "I", 8, index_offset=3)
        for k in range(8):
            assert vec[k] == pytest.approx(interference_contribution(u, k, "I"),
                                           abs=1e-12)


def _soft(scenario, branch, k, rng=None):
    soft_i, soft_q = packet_soft_bits(scenario, rng)
    return (soft_i if branch == "I" else soft_q)[k]


class TestSoftBit:
    """Soft bits of whole packets (packet_soft_bits)."""

    def test_clean_channel(self):
        payload = multiplex_bits([+1, -1, +1, -1])
        sc = Scenario(soi_amplitude=1.0, soi_payload=payload)
        assert _soft(sc, "I", 0) == pytest.approx(1.0)

    def test_stronger_interferer_dominates_sign(self):
        payload = multiplex_bits([+1, +1])
        interferer = _interferer([-1, +1], amplitude=2.0)
        sc = Scenario(1.0, payload, (interferer,))
        assert _soft(sc, "I", 0) == pytest.approx(-1.0)

    def test_superposition_of_interferers(self):
        rng = np.random.default_rng(18)
        payload = multiplex_bits(rng.integers(0, 2, 8) * 2 - 1)
        u1 = _random_interferer(rng, n_bits=8)
        u2 = _random_interferer(rng, n_bits=8)
        alone = np.concatenate(packet_soft_bits(Scenario(1.0, payload)))
        both = np.concatenate(packet_soft_bits(Scenario(1.0, payload, (u1, u2))))
        only1 = np.concatenate(packet_soft_bits(Scenario(1.0, payload, (u1,))))
        only2 = np.concatenate(packet_soft_bits(Scenario(1.0, payload, (u2,))))
        assert np.allclose(both, only1 + only2 - alone, rtol=0, atol=1e-12)

    def test_noise_requires_rng(self):
        payload = multiplex_bits([+1, -1])
        sc = Scenario(1.0, payload, noise_std=0.1)
        with pytest.raises(ValueError):
            packet_soft_bits(sc)
        assert _soft(sc, "I", 0, rng=np.random.default_rng(0)) != 1.0

    def test_packet_soft_bits_match_scalar(self):
        # whole-packet soft bits equal the synchronized bit plus the one-row
        # contribution of every interferer, bit by bit
        rng = np.random.default_rng(19)
        payload = multiplex_bits(rng.integers(0, 2, 16) * 2 - 1)
        interferers = tuple(_random_interferer(rng, n_bits=16) for _ in range(2))
        soft_i, soft_q = packet_soft_bits(Scenario(1.0, payload, interferers))
        for branch, soft, bit in (("I", soft_i, payload.i_bit), ("Q", soft_q, payload.q_bit)):
            for k in range(len(soft)):
                want = bit(k) + sum(interference_contribution(u, k, branch)
                                    for u in interferers)
                assert soft[k] == pytest.approx(want, abs=1e-12)
