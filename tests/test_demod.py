"""Closed-form demodulator contributions: special cases, reductions, and
agreement between one-row and whole-packet evaluations of the kernel."""

import math

import numpy as np
import pytest

from mskcollide import (InterfererParams, batch_interference,
                        interference_contribution, multiplex_bits)
from mskcollide.demod import _shifted_pair, decompose_offset
from mskcollide.montecarlo import _compute_soft

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
        d = decompose_offset(0.0, "active")
        assert (d.k_shift, d.tau_rel, d.phi_p) == (0, 0.0, 0.0)

    def test_positive_offset(self):
        d = decompose_offset(2.5, "active")
        assert d.k_shift == 1
        assert d.tau_rel == pytest.approx(0.5)

    def test_negative_offset_floors_down(self):
        d = decompose_offset(-0.5, "active")
        assert d.k_shift == -1
        assert d.tau_rel == pytest.approx(1.5)

    def test_q_leak_shifts_by_plus_T(self):
        d = decompose_offset(0.0, "q_leak")
        assert d.k_shift == 0
        assert d.tau_rel == pytest.approx(1.0)

    def test_i_leak_shifts_by_minus_T(self):
        d = decompose_offset(0.0, "i_leak")
        assert d.k_shift == -1
        assert d.tau_rel == pytest.approx(1.0)

    def test_remainder_confined_and_consistent(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            tau = float(rng.uniform(-50, 50))
            d = decompose_offset(tau, "active")
            assert 0.0 <= d.tau_rel < 2.0
            assert tau == pytest.approx(d.tau_rel + 2 * d.k_shift, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            decompose_offset(0.0, "sideways")


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
    def _time_only(u, k):
        shift = math.floor(u.tau / 2)
        tau_rel = u.tau - 2 * shift
        kp = k - shift
        p = u.payload
        phi_p = math.pi * u.tau / 2
        return u.amplitude / 2 * (
            math.cos(phi_p) * (tau_rel * p.i_bit(kp - 1) + (2 - tau_rel) * p.i_bit(kp))
            - (2 / math.pi) * math.sin(phi_p) * (p.i_bit(kp - 1) - p.i_bit(kp)))

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
        # a payload starting at branch index 3 gives decision k what the
        # same payload starting at 0 gives decision k - 3
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=16) * 2 - 1
        stream = multiplex_bits(bits)
        u = InterfererParams(1.3, 0.7, 2.1, stream)
        vec = batch_interference(stream.i_bits, stream.q_bits, u.amplitude,
                                 u.tau, u.phi_c, "I", 8, index_offset=3)
        for k in range(8):
            assert vec[k] == pytest.approx(interference_contribution(u, k - 3, "I"),
                                           abs=1e-12)


def _bits(rng, shape, dtype=np.int8):
    return (rng.integers(0, 2, size=shape) * 2 - 1).astype(dtype)


def _two_interferer_batch(rng, packets, n_chips):
    """Synchronized chips, two interferers' chips and amplitudes, a shared
    time offset and per-packet phases."""
    soi = _bits(rng, (packets, n_chips))
    chips = [_bits(rng, (packets, n_chips)) for _ in range(2)]
    amplitudes = tuple(float(10.0 ** a) for a in rng.uniform(-2, 2, size=2))
    tau = float(rng.uniform(-4.0, 4.0))
    return soi, chips, amplitudes, tau, rng.uniform(0.0, 2 * math.pi, size=(packets, 2))


class TestSoftBit:
    """Soft values of whole packets in transmit order (_compute_soft)."""

    def test_clean_channel(self):
        soi = np.array([[+1, -1, +1, -1]], dtype=np.int8)
        soft = _compute_soft(soi, [], (), 0.0, np.zeros((1, 0)))
        assert soft.tolist() == [[1.0, -1.0, 1.0, -1.0]]

    def test_stronger_interferer_dominates_sign(self):
        soi = np.array([[+1, +1]], dtype=np.int8)
        interferer = np.array([[-1, +1]], dtype=np.int8)
        soft = _compute_soft(soi, [interferer], (2.0,), 0.0, np.zeros((1, 1)))
        assert soft[0, 0] == pytest.approx(-1.0)

    def test_superposition_of_interferers(self):
        soi, chips, amplitudes, tau, phi = _two_interferer_batch(
            np.random.default_rng(18), 4, 16)
        alone = _compute_soft(soi, [], (), tau, phi[:, :0])
        both = _compute_soft(soi, chips, amplitudes, tau, phi)
        only1 = _compute_soft(soi, chips[:1], amplitudes[:1], tau, phi[:, :1])
        only2 = _compute_soft(soi, chips[1:], amplitudes[1:], tau, phi[:, 1:])
        assert np.allclose(both, only1 + only2 - alone, rtol=0, atol=1e-12)

    def test_packet_soft_bits_match_scalar(self):
        # whole-packet soft values equal the synchronized bit plus the one-row
        # contribution of every interferer, bit by bit
        packets, n_chips = 3, 16
        soi, chips, amplitudes, tau, phi = _two_interferer_batch(
            np.random.default_rng(19), packets, n_chips)
        soft = _compute_soft(soi, chips, amplitudes, tau, phi)
        for p in range(packets):
            interferers = [InterfererParams(amplitudes[idx], tau, phi[p, idx],
                                            multiplex_bits(chips[idx][p]))
                           for idx in range(2)]
            for j in range(n_chips):
                branch, k = "IQ"[j % 2], j // 2
                want = soi[p, j] + sum(interference_contribution(u, k, branch)
                                       for u in interferers)
                assert soft[p, j] == pytest.approx(want, abs=1e-12)


def _expression_form(i_bits, q_bits, amplitude, tau, phi_c, branch, num_bits,
                     index_offset=0):
    """The closed form as one expression, with the kernel's coefficients and
    operation order: the reference the in-place kernel must match bit for
    bit."""
    main_dec = decompose_offset(tau, "active")
    leak_dec = decompose_offset(tau, "q_leak" if branch == "I" else "i_leak")
    main_bits = i_bits if branch == "I" else q_bits
    leak_bits = q_bits if branch == "I" else i_bits
    phi_c = np.asarray(phi_c, dtype=np.float64)[..., None]
    main_prev, main_cur = _shifted_pair(main_bits, main_dec.k_shift + index_offset,
                                        num_bits)
    leak_prev, leak_cur = _shifted_pair(leak_bits, leak_dec.k_shift + index_offset,
                                        num_bits)
    two_t = 2.0
    over_pi = two_t / math.pi
    gain = amplitude / two_t
    cos_p = math.cos(main_dec.phi_p)
    sin_p = math.sin(main_dec.phi_p)
    direct = ((gain * (cos_p * main_dec.tau_rel - over_pi * sin_p)) * main_prev
              + (gain * (cos_p * (two_t - main_dec.tau_rel) + over_pi * sin_p)) * main_cur)
    leak = ((gain * (sin_p * leak_dec.tau_rel + over_pi * cos_p)) * leak_prev
            + (gain * (sin_p * (two_t - leak_dec.tau_rel) - over_pi * cos_p)) * leak_cur)
    return np.cos(phi_c) * direct - np.sin(phi_c) * leak


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBitIdentity:
    """The in-place kernel rounds exactly as the expression form did, so the
    soft values (and every table built from them) stay bit-identical."""

    TAUS = (-3.0, -2.7, -1.0, -0.3, 0.0, 0.3, 1.0, 2.9)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("branch", ["I", "Q"])
    def test_one_packet_scalar_phase(self, tau, branch):
        rng = np.random.default_rng(80)
        for dtype, index_offset in ((np.int8, 0), (np.float64, 0),
                                    (np.int8, 3), (np.float64, -2)):
            i_bits, q_bits = _bits(rng, 12, dtype), _bits(rng, 11, dtype)
            args = (i_bits, q_bits, 2.3, tau, 1.1, branch, 12, index_offset)
            _assert_bit_identical(batch_interference(*args), _expression_form(*args))

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("branch", ["I", "Q"])
    def test_packet_batch(self, tau, branch):
        rng = np.random.default_rng(81)
        i_bits, q_bits = _bits(rng, (7, 64)), _bits(rng, (7, 64))
        per_packet = rng.uniform(0.0, 2 * math.pi, size=7)
        for phi_c, index_offset in ((0.7, 0), (per_packet, 0), (per_packet, 5),
                                    (per_packet, -1)):
            args = (i_bits, q_bits, 0.37, tau, phi_c, branch, 64, index_offset)
            _assert_bit_identical(batch_interference(*args), _expression_form(*args))

    def test_compute_soft_two_interferers_with_noise(self):
        rng = np.random.default_rng(82)
        packets, n_chips = 6, 128
        soi = _bits(rng, (packets, n_chips))
        interferers = [_bits(rng, (packets, n_chips)) for _ in range(2)]
        amplitudes, tau = (1.7, 0.4), -0.3
        phi = rng.uniform(0.0, 2 * math.pi, size=(packets, 2))
        noise = (rng.normal(0.0, 0.2, size=(packets, n_chips // 2)),
                 rng.normal(0.0, 0.2, size=(packets, n_chips // 2)))
        want = np.multiply(1.0, soi, dtype=np.float64)
        for idx, chips in enumerate(interferers):
            for branch, start in (("I", 0), ("Q", 1)):
                want[:, start::2] += _expression_form(
                    chips[:, 0::2], chips[:, 1::2], amplitudes[idx], tau,
                    phi[:, idx], branch, n_chips // 2)
        want[:, 0::2] += noise[0]
        want[:, 1::2] += noise[1]
        _assert_bit_identical(_compute_soft(soi, interferers, amplitudes, tau, phi, noise),
                              want)
