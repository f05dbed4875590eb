"""Closed-form demodulator contributions: special cases, reductions, and
agreement of the one-row lookup and the whole-packet gather with the
closed form written as one expression."""

import math

import numpy as np
import pytest

from mskcollide import (InterfererParams, interference_contribution,
                        oracle_lambda_baseband, rect_integral,
                        rect_integral_quadrature)
from mskcollide import montecarlo
from mskcollide.demod import decompose_offset
from mskcollide.montecarlo import _compute_soft

TWO_OVER_PI = 2.0 / math.pi


def _interferer(bits, amplitude=1.0, tau=0.0, phi_c=0.0):
    return InterfererParams(amplitude=amplitude, tau=tau, phi_c=phi_c, bits=bits)


def _random_interferer(rng, n_bits=16, tau_span=4.0):
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    return InterfererParams(
        amplitude=float(10.0 ** rng.uniform(-2, 2)),
        tau=float(rng.uniform(-tau_span, tau_span)),
        phi_c=float(rng.uniform(0.0, 2 * math.pi)),
        bits=bits,
    )


def _bit(u, branch, m):
    """Bit m of one branch of u's payload; 0 (silence) outside it."""
    n = 2 * m + (0 if branch == "I" else 1)
    return int(u.bits[n]) if 0 <= n < len(u.bits) else 0


class TestDecomposeOffset:
    def test_zero_offset(self):
        assert decompose_offset(0.0) == (0, 0.0)

    def test_positive_offset(self):
        k_shift, tau_rel = decompose_offset(2.5)
        assert k_shift == 1
        assert tau_rel == pytest.approx(0.5)

    def test_negative_offset_floors_down(self):
        k_shift, tau_rel = decompose_offset(-0.5)
        assert k_shift == -1
        assert tau_rel == pytest.approx(1.5)

    def test_q_leak_shifts_by_plus_T(self):
        k_shift, tau_rel = decompose_offset(0.0 + 1.0)
        assert k_shift == 0
        assert tau_rel == pytest.approx(1.0)

    def test_remainder_confined_and_consistent(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            tau = float(rng.uniform(-50, 50))
            k_shift, tau_rel = decompose_offset(tau)
            assert 0.0 <= tau_rel < 2.0
            assert tau == pytest.approx(tau_rel + 2 * k_shift, abs=1e-9)


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
        # a bit index must be an integer; True would read bit 1
        for k in (1.5, True):
            with pytest.raises(ValueError):
                interference_contribution(_interferer([+1, -1, -1, +1]), k, "I")
        u = _interferer([+1, -1, -1, +1])
        assert interference_contribution(u, np.int64(1), "Q") == interference_contribution(
            u, 1, "Q")


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
        return u.amplitude * (math.cos(u.phi_c) * _bit(u, "I", k)
                              - math.sin(u.phi_c) / math.pi
                              * (_bit(u, "Q", k - 1) - _bit(u, "Q", k)))

    @staticmethod
    def _time_only(u, k):
        shift = math.floor(u.tau / 2)
        tau_rel = u.tau - 2 * shift
        prev, cur = _bit(u, "I", k - shift - 1), _bit(u, "I", k - shift)
        phi_p = math.pi * u.tau / 2
        return u.amplitude / 2 * (
            math.cos(phi_p) * (tau_rel * prev + (2 - tau_rel) * cur)
            - (2 / math.pi) * math.sin(phi_p) * (prev - cur))

    def test_reduces_to_phase_only_form(self):
        rng = np.random.default_rng(10)
        for _ in range(400):
            u = _random_interferer(rng)
            u = InterfererParams(u.amplitude, 0.0, u.phi_c, u.bits)
            k = int(rng.integers(0, 8))
            got = interference_contribution(u, k, "I")
            want = self._phase_only(u, k)
            assert got == pytest.approx(want, abs=1e-13 * (1 + abs(want)))

    def test_reduces_to_time_only_form(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            u = _random_interferer(rng)
            u = InterfererParams(u.amplitude, u.tau, 0.0, u.bits)
            k = int(rng.integers(0, 8))
            got = interference_contribution(u, k, "I")
            want = self._time_only(u, k)
            assert got == pytest.approx(want, abs=1e-13 * (1 + abs(want)))

    def test_reduces_to_synchronized_form(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u = _random_interferer(rng)
            u = InterfererParams(u.amplitude, 0.0, 0.0, u.bits)
            k = int(rng.integers(0, 8))
            got = interference_contribution(u, k, "I")
            want = u.amplitude * _bit(u, "I", k)
            assert got == pytest.approx(want, abs=1e-13 * (1 + abs(want)))


class TestProperties:
    def test_four_T_periodicity_with_constant_bits(self):
        bits = np.ones(64, dtype=int)
        rng = np.random.default_rng(14)
        for _ in range(100):
            tau = float(rng.uniform(-8, 8))
            phi = float(rng.uniform(0, 2 * math.pi))
            a = InterfererParams(1.0, tau, phi, bits)
            b = InterfererParams(1.0, tau + 4.0, phi, bits)
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
        # a whole packet's values are the one-row values, exactly
        rng = np.random.default_rng(16)
        for _ in range(60):
            u = _random_interferer(rng, n_bits=20)
            row = _interferer_row(u, u.bits)
            for j in range(20):
                assert row[j] == interference_contribution(u, j // 2, "IQ"[j % 2])

    def test_batch_honors_origin_offset(self):
        # a payload starting at branch index 3 (after six silent chips)
        # gives decision k what the same payload starting at 0 gives
        # decision k - 3
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=16) * 2 - 1
        u = InterfererParams(1.3, 0.7, 2.1, bits)
        row = _interferer_row(u, np.concatenate([np.zeros(6, np.int8), u.bits]))
        for j in range(22):
            assert row[j] == interference_contribution(u, j // 2 - 3, "IQ"[j % 2])

    def test_odd_length_payload(self):
        # 4 in-phase and 3 quadrature bits: every evaluator agrees at the
        # last bits of each branch and gives 0 beyond the payload, which at
        # tau = 0.6 starts two decisions after a branch's last bit
        u = _interferer([1, -1, -1, 1, 1, -1, 1], amplitude=1.7, tau=0.6, phi_c=1.1)
        # a packet of 14 chips, silent after the payload's seven
        row = _interferer_row(u, np.concatenate([u.bits, np.zeros(7, np.int8)]))
        for branch, last in (("I", 3), ("Q", 2)):
            for k in range(last, last + 4):
                closed = interference_contribution(u, k, branch)
                assert row[2 * k + (branch == "Q")] == closed
                ref = oracle_lambda_baseband(u, k, branch)
                assert closed == pytest.approx(ref, abs=1e-12 * (1 + abs(ref)))
                rect = rect_integral("one", u, k, branch)
                quad = rect_integral_quadrature("one", u, k, branch)
                assert rect == pytest.approx(quad, abs=1e-12)
                if k >= last + 2:
                    assert closed == ref == rect == 0.0
                else:
                    assert closed != 0.0


def _interferer_row(u, chips):
    """Whole-packet values (_compute_soft) of u's time offset, amplitude and
    phase on chips (a transmit-order row, 0 for silence), with no
    synchronized sender."""
    chips = np.asarray(chips, dtype=np.int8)[None]
    return _compute_soft(np.zeros_like(chips), [chips], (u.amplitude,), u.tau,
                         np.array([[u.phi_c]]))[0]


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
            interferers = [InterfererParams(amplitudes[idx], tau, phi[p, idx], chips[idx][p])
                           for idx in range(2)]
            for j in range(n_chips):
                branch, k = "IQ"[j % 2], j // 2
                want = soi[p, j] + sum(interference_contribution(u, k, branch)
                                       for u in interferers)
                assert soft[p, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n_chips", [64, 512])
    def test_one_interferer_soft_bits_are_the_one_row_values(self, n_chips):
        # with one interferer the engine's soft value is the synchronized
        # chip plus the one-row contribution that validate checks against
        # the oracle, bit for bit
        packets = 3
        soi, chips, amplitudes, tau, phi = _two_interferer_batch(
            np.random.default_rng(20), packets, n_chips)
        soft = _compute_soft(soi, chips[:1], amplitudes[:1], tau, phi[:, :1])
        want = np.empty_like(soft)
        for p in range(packets):
            u = InterfererParams(amplitudes[0], tau, phi[p, 0], chips[0][p])
            for j in range(n_chips):
                want[p, j] = soi[p, j] + interference_contribution(u, j // 2, "IQ"[j % 2])
        _assert_bit_identical(soft, want)


def _shifted_pair(bits: np.ndarray, shift: int, num_bits: int):
    """(prev, cur) where cur[..., k] = bits[..., k - shift] and prev lags cur
    by one index; zero outside the payload."""
    buf = np.zeros(bits.shape[:-1] + (num_bits + 1,), dtype=bits.dtype)
    lo = max(0, shift + 1)
    hi = min(num_bits + 1, bits.shape[-1] + shift + 1)
    if lo < hi:
        buf[..., lo:hi] = bits[..., lo - shift - 1 : hi - shift - 1]
    return buf[..., :-1], buf[..., 1:]


def _expression_form(i_bits, q_bits, amplitude, tau, phi_c, branch, num_bits,
                     index_offset=0):
    """The closed form as one expression on the two branches' bits, bit by
    bit, with the engine's coefficients and operation order: the reference
    the pattern tables must match bit for bit. index_offset is the
    payload's first branch index relative to the first decision index. The
    in-phase bits leak into quadrature detection through the quadrature
    leak decomposition, one bit later."""
    main_shift, main_rel = decompose_offset(tau)
    leak_shift, leak_rel = decompose_offset(tau + 1.0)
    leak_shift -= 1 if branch == "Q" else 0
    main_bits = i_bits if branch == "I" else q_bits
    leak_bits = q_bits if branch == "I" else i_bits
    phi_c = np.asarray(phi_c, dtype=np.float64)[..., None]
    main_prev, main_cur = _shifted_pair(main_bits, main_shift + index_offset, num_bits)
    leak_prev, leak_cur = _shifted_pair(leak_bits, leak_shift + index_offset, num_bits)
    two_t = 2.0
    over_pi = two_t / math.pi
    gain = amplitude / two_t
    phi_p = math.pi * tau / 2.0
    cos_p = math.cos(phi_p)
    sin_p = math.sin(phi_p)
    direct = ((gain * (cos_p * main_rel - over_pi * sin_p)) * main_prev
              + (gain * (cos_p * (two_t - main_rel) + over_pi * sin_p)) * main_cur)
    leak = ((gain * (sin_p * leak_rel + over_pi * cos_p)) * leak_prev
            + (gain * (sin_p * (two_t - leak_rel) - over_pi * cos_p)) * leak_cur)
    return np.cos(phi_c) * direct - np.sin(phi_c) * leak


def _reference_soft(soi, chips, amplitudes, tau, phi, noise=None):
    """_compute_soft's values from the expression form, added in its order:
    the synchronized chips, each interferer on both branches, the noise."""
    want = np.multiply(1.0, soi, dtype=np.float64)
    n_chips = soi.shape[-1]
    for idx, bits in enumerate(chips):
        for branch, start in (("I", 0), ("Q", 1)):
            want[:, start::2] += _expression_form(
                bits[:, 0::2], bits[:, 1::2], amplitudes[idx], tau, phi[:, idx], branch,
                len(range(start, n_chips, 2)))
    if noise is not None:
        want[:, 0::2] += noise[0]
        want[:, 1::2] += noise[1]
    return want


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBitIdentity:
    """The pattern tables round exactly as the expression form, so the
    one-row lookup and the whole-packet gather (and every table built from
    them) stay bit-identical to it."""

    #: Includes all 11 split taus (TestPatternTables.SPLIT_TAUS).
    TAUS = (-3.0, -2.7, -1.8, -1.7, -1.3, -1.2, -1.0, -0.9, -0.6, -0.4, -0.3, 0.0, 0.3,
            1.0, 1.2, 1.3, 1.7, 1.8, 2.9)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("branch", ["I", "Q"])
    def test_one_packet_scalar_phase(self, tau, branch):
        rng = np.random.default_rng(80)
        for dtype, index_offset in ((np.int8, 0), (np.float64, 0),
                                    (np.int8, 3), (np.float64, -2)):
            bits = _bits(rng, 23, dtype)
            u = InterfererParams(2.3, tau, 1.1, bits)
            got = np.array([interference_contribution(u, k - index_offset, branch)
                            for k in range(12)])
            _assert_bit_identical(got, _expression_form(
                bits[0::2], bits[1::2], 2.3, tau, 1.1, branch, 12, index_offset))

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("branch", ["I", "Q"])
    def test_packet_batch(self, tau, branch):
        rng = np.random.default_rng(81)
        soi, bits = _bits(rng, (7, 128)), _bits(rng, (7, 128))
        start = 0 if branch == "I" else 1
        for phi in (np.full((7, 1), 0.7), rng.uniform(0.0, 2 * math.pi, size=(7, 1))):
            got = _compute_soft(soi, [bits], (0.37,), tau, phi)[:, start::2]
            want = soi[:, start::2] + _expression_form(
                bits[:, 0::2], bits[:, 1::2], 0.37, tau, phi[:, 0], branch, 64)
            _assert_bit_identical(got, want)

    def test_compute_soft_two_interferers_with_noise(self):
        rng = np.random.default_rng(82)
        packets, n_chips = 6, 128
        soi = _bits(rng, (packets, n_chips))
        interferers = [_bits(rng, (packets, n_chips)) for _ in range(2)]
        amplitudes, tau = (1.7, 0.4), -0.3
        phi = rng.uniform(0.0, 2 * math.pi, size=(packets, 2))
        noise = (rng.normal(0.0, 0.2, size=(packets, n_chips // 2)),
                 rng.normal(0.0, 0.2, size=(packets, n_chips // 2)))
        _assert_bit_identical(_compute_soft(soi, interferers, amplitudes, tau, phi, noise),
                              _reference_soft(soi, interferers, amplitudes, tau, phi, noise))


class TestPatternTables:
    """Every packet, at any length, gathers each interferer's contribution
    from per-packet tables of every bit pattern, and the gathered soft
    values equal the expression form bit for bit."""

    #: Preset taus at which decomposing tau + T and tau - T separately gave
    #: the two branches leak weights a few ulps apart.
    SPLIT_TAUS = (-1.8, -1.7, -1.3, -1.2, -0.9, -0.6, -0.4, 1.2, 1.3, 1.7, 1.8)

    @pytest.mark.parametrize("tau", SPLIT_TAUS + (
        -100.0, -3.0000000000000004, -2.7, -1.0000000000000002, 0.0, 0.3, 2.9, 100.0, 1e17))
    def test_matches_elementwise_path(self, tau):
        # the elementwise reference is _expression_form, at uncoded, odd and
        # coded packet lengths
        rng = np.random.default_rng(83)
        packets = 5
        for n_chips in (1, 7, 64, 80, 161, 162, 512):
            for n_interferers in (0, 1, 2):
                for phase in ("fixed", "random"):
                    for noisy in (False, True):
                        soi = _bits(rng, (packets, n_chips))
                        chips = [_bits(rng, (packets, n_chips)) for _ in range(n_interferers)]
                        amplitudes = tuple(10.0 ** rng.uniform(-2, 2, size=n_interferers))
                        if phase == "fixed":
                            phi = np.full((packets, n_interferers), 1.1)
                        else:
                            phi = rng.uniform(0.0, 2 * math.pi, size=(packets, n_interferers))
                        noise = None
                        if noisy:
                            noise = tuple(rng.normal(0.0, 0.3, size=(packets, size))
                                          for size in (n_chips - n_chips // 2, n_chips // 2))
                        args = (soi, chips, amplitudes, tau, phi, noise)
                        _assert_bit_identical(_compute_soft(*args), _reference_soft(*args))

    def test_one_packet_slab(self):
        rng = np.random.default_rng(84)
        soi, chips = _bits(rng, (1, 256)), [_bits(rng, (1, 256)) for _ in range(2)]
        phi = rng.uniform(0.0, 2 * math.pi, size=(1, 2))
        for tau in (-1.2, 0.7):
            args = (soi, chips, (0.8, 3.1), tau, phi, None)
            _assert_bit_identical(_compute_soft(*args), _reference_soft(*args))

    @pytest.mark.parametrize("tau", [-0.6, 1.3])
    def test_run_point_matches_elementwise_path(self, monkeypatch, tau):
        # slabs of 40 packets, the last one short, share the point's
        # buffers and give the point the expression form gives it
        cfg = montecarlo.ExperimentConfig(
            coding="sdd", packets_per_point=130, payload_bits=32, n_interferers=2,
            noise_std=0.3, master_seed=5)
        monkeypatch.setattr(montecarlo, "SLAB_VALUES", 40 * 256)
        tables = montecarlo.run_point(cfg, tau, -4.0)

        def reference(soi, chips, amplitudes, tau, phi, noise=None, out=None, gather=None):
            return _reference_soft(soi, chips, amplitudes, tau, phi, noise)

        monkeypatch.setattr(montecarlo, "_compute_soft", reference)
        assert montecarlo.run_point(cfg, tau, -4.0) == tables
        assert 0.0 < tables.ber < 1.0
