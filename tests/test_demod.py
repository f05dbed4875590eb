"""Closed-form demodulator contributions: special cases, reductions, and
agreement of the batched lookup and the whole-packet gather with the
closed form written as one expression."""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from mskcollide import (Draws, interference_contribution, oracle_lambda_baseband,
                        rect_integral, rect_integral_quadrature)
from mskcollide import demod, montecarlo
from mskcollide.demod import _offset_terms, _pattern_table, decompose_offset
from mskcollide.montecarlo import _compute_soft
from mskcollide.oracle import RECT_KINDS

TWO_OVER_PI = 2.0 / math.pi


class Interferer(NamedTuple):
    """One interferer, in the order of a Draws.of row before its bit index."""

    bits: object
    amplitude: float = 1.0
    tau: float = 0.0
    phi_c: float = 0.0


def _random_interferer(rng, n_bits=16, tau_span=4.0):
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    return Interferer(
        amplitude=float(10.0 ** rng.uniform(-2, 2)),
        tau=float(rng.uniform(-tau_span, tau_span)),
        phi_c=float(rng.uniform(0.0, 2 * math.pi)),
        bits=bits,
    )


def _draws(pairs):
    """The batch of (Interferer, k) pairs."""
    return Draws.of([(*u, k) for u, k in pairs])


def _lambdas(u, ks):
    """u's closed-form contribution at each bit index of ks, as (len(ks), 2)
    columns I and Q; .ravel() lists them in transmit order."""
    return interference_contribution(_draws((u, k) for k in ks))


def _lambda(u, k, branch="I"):
    """u's contribution at bit k of one branch: a column of a batch of one."""
    return _lambdas(u, [k])[0, "IQ".index(branch)]


def _bit(u, branch, m):
    """Bit m of one branch of u's payload; 0 (silence) outside it."""
    n = 2 * m + (0 if branch == "I" else 1)
    return int(u.bits[n]) if 0 <= n < len(u.bits) else 0


def _decompose(shifted):
    """decompose_offset of one offset, as a one-element array."""
    k_shift, tau_rel = decompose_offset(np.array([shifted]))
    return float(k_shift[0]), float(tau_rel[0])


class TestDecomposeOffset:
    def test_zero_offset(self):
        assert _decompose(0.0) == (0, 0.0)

    def test_positive_offset(self):
        k_shift, tau_rel = _decompose(2.5)
        assert k_shift == 1
        assert tau_rel == pytest.approx(0.5)

    def test_negative_offset_floors_down(self):
        k_shift, tau_rel = _decompose(-0.5)
        assert k_shift == -1
        assert tau_rel == pytest.approx(1.5)

    def test_q_leak_shifts_by_plus_T(self):
        k_shift, tau_rel = _decompose(0.0 + 1.0)
        assert k_shift == 0
        assert tau_rel == pytest.approx(1.0)

    def test_remainder_confined_and_consistent(self):
        rng = np.random.default_rng(0)
        tau = np.array([float(rng.uniform(-50, 50)) for _ in range(2000)])
        k_shift, tau_rel = decompose_offset(tau)
        assert np.all((0.0 <= tau_rel) & (tau_rel < 2.0))
        assert np.all(k_shift == np.round(k_shift))
        assert np.allclose(tau_rel + 2 * k_shift, tau, rtol=0, atol=1e-9)


class TestSynchronizedContribution:
    """A fully synchronized signal contributes amplitude times its bit."""

    def test_unit(self):
        values = _lambdas(Interferer([+1, -1]), [0])
        assert values.dtype == np.float64 and values.shape == (1, 2)
        assert values[0, 0] == 1.0

    def test_scaled_negative(self):
        assert _lambda(Interferer([-1, +1], 0.5), 0, "I") == -0.5

    def test_silence(self):
        u = Interferer([+1, -1], amplitude=3.0)
        assert _lambda(u, 1, "I") == 0.0
        assert _lambda(u, -1, "Q") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _lambda(Interferer([+1, -1], amplitude=-1.0), 0)
        with pytest.raises(ValueError):
            _lambda(Interferer([+1, 2]), 0)
        # a bit index must be an integer; True would read bit 1
        for k in (1.5, True):
            with pytest.raises(ValueError):
                _lambda(Interferer([+1, -1, -1, +1]), k, "I")
        u = Interferer([+1, -1, -1, +1])
        assert _lambda(u, np.int64(1), "Q") == _lambda(u, 1, "Q")


class TestSpecialCases:
    def test_no_offsets_is_amplitude_times_bit(self):
        u = Interferer([+1, +1, +1, -1], amplitude=1.0)
        assert _lambda(u, 0, "I") == pytest.approx(1.0)
        u2 = Interferer([-1, +1], amplitude=0.7)
        assert _lambda(u2, 0, "I") == pytest.approx(-0.7)

    def test_quarter_turn_leaks_alternating_q_bits(self):
        # q bits (k-1, k) = (+1, -1) at k=1
        u = Interferer([+1, +1, +1, -1], phi_c=math.pi / 2)
        got = _lambda(u, 1, "I")
        assert got == pytest.approx(-TWO_OVER_PI, abs=1e-12)

    def test_quarter_turn_equal_q_bits_vanishes(self):
        u = Interferer([+1, +1, -1, +1], phi_c=math.pi / 2)  # q bits equal
        assert _lambda(u, 1, "I") == pytest.approx(0.0, abs=1e-12)

    def test_half_bit_delay_alternating_i_bits(self):
        # i bits (k-1, k) = (+1, -1) at k=1: only the transition term remains
        u = Interferer([+1, +1, -1, -1], tau=1.0)
        got = _lambda(u, 1, "I")
        assert got == pytest.approx(-TWO_OVER_PI, abs=1e-12)

    def test_q_branch_no_offsets(self):
        u = Interferer([+1, +1, +1, -1])
        assert _lambda(u, 0, "Q") == pytest.approx(1.0)

    def test_q_branch_opposed_carrier_flips_sign(self):
        u = Interferer([+1, +1, +1, -1], phi_c=math.pi)
        assert _lambda(u, 0, "Q") == pytest.approx(-1.0)

    def test_unit_magnitude_for_in_packet_bit(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=12) * 2 - 1
        values = _lambdas(Interferer(bits), range(6))
        assert np.abs(values) == pytest.approx(np.ones((6, 2)))


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

    @staticmethod
    def _assert_reduces(rng, count, fields, reference):
        """count random draws with the given fields fixed, evaluated as one
        batch, each against reference(u, k) on the in-phase branch."""
        pairs = [(_random_interferer(rng)._replace(**fields), int(rng.integers(0, 8)))
                 for _ in range(count)]
        got = interference_contribution(_draws(pairs))[:, 0]
        for value, (u, k) in zip(got, pairs):
            want = reference(u, k)
            assert value == pytest.approx(want, abs=1e-13 * (1 + abs(want)))

    def test_reduces_to_phase_only_form(self):
        self._assert_reduces(np.random.default_rng(10), 400, {"tau": 0.0}, self._phase_only)

    def test_reduces_to_time_only_form(self):
        self._assert_reduces(np.random.default_rng(11), 400, {"phi_c": 0.0}, self._time_only)

    def test_reduces_to_synchronized_form(self):
        self._assert_reduces(np.random.default_rng(12), 100, {"tau": 0.0, "phi_c": 0.0},
                             lambda u, k: u.amplitude * _bit(u, "I", k))


class TestProperties:
    def test_four_T_periodicity_with_constant_bits(self):
        bits = np.ones(64, dtype=int)
        rng = np.random.default_rng(14)
        offsets = [(float(rng.uniform(-8, 8)), float(rng.uniform(0, 2 * math.pi)))
                   for _ in range(100)]
        # k in the payload middle so both offsets stay inside the span
        va = interference_contribution(_draws((Interferer(bits, 1.0, tau, phi), 16)
                                              for tau, phi in offsets))
        vb = interference_contribution(_draws((Interferer(bits, 1.0, tau + 4.0, phi), 18)
                                              for tau, phi in offsets))
        assert vb[:, 0] == pytest.approx(va[:, 0], abs=1e-12)

    def test_magnitude_bound(self):
        bound = 1.0 + TWO_OVER_PI
        rng = np.random.default_rng(15)
        pairs = [(_random_interferer(rng), int(rng.integers(-2, 10))) for _ in range(3000)]
        values = interference_contribution(_draws(pairs))
        amplitudes = np.array([u.amplitude for u, _ in pairs])[:, None]
        assert np.all(np.abs(values) <= amplitudes * bound + 1e-12)

    def test_batch_matches_scalar(self):
        # a whole packet's values are the batched values, exactly
        rng = np.random.default_rng(16)
        for _ in range(60):
            u = _random_interferer(rng, n_bits=20)
            row = _interferer_row(u, u.bits)
            assert row.tolist() == _lambdas(u, range(10)).ravel().tolist()

    def test_batch_honors_origin_offset(self):
        # a payload starting at branch index 3 (after six silent chips)
        # gives decision k what the same payload starting at 0 gives
        # decision k - 3
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=16) * 2 - 1
        u = Interferer(bits, 1.3, 0.7, 2.1)
        row = _interferer_row(u, np.concatenate([np.zeros(6, np.int8), u.bits]))
        assert row.tolist() == _lambdas(u, range(-3, 8)).ravel().tolist()

    def test_odd_length_payload(self):
        # 4 in-phase and 3 quadrature bits: every evaluator agrees at the
        # last bits of each branch and gives 0 beyond the payload, which at
        # tau = 0.6 starts two decisions after a branch's last bit
        u = Interferer([1, -1, -1, 1, 1, -1, 1], amplitude=1.7, tau=0.6, phi_c=1.1)
        # a packet of 14 chips, silent after the payload's seven
        row = _interferer_row(u, np.concatenate([u.bits, np.zeros(7, np.int8)]))
        ks = range(2, 7)
        batch = _draws((u, k) for k in ks)
        lambdas, refs = interference_contribution(batch), oracle_lambda_baseband(batch)
        # the "one" kind, columns I and Q
        rects, quads = rect_integral(batch)[:, :2], rect_integral_quadrature(batch)[:, :2]
        for col, (branch, last) in enumerate((("I", 3), ("Q", 2))):
            for k in range(last, last + 4):
                at = ks.index(k), col
                closed, ref, rect = lambdas[at], refs[at], rects[at]
                assert row[2 * k + (branch == "Q")] == closed
                assert closed == pytest.approx(ref, abs=1e-12 * (1 + abs(ref)))
                assert rect == pytest.approx(quads[at], abs=1e-12)
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
        # whole-packet soft values equal the synchronized bit plus the
        # batched contribution of every interferer, bit by bit
        packets, n_chips = 3, 16
        soi, chips, amplitudes, tau, phi = _two_interferer_batch(
            np.random.default_rng(19), packets, n_chips)
        soft = _compute_soft(soi, chips, amplitudes, tau, phi)
        for p in range(packets):
            want = soi[p] + sum(
                _lambdas(Interferer(chips[idx][p], amplitudes[idx], tau, phi[p, idx]),
                         range(n_chips // 2)).ravel()
                for idx in range(2))
            assert soft[p] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n_chips", [64, 512])
    def test_one_interferer_soft_bits_are_the_one_row_values(self, n_chips):
        # with one interferer the engine's soft value is the synchronized
        # chip plus the batched contribution that validate checks against
        # the oracle, bit for bit
        packets = 3
        soi, chips, amplitudes, tau, phi = _two_interferer_batch(
            np.random.default_rng(20), packets, n_chips)
        soft = _compute_soft(soi, chips[:1], amplitudes[:1], tau, phi[:, :1])
        want = np.empty_like(soft)
        for p in range(packets):
            u = Interferer(chips[0][p], amplitudes[0], tau, phi[p, 0])
            want[p] = soi[p] + _lambdas(u, range(n_chips // 2)).ravel()
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
    main_shift, main_rel = _scalar_decompose(tau)
    leak_shift, leak_rel = _scalar_decompose(tau + 1.0)
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


def _broadcast_table(amplitude, weights, phi_c):
    """_pattern_table as a broadcast multiply of (9, 9) pattern arrays (main
    pair along the rows, leak pair along the columns) by phi[..., None,
    None], in its operation order: the reference its outer products must
    equal entry for entry."""
    gain = amplitude / 2.0
    w_main_prev, w_main_cur, w_leak_prev, w_leak_cur = (gain * w for w in weights)
    prev, cur = np.arange(9) // 3 - 1.0, np.arange(9) % 3 - 1.0
    main_prev, main_cur = (np.broadcast_to(d[:, None], (9, 9)) for d in (prev, cur))
    leak_prev, leak_cur = (np.broadcast_to(d, (9, 9)) for d in (prev, cur))
    phi = np.asarray(phi_c, dtype=np.float64)[..., None, None]
    direct = w_main_prev * main_prev + w_main_cur * main_cur
    leak = w_leak_prev * leak_prev + w_leak_cur * leak_cur
    table = direct * np.cos(phi) - leak * np.sin(phi)
    return table.reshape(phi.shape[:-2] + (81,))


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBitIdentity:
    """The pattern tables round exactly as the expression form, so the
    batched lookup and the whole-packet gather (and every table built from
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
            u = Interferer(bits, 2.3, tau, 1.1)
            got = _lambdas(u, range(-index_offset, 12 - index_offset))[:, "IQ".index(branch)]
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
                for phase in ("fixed", "shared", "random"):
                    for noisy in (False, True):
                        soi = _bits(rng, (packets, n_chips))
                        chips = [_bits(rng, (packets, n_chips)) for _ in range(n_interferers)]
                        amplitudes = tuple(10.0 ** rng.uniform(-2, 2, size=n_interferers))
                        if phase == "fixed":
                            phi = np.full((packets, n_interferers), 1.1)
                        elif phase == "shared":
                            # a row stride of 0, as a fixed phi_c draws it
                            phi = np.broadcast_to(1.1, (packets, n_interferers))
                        else:
                            phi = rng.uniform(0.0, 2 * math.pi, size=(packets, n_interferers))
                        noise = None
                        if noisy:
                            noise = tuple(rng.normal(0.0, 0.3, size=(packets, size))
                                          for size in (n_chips - n_chips // 2, n_chips // 2))
                        args = (soi, chips, amplitudes, tau, phi, noise)
                        _assert_bit_identical(_compute_soft(*args), _reference_soft(*args))

    #: Offsets where some weights are exactly 0, and others.
    TABLE_TAUS = (0.0, 1.0, -1.0, 3.0, -3.0, 0.3, -1.7, 2.9)

    @pytest.mark.parametrize("tau", TABLE_TAUS)
    def test_table_equals_broadcast_formula(self, tau):
        # every entry is the broadcast formula's rounded products, equal
        # under == (only the sign of an exact 0 may differ)
        rng = np.random.default_rng(86)
        _, weights = _offset_terms(tau)
        special = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
        for phi in (1.1, 0.0, np.array([0.0]), np.array([2.5]),
                    np.concatenate([special, rng.uniform(0.0, 2 * math.pi, size=124)]),
                    rng.uniform(0.0, 2 * math.pi, size=1000)):
            for amplitude in (1.0, 0.37, 31.6):
                got = _pattern_table(amplitude, weights, phi)
                want = _broadcast_table(amplitude, weights, phi)
                assert got.shape == want.shape == np.shape(phi) + (81,)
                assert (got == want).all()

    @pytest.mark.parametrize("tau", TABLE_TAUS)
    def test_soft_values_equal_broadcast_tables(self, monkeypatch, tau):
        # and no signed zero reaches a soft value: gathered from either
        # table, with or without a synchronized sender, at per-packet and
        # shared phases, the values are equal bit for bit
        rng = np.random.default_rng(87)
        for packets, n_chips in ((128, 512), (1000, 64), (3, 5)):
            chips = [_bits(rng, (packets, n_chips)) for _ in range(2)]
            amplitudes = (1.0, 0.37)
            per_packet = rng.uniform(0.0, 2 * math.pi, size=(packets, 2))
            per_packet[::7] = 0.0
            for soi in (_bits(rng, (packets, n_chips)), np.zeros((packets, n_chips), np.int8)):
                for phi in (per_packet, np.broadcast_to(0.0, (packets, 2)),
                            np.broadcast_to(2.5, (packets, 2))):
                    with monkeypatch.context() as patch:
                        patch.setattr(demod, "_pattern_table", _broadcast_table)
                        want = _compute_soft(soi, chips, amplitudes, tau, phi)
                    _assert_bit_identical(_compute_soft(soi, chips, amplitudes, tau, phi),
                                          want)

    def test_shared_phase_builds_one_table(self, monkeypatch):
        # a fixed phi_c draws phases with a row stride of 0, and each slab
        # then gathers from one 81-entry table; drawn phases take one a packet
        shapes = []

        def spy(amplitude, weights, phi_c):
            shapes.append(np.shape(phi_c))
            return _pattern_table(amplitude, weights, phi_c)

        monkeypatch.setattr(demod, "_pattern_table", spy)
        cfg = montecarlo.ExperimentConfig(packets_per_point=300, n_interferers=2)
        for phi_c, want in ((1.1, (1,)), (None, (300,))):
            shapes.clear()
            montecarlo.run_point(replace(cfg, phi_c=phi_c), 0.4, -3.0)
            assert shapes == [want, want]

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


def _scalar_decompose(shifted):
    """decompose_offset as it was written for one offset, in Python scalars."""
    k_shift = math.floor(shifted / 2.0)
    tau_rel = shifted - 2.0 * k_shift
    if tau_rel >= 2.0:
        k_shift += 1
        tau_rel -= 2.0
    if tau_rel < 0.0:
        tau_rel = 0.0
    return k_shift, tau_rel


def _scalar_lambda(u, k, branch):
    """interference_contribution as it was once computed one draw at a time: the
    weights in Python scalars, the 81-entry one-phase pattern table, and
    the entry at the bit's pattern code."""
    n = 2 * k + (branch == "Q")
    k_main, rel_main = _scalar_decompose(u.tau)
    k_leak, rel_leak = _scalar_decompose(u.tau + 1.0)
    over_pi = 2.0 / math.pi
    phi_p = math.pi * u.tau / 2.0
    cos_p, sin_p = math.cos(phi_p), math.sin(phi_p)
    weights = (cos_p * rel_main - over_pi * sin_p,
               cos_p * (2.0 - rel_main) + over_pi * sin_p,
               sin_p * rel_leak + over_pi * cos_p,
               sin_p * (2.0 - rel_leak) - over_pi * cos_p)
    lags = (2 * k_main + 2, 2 * k_main, 2 * k_leak + 1, 2 * k_leak - 1)
    code = 0
    for lag in lags:
        m = n - lag
        code = 3 * code + (int(u.bits[m]) + 1 if 0 <= m < len(u.bits) else 1)
    gain = u.amplitude / 2.0
    w_main_prev, w_main_cur, w_leak_prev, w_leak_cur = (gain * w for w in weights)
    main_prev, main_cur, leak_prev, leak_cur = demod._PATTERNS
    direct = w_main_prev * main_prev
    leak = w_main_cur * main_cur
    direct += leak
    np.multiply(w_leak_prev, leak_prev, out=leak)
    leak += w_leak_cur * leak_cur
    phi_c = np.asarray(u.phi_c, dtype=np.float64)
    table = np.einsum("...,j->...j", np.cos(phi_c), direct)
    table -= np.einsum("...,j->...j", np.sin(phi_c), leak)
    return float(table[code])


def _scalar_rect(kind, u, k, branch):
    """rect_integral as it was once computed one draw at a time."""
    n = 2 * k + (branch == "Q")
    k_shift, tau_rel = _scalar_decompose(u.tau if branch == "I" else u.tau + 1.0)
    n -= 2 * k_shift
    prev, cur = (int(u.bits[m]) if 0 <= m < len(u.bits) else 0 for m in (n - 2, n))
    phi_p = math.pi * u.tau / 2.0
    if kind == "one":
        return tau_rel * prev + (2.0 - tau_rel) * cur
    diff = prev - cur
    if kind == "cos2wp":
        val = -1.0 / (2.0 * (math.pi / 2.0)) * math.sin(2.0 * phi_p) * diff
        return val if branch == "I" else -val
    if branch == "I":
        return -1.0 / (2.0 * (math.pi / 2.0)) * (1.0 - math.cos(2.0 * phi_p)) * diff
    return -1.0 / (2.0 * (math.pi / 2.0)) * (1.0 + math.cos(2.0 * phi_p)) * diff


def _scalar_closed_forms(u, k):
    """The eight values validate compares, in its label order: lambda on I
    and Q, then each primitive integral on I and Q."""
    return [_scalar_lambda(u, k, branch) for branch in ("I", "Q")] + [
        _scalar_rect(kind, u, k, branch) for kind in RECT_KINDS for branch in ("I", "Q")]


def _batched_closed_forms(pairs):
    batch = _draws(pairs)
    return np.hstack([interference_contribution(batch), rect_integral(batch)])


#: Offsets at the ends of validate's range, and whole multiples of T, where
#: a piece of the decision interval is empty.
_EDGE_TAUS = (-4.0, np.nextafter(-4.0, 0.0), -3.9999999, np.nextafter(4.0, 0.0), 3.9999999,
              4.0, -3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 1e-13, -1e-13, 2.0 - 1e-15)


def _closed_form_draws(count):
    """Draws as validate makes them (8 to 24 bits, tau in [-4, 4]), a fifth
    at an edge offset and a fifth at a special phase, and bit k the first,
    the last or any, so that the lags reach past both payload ends."""
    rng = np.random.default_rng(88)
    pairs = []
    for _ in range(count):
        n_bits = int(rng.integers(4, 13)) * 2
        tau = (float(rng.choice(_EDGE_TAUS)) if rng.random() < 0.2
               else float(rng.uniform(-4.0, 4.0)))
        phi_c = (float(rng.choice([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]))
                 if rng.random() < 0.2 else float(rng.uniform(0.0, 2 * math.pi)))
        u = Interferer(amplitude=float(10.0 ** rng.uniform(-2, 2)), tau=tau, phi_c=phi_c,
                       bits=rng.integers(0, 2, size=n_bits) * 2 - 1)
        k = int(rng.choice([0, n_bits // 2 - 1, int(rng.integers(0, n_bits // 2))]))
        pairs.append((u, k))
    return pairs


class TestBatchedClosedForms:
    """lambda and the six primitive integrals of a batch of draws equal,
    bit for bit, the values the closed forms gave one draw at a time."""

    def test_batch_equals_scalar_values(self):
        pairs = _closed_form_draws(2400)
        got = np.vstack([_batched_closed_forms(pairs[s:s + 1024])
                         for s in range(0, len(pairs), 1024)])
        want = np.array([_scalar_closed_forms(u, k) for u, k in pairs])
        _assert_bit_identical(got, want)
        taus = {u.tau for u, _ in pairs}
        assert taus.issuperset(_EDGE_TAUS)
        assert {k for _, k in pairs} >= {0, 11}

    def test_batch_of_one_equals_its_row(self):
        pairs = _closed_form_draws(1024)
        batch = _batched_closed_forms(pairs)
        assert batch.shape == (1024, 8)
        for row, (u, k) in enumerate(pairs):
            _assert_bit_identical(_batched_closed_forms([(u, k)])[0], batch[row])

    def test_decompose_offset_array_equals_scalar(self):
        # both guards: -1e-17 rounds onto 2T, and far offsets keep exact shifts
        offsets = [-0.0, 0.0, -1e-17, 1e-17, 5e-324, -5e-324, 2.0, -2.0, 3.0000000000000004,
                   -2.9999999999999996, 1e17, -1e17, 1e300, -1e300, *_EDGE_TAUS,
                   *np.random.default_rng(89).uniform(-50.0, 50.0, size=200)]
        k_shift, tau_rel = decompose_offset(np.array(offsets, dtype=np.float64))
        for shifted, k_arr, rel_arr in zip(offsets, k_shift, tau_rel):
            k_ref, rel_ref = _scalar_decompose(float(shifted))
            # bit for bit: a whole k_shift is never -0.0
            for got, want in ((k_arr, float(k_ref)), (rel_arr, rel_ref)):
                assert got.view(np.int64) == np.float64(want).view(np.int64)
