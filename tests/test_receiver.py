"""Slicing, DSSS decoding (against brute-force references), and whole-packet
decoding."""

import math

import numpy as np
import pytest

from mskcollide import (CHIP_TABLE, InterfererParams, Scenario, decide,
                        decode_packet, hdd_decode, make_payload, sdd_decode,
                        spread_symbols)


def brute_force_decision(values):
    """Independent reference decoder: plain loops over all 16 codewords."""
    best_symbol, best_corr = None, -1.0
    for xi in range(16):
        corr = abs(sum(float(v) * (2 * int(c) - 1)
                       for v, c in zip(values, CHIP_TABLE[xi])))
        if corr > best_corr:
            best_symbol, best_corr = xi, corr
    return best_symbol, best_corr


class TestSlice:
    """The slicing half of decide."""

    def test_positive(self):
        assert decide([0.73], "uncoded")[0].tolist() == [1]

    def test_tiny_negative(self):
        assert decide([-1e-12], "uncoded")[0].tolist() == [-1]

    def test_zero_ties_positive(self):
        sliced, symbols, corr = decide([0.0, -0.0, -2.0], "uncoded")
        assert sliced.tolist() == [1, 1, -1] and sliced.dtype == np.int8
        assert symbols is None and corr is None


class TestHddDecode:
    def test_autocorrelation_peak(self):
        chips = spread_symbols([5])
        d = hdd_decode(chips)
        assert d.symbol == 5
        assert d.correlation == pytest.approx(32.0)
        assert d.runner_up_gap > 0

    def test_global_inversion_decodes_same_symbol(self):
        chips = spread_symbols([5])
        assert hdd_decode(-chips).symbol == 5

    def test_inversion_symmetry_all_symbols(self):
        rng = np.random.default_rng(50)
        for xi in range(16):
            chips = spread_symbols([xi])
            for _ in range(50):
                flips = rng.integers(0, 2, size=32) * -2 + 1
                noisy = chips * flips.astype(np.int8)
                assert hdd_decode(noisy).symbol == hdd_decode(-noisy).symbol

    def test_matches_brute_force_over_flip_patterns(self):
        # all subsets of 10 fixed flip positions applied to codeword 5
        rng = np.random.default_rng(51)
        positions = rng.choice(32, size=10, replace=False)
        base = spread_symbols([5]).astype(np.int64)
        for mask in range(1024):
            chips = base.copy()
            for j in range(10):
                if mask >> j & 1:
                    chips[positions[j]] *= -1
            got = hdd_decode(chips)
            want_symbol, want_corr = brute_force_decision(chips)
            assert got.symbol == want_symbol
            assert got.correlation == pytest.approx(want_corr)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hdd_decode(np.ones(31, dtype=int))
        with pytest.raises(ValueError):
            hdd_decode(np.zeros(32, dtype=int))


class TestSddDecode:
    def test_scale_invariance(self):
        chips = spread_symbols([9]).astype(float)
        assert sdd_decode(0.3 * chips).symbol == 9
        rng = np.random.default_rng(52)
        for _ in range(200):
            soft = rng.normal(size=32)
            scale = float(10.0 ** rng.uniform(-3, 3))
            assert sdd_decode(soft).symbol == sdd_decode(scale * soft).symbol

    def test_single_erased_chip_survives(self):
        soft = spread_symbols([9]).astype(float)
        soft[13] = 0.0
        got = sdd_decode(soft)
        want_symbol, _ = brute_force_decision(soft)
        assert got.symbol == want_symbol == 9

    def test_equal_magnitudes_degenerate_to_hdd(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            sliced = (rng.integers(0, 2, size=32) * 2 - 1).astype(np.int8)
            assert sdd_decode(sliced.astype(float)).symbol == hdd_decode(sliced).symbol

    def test_matches_brute_force_on_soft_vectors(self):
        rng = np.random.default_rng(54)
        for _ in range(300):
            soft = rng.normal(size=32) * float(10.0 ** rng.uniform(-1, 2))
            got = sdd_decode(soft)
            want_symbol, want_corr = brute_force_decision(soft)
            assert got.symbol == want_symbol
            assert got.correlation == pytest.approx(want_corr)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            sdd_decode(np.zeros(30))


class TestDecide:
    def test_clean_chips_round_trip(self):
        rng = np.random.default_rng(55)
        symbols = rng.integers(0, 16, size=16)
        chips = spread_symbols(symbols)
        for coding in ("hdd", "sdd"):
            sliced, decided, corr = decide(chips, coding)
            assert np.array_equal(sliced, chips)
            assert np.array_equal(decided, symbols)
            assert corr.shape == (16, 16)
            assert np.array_equal(corr[np.arange(16), symbols], np.full(16, 32.0))

    def test_correlation_tie_goes_to_lowest_symbol(self):
        # blocks halfway between codewords 0 and 1 correlate equally with
        # both, and more strongly than with any other codeword
        a, b = spread_symbols([0]), spread_symbols([1])
        differ = np.flatnonzero(a != b)
        hard = a.copy()
        hard[differ[::2]] = b[differ[::2]]
        for coding, values in (("hdd", hard), ("sdd", np.where(a == b, a, 0.0))):
            _, symbols, corr = decide(values, coding)
            assert corr[0, 0] == corr[0, 1] > np.max(corr[0, 2:])
            assert symbols.tolist() == [0]

    def test_batch_equals_single_rows(self):
        rng = np.random.default_rng(62)
        soft = rng.normal(size=(7, 4 * 32))
        for coding in ("uncoded", "hdd", "sdd"):
            sliced, symbols, corr = decide(soft, coding)
            for p in range(len(soft)):
                row = decide(soft[p], coding)
                assert np.array_equal(sliced[p], row[0])
                if coding != "uncoded":
                    assert np.array_equal(symbols[p], row[1])
                    assert np.allclose(corr[p], row[2], rtol=1e-14, atol=0)

    def test_rejects_partial_blocks(self):
        with pytest.raises(ValueError):
            decide(np.ones(33), "hdd")
        with pytest.raises(ValueError):
            decide(np.ones(32), "turbo")


class TestDecodePacket:
    def test_clean_channel_every_coding(self):
        rng = np.random.default_rng(56)
        for coding, payload_coding in (("uncoded", "uncoded"), ("hdd", "coded"),
                                       ("sdd", "coded")):
            soi, _ = make_payload("independent", payload_coding, 64, rng)
            sc = Scenario(1.0, soi)
            res = decode_packet(sc, coding)
            assert res.packet_ok and res.bit_errors == 0
            if coding != "uncoded":
                assert res.symbol_errors == 0 and res.n_symbols == 16

    def test_constructive_identical_collision(self):
        rng = np.random.default_rng(57)
        soi, interferer = make_payload("identical", "uncoded", 64, rng)
        u = InterfererParams(10.0, 0.0, 0.0, interferer)
        res = decode_packet(Scenario(1.0, soi, (u,)), "uncoded")
        assert res.packet_ok and res.bit_errors == 0

    def test_strong_interferer_captured_with_sdd(self):
        # 1 % amplitude of the interferer: its packet decodes error-free at
        # zero offsets even though the receiver stays on the weak sender's grid
        rng = np.random.default_rng(58)
        soi, interferer = make_payload("independent", "coded", 64, rng)
        u = InterfererParams(100.0, 0.0, 0.0, interferer)
        res = decode_packet(Scenario(1.0, soi, (u,)), "sdd", target="interferer")
        assert res.packet_ok and res.symbol_errors == 0

    def test_amplitude_scaling_leaves_decisions_unchanged(self):
        rng = np.random.default_rng(59)
        soi, interferer = make_payload("independent", "coded", 64, rng)
        for scale in (0.01, 1.0, 7.3):
            u = InterfererParams(2.0 * scale, 0.31, 1.2, interferer)
            res = decode_packet(Scenario(1.0 * scale, soi, (u,)), "sdd")
            base_u = InterfererParams(2.0, 0.31, 1.2, interferer)
            base = decode_packet(Scenario(1.0, soi, (base_u,)), "sdd")
            assert np.array_equal(res.decided_symbols, base.decided_symbols)
            assert np.array_equal(res.decided_bits, base.decided_bits)

    def test_interferer_index_out_of_range(self):
        rng = np.random.default_rng(60)
        soi, interferer = make_payload("independent", "uncoded", 64, rng)
        u = InterfererParams(1.0, 0.0, 0.0, interferer)
        sc = Scenario(1.0, soi, (u,))
        with pytest.raises(IndexError):
            decode_packet(sc, "uncoded", target="interferer", interferer_index=1)

    def test_all_bits_flipped_still_decodes_coded(self):
        # carrier phase of pi inverts every chip; absolute correlation
        # recovers the symbols, while the uncoded path loses every bit
        rng = np.random.default_rng(61)
        soi, interferer = make_payload("identical", "coded", 64, rng)
        u = InterfererParams(100.0, 0.0, math.pi, interferer)
        sc = Scenario(1.0, soi, (u,))
        hard = decode_packet(sc, "hdd")
        assert hard.packet_ok and hard.bit_errors == hard.n_bits
        uncoded = decode_packet(sc, "uncoded")
        assert not uncoded.packet_ok
