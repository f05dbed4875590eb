"""Slicing, DSSS decoding (against brute-force references), and whole-packet
decoding through the Monte Carlo engine."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mskcollide import (BIPOLAR_CHIP_TABLE, ConfigError, ExperimentConfig,
                        decide, run_point)
from mskcollide.chipseq import CHIP_TABLE
from mskcollide.montecarlo import _compute_soft
from mskcollide.signal_model import draw_payloads


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
        sliced, symbols, corr = decide([0.0, -0.0, -2.0, np.nan, np.inf, -np.inf],
                                       "uncoded")
        assert sliced.tolist() == [1, 1, -1, -1, 1, -1] and sliced.dtype == np.int8
        assert symbols is None and corr is None


class TestHddDecode:
    """Hard decisions on single 32-chip blocks and batches of them."""

    def test_autocorrelation_peak(self):
        _, symbols, corr = decide(BIPOLAR_CHIP_TABLE[5], "hdd")
        assert symbols.tolist() == [5]
        assert corr[0, 5] == 32.0
        runner_up = np.sort(corr[0])[-2]
        assert corr[0, 5] - runner_up > 0

    def test_global_inversion_decodes_same_symbol(self):
        assert decide(-BIPOLAR_CHIP_TABLE[5], "hdd")[1].tolist() == [5]

    def test_inversion_symmetry_all_symbols(self):
        rng = np.random.default_rng(50)
        for xi in range(16):
            chips = BIPOLAR_CHIP_TABLE[xi]
            for _ in range(50):
                flips = rng.integers(0, 2, size=32) * -2 + 1
                noisy = chips * flips.astype(np.int8)
                symbols = decide(np.stack([noisy, -noisy]), "hdd")[1]
                assert symbols[0] == symbols[1]

    def test_matches_brute_force_over_flip_patterns(self):
        # all subsets of 10 fixed flip positions applied to codeword 5
        rng = np.random.default_rng(51)
        positions = rng.choice(32, size=10, replace=False)
        chips = np.tile(BIPOLAR_CHIP_TABLE[5].astype(np.int64), (1024, 1))
        for mask in range(1024):
            for j in range(10):
                if mask >> j & 1:
                    chips[mask, positions[j]] *= -1
        _, symbols, corr = decide(chips, "hdd")
        for mask in range(1024):
            want_symbol, want_corr = brute_force_decision(chips[mask])
            assert symbols[mask, 0] == want_symbol
            assert corr[mask, 0, want_symbol] == pytest.approx(want_corr)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decide(np.ones(31, dtype=int), "hdd")
        with pytest.raises(ValueError):
            decide(np.ones((3, 31), dtype=int), "hdd")


class TestSddDecode:
    """Soft decisions on single 32-value blocks."""

    def test_scale_invariance(self):
        chips = BIPOLAR_CHIP_TABLE[9].astype(float)
        assert decide(0.3 * chips, "sdd")[1].tolist() == [9]
        rng = np.random.default_rng(52)
        for _ in range(200):
            soft = rng.normal(size=32)
            scale = float(10.0 ** rng.uniform(-3, 3))
            assert decide(soft, "sdd")[1] == decide(scale * soft, "sdd")[1]

    def test_single_erased_chip_survives(self):
        soft = BIPOLAR_CHIP_TABLE[9].astype(float)
        soft[13] = 0.0
        want_symbol, _ = brute_force_decision(soft)
        assert decide(soft, "sdd")[1].tolist() == [want_symbol] == [9]

    def test_equal_magnitudes_degenerate_to_hdd(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            sliced = (rng.integers(0, 2, size=32) * 2 - 1).astype(np.int8)
            assert decide(sliced.astype(float), "sdd")[1] == decide(sliced, "hdd")[1]

    def test_matches_brute_force_on_soft_vectors(self):
        rng = np.random.default_rng(54)
        for _ in range(300):
            soft = rng.normal(size=32) * float(10.0 ** rng.uniform(-1, 2))
            _, symbols, corr = decide(soft, "sdd")
            want_symbol, want_corr = brute_force_decision(soft)
            assert symbols.tolist() == [want_symbol]
            assert corr[0, want_symbol] == pytest.approx(want_corr)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decide(np.zeros(30), "sdd")


class TestDecide:
    def test_clean_chips_round_trip(self):
        rng = np.random.default_rng(55)
        symbols = rng.integers(0, 16, size=16)
        chips = BIPOLAR_CHIP_TABLE[symbols].reshape(-1)
        for coding in ("hdd", "sdd"):
            sliced, decided, corr = decide(chips, coding)
            assert np.array_equal(sliced, chips)
            assert np.array_equal(decided, symbols)
            assert corr.shape == (16, 16)
            assert np.array_equal(corr[np.arange(16), symbols], np.full(16, 32.0))

    def test_correlation_tie_goes_to_lowest_symbol(self):
        # blocks halfway between codewords 0 and 1 correlate equally with
        # both, and more strongly than with any other codeword
        a, b = BIPOLAR_CHIP_TABLE[0], BIPOLAR_CHIP_TABLE[1]
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


def _fixed_phase_cfg(**kw):
    base = dict(packets_per_point=200, payload_bits=64, phi_mode="fixed",
                phi_c=0.0, master_seed=99)
    base.update(kw)
    return ExperimentConfig(**base)


class TestDecodePacket:
    """Whole packets decoded by the Monte Carlo engine at a fixed carrier
    phase."""

    def test_clean_channel_every_coding(self):
        for coding in ("uncoded", "hdd", "sdd"):
            p = run_point(_fixed_phase_cfg(coding=coding, n_interferers=0), 0.0, 0.0)
            assert (p.prr_mean, p.ber, p.ser, p.n) == (1.0, 0.0, 0.0, 0)

    def test_constructive_identical_collision(self):
        cfg = _fixed_phase_cfg(payload_mode="identical")
        p = run_point(cfg, 0.0, -20.0)
        assert p.prr_mean == 1.0 and p.ber == 0.0

    def test_strong_interferer_captured_with_sdd(self):
        # 1 % amplitude of the interferer: its packet decodes error-free at
        # zero offsets even though the receiver stays on the weak sender's grid
        cfg = _fixed_phase_cfg(coding="sdd", target="interferer")
        p = run_point(cfg, 0.0, -40.0)
        assert p.prr_mean == 1.0 and p.ser == 0.0

    def test_amplitude_scaling_leaves_decisions_unchanged(self):
        rng = np.random.default_rng(59)
        (_, soi), (_, interferer) = draw_payloads(rng, "independent", True, 64, 1, 20)
        phi = np.full((20, 1), 1.2)
        base = decide(_compute_soft(soi, [interferer], (2.0,), 0.31, phi), "sdd")
        for scale in (0.01, 1.0, 7.3):
            soft = _compute_soft(soi, [interferer], (2.0 * scale,), 0.31, phi,
                                 soi_amplitude=scale)
            sliced, symbols, _ = decide(soft, "sdd")
            assert np.array_equal(symbols, base[1])
            assert np.array_equal(sliced, base[0])

    def test_interferer_index_out_of_range(self):
        cfg = _fixed_phase_cfg(target="interferer", n_interferers=0)
        with pytest.raises(ConfigError):
            run_point(cfg, 0.0, 0.0)

    def test_all_bits_flipped_still_decodes_coded(self):
        # carrier phase of pi inverts every chip; absolute correlation
        # recovers the symbols, while the uncoded path loses every bit
        cfg = _fixed_phase_cfg(payload_mode="identical", phi_c=math.pi)
        hard = run_point(replace(cfg, coding="hdd"), 0.0, -40.0)
        assert hard.prr_mean == 1.0 and hard.ber == 1.0
        assert run_point(cfg, 0.0, -40.0).prr_mean == 0.0
