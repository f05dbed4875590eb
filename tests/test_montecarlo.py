"""Experiment engine: determinism, statistics, and agreement with per-bit
scalar and brute-force references."""

import math

import numpy as np
import pytest

from mskcollide import (BIPOLAR_CHIP_TABLE, ConfigError, ExperimentConfig,
                        InterfererParams, MetricPoint, capture_zone, decide,
                        grid, interference_contribution, multiplex_bits,
                        n_interferer_experiment, run_point, sweep)
from mskcollide.montecarlo import (MAX_GRID_POINTS, _compute_soft,
                                   _point_amplitudes, _point_rng, _prr_stats,
                                   _simulate_batch, split_amplitudes,
                                   threshold_extract)
from test_receiver import brute_force_decision


def small_cfg(**kw):
    base = dict(packets_per_point=200, payload_bits=32,
                tau_grid=(0.0,), sir_db_grid=(0.0,), master_seed=99)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validate_catches_bad_fields(self):
        with pytest.raises(ConfigError):
            small_cfg(packets_per_point=0).validate()
        with pytest.raises(ConfigError):
            small_cfg(coding="turbo").validate()
        with pytest.raises(ConfigError):
            small_cfg(coding="hdd", payload_bits=30).validate()
        with pytest.raises(ConfigError):
            sweep(small_cfg(tau_grid=()))
        with pytest.raises(ConfigError):
            small_cfg(sir_db_grid=(0.0,) * (MAX_GRID_POINTS + 1)).validate()
        with pytest.raises(ConfigError):
            small_cfg(target="interferer", n_interferers=0).validate()

    def test_dict_round_trip(self):
        cfg = small_cfg(coding="sdd", payload_mode="identical")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_grid_helper(self):
        assert grid(-1.0, 1.0, 0.5) == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert grid(0.0, 0.3, 0.1) == (0.0, 0.1, 0.2, 0.3)
        with pytest.raises(ConfigError):
            grid(0.0, 1.0, 0.0)
        assert len(grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(ConfigError):
            grid(0.0, float(MAX_GRID_POINTS), 1.0)

    def test_amplitude_mappings(self):
        assert _point_amplitudes(small_cfg(), -40.0) == pytest.approx((100.0,))
        assert _point_amplitudes(small_cfg(), 20.0) == pytest.approx((0.1,))
        assert split_amplitudes(2.0, 4, "equal_split") == pytest.approx(
            tuple([math.sqrt(0.5)] * 4))
        assert split_amplitudes(2.0, 4, "single") == pytest.approx((math.sqrt(2.0),))
        assert split_amplitudes(1.0, 0, "single") == ()


class TestDeterminism:
    def test_run_point_reproducible(self):
        cfg = small_cfg(coding="sdd")
        assert run_point(cfg, 0.3, -5.0) == run_point(cfg, 0.3, -5.0)

    def test_point_independent_of_grid_shape(self):
        # the same physical point gives identical results whatever grid it
        # sits in, so evaluation order cannot matter
        cfg_a = small_cfg(tau_grid=(0.0, 0.5), sir_db_grid=(-10.0, 0.0))
        cfg_b = small_cfg(tau_grid=(0.5,), sir_db_grid=(-10.0,))
        pts_a = {(p.tau, p.sir_db): p for p in sweep(cfg_a)}
        pts_b = sweep(cfg_b)
        assert pts_a[(0.5, -10.0)] == pts_b[0]

    def test_seed_changes_results(self):
        cfg_a = small_cfg(master_seed=1)
        cfg_b = small_cfg(master_seed=2)
        assert run_point(cfg_a, 0.0, -20.0) != run_point(cfg_b, 0.0, -20.0)

    def test_parallel_sweep_matches_serial(self):
        cfg = small_cfg(tau_grid=(0.0, 0.3, 0.6), sir_db_grid=(-5.0, 0.0, 5.0))
        assert sweep(cfg, threads=2) == sweep(cfg, threads=1)


class TestRunPoint:
    def test_strong_soi_always_received(self):
        p = run_point(small_cfg(packets_per_point=1000), 0.7, 20.0)
        assert p.prr_mean == 1.0 and p.ber == 0.0

    def test_degenerate_no_interferers(self):
        p = run_point(small_cfg(n_interferers=0), 0.0, 0.0)
        assert p.prr_mean == 1.0 and p.n == 0

    def test_identical_fully_synchronized_is_error_free(self):
        cfg = small_cfg(payload_mode="identical", phi_mode="fixed", phi_c=0.0,
                        packets_per_point=500)
        for sir in (-40.0, -20.0, 0.0, 20.0):
            p = run_point(cfg, 0.0, sir)
            assert p.prr_mean == 1.0 and p.ber == 0.0

    def test_rates_within_bounds(self):
        for coding in ("uncoded", "hdd", "sdd"):
            p = run_point(small_cfg(coding=coding), 0.4, -10.0)
            assert 0.0 <= p.prr_mean <= 1.0
            assert 0.0 <= p.ber <= 1.0
            assert 0.0 <= p.ser <= 1.0
            assert p.prr_std >= 0.0

    def test_monotone_capture_in_sir(self):
        cfg = small_cfg(packets_per_point=1000, payload_bits=64)
        prrs = [run_point(cfg, 0.2, s).prr_mean for s in grid(-6.0, 6.0, 1.0)]
        for lo, hi in zip(prrs[:-1], prrs[1:]):
            sigma = math.sqrt(max(lo * (1 - lo), 0.25 / 1000) / 1000)
            assert hi >= lo - 2 * sigma

    def test_phase_sign_symmetry_within_noise(self):
        cfg = small_cfg(packets_per_point=2000, phi_mode="fixed")
        for phi in (0.7, 2.0):
            a = run_point(ExperimentConfig(**{**cfg.to_dict(), "phi_c": phi}), 0.0, -15.0)
            b = run_point(ExperimentConfig(**{**cfg.to_dict(), "phi_c": 2 * math.pi - phi}), 0.0, -15.0)
            sigma = math.sqrt(max(a.prr_mean * (1 - a.prr_mean), 0.01) / 2000)
            assert abs(a.prr_mean - b.prr_mean) <= 4 * sigma


class TestEngineMatchesLibraryPath:
    """The engine against references that share neither its batch kernel
    call nor its decision layer."""

    def test_soft_matrices_match_packet_soft_bits(self):
        # every soft value is the synchronized bit plus the one-row
        # contribution of the interferer at that bit
        rng = np.random.default_rng(70)
        packets, n_bits = 5, 32
        chips = (rng.integers(0, 2, size=(packets, n_bits)) * 2 - 1).astype(np.int8)
        beta = (rng.integers(0, 2, size=(packets, n_bits)) * 2 - 1).astype(np.int8)
        phi = rng.uniform(0, 2 * math.pi, size=(packets, 1))
        amp, tau = 3.7, -0.43
        soft = _compute_soft(chips, [beta], (amp,), tau, phi)
        for p in range(packets):
            u = InterfererParams(amp, tau, float(phi[p, 0]), multiplex_bits(beta[p]))
            for j in range(n_bits):
                want = chips[p, j] + interference_contribution(u, j // 2, "IQ"[j % 2])
                assert soft[p, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("coding", ["uncoded", "hdd", "sdd"])
    def test_batch_decisions_match_decode_packet(self, coding):
        packets, tau, amp, phi = 40, 0.37, 5.0, 1.234
        cfg = small_cfg(coding=coding, packets_per_point=packets, payload_bits=32,
                        phi_mode="fixed", phi_c=phi)
        stats = _simulate_batch(cfg, tau, (amp,))
        # replay the point's draws and decide every packet by hand
        rng = _point_rng(cfg.master_seed, tau, (amp,), cfg.phi_mode, phi,
                         cfg.payload_mode, cfg.coding, cfg.target, packets,
                         cfg.payload_bits, float(cfg.noise_std))
        if coding == "uncoded":
            soi_chips = rng.integers(0, 2, size=(packets, 32), dtype=np.int8) * 2 - 1
            beta_chips = rng.integers(0, 2, size=(packets, 32), dtype=np.int8) * 2 - 1
        else:
            soi_symbols = rng.integers(0, 16, size=(packets, 8))
            soi_chips = BIPOLAR_CHIP_TABLE[soi_symbols].reshape(packets, 256)
            beta_chips = BIPOLAR_CHIP_TABLE[rng.integers(0, 16, size=(packets, 8))]
            beta_chips = beta_chips.reshape(packets, 256)
        soft = _compute_soft(soi_chips, [beta_chips], (amp,), tau,
                             np.full((packets, 1), phi))
        sliced = np.where(soft >= 0, 1, -1)
        _, batch_symbols, _ = decide(soft, coding)
        bit_errors = symbol_errors = 0
        for p in range(packets):
            packet_bit_errors = int(np.count_nonzero(sliced[p] != soi_chips[p]))
            bit_errors += packet_bit_errors
            if coding == "uncoded":
                assert (packet_bit_errors == 0) == bool(stats.ok[p])
                continue
            values = sliced[p] if coding == "hdd" else soft[p]
            symbols = [brute_force_decision(block)[0]
                       for block in values.reshape(-1, 32)]
            assert symbols == batch_symbols[p].tolist()
            packet_symbol_errors = int(np.count_nonzero(symbols != soi_symbols[p]))
            assert (packet_symbol_errors == 0) == bool(stats.ok[p])
            symbol_errors += packet_symbol_errors
        assert (stats.bit_errors, stats.symbol_errors) == (bit_errors, symbol_errors)
        assert 0 < stats.bit_errors < stats.total_bits


class TestStats:
    def test_prr_std_zero_when_constant(self):
        mean, std = _prr_stats(np.ones(1000, dtype=bool))
        assert mean == 1.0 and std == 0.0

    def test_prr_std_matches_manual_batching(self):
        rng = np.random.default_rng(71)
        ok = rng.random(1000) < 0.8
        mean, std = _prr_stats(ok)
        batches = np.array_split(ok, 10)
        want = np.std([b.mean() for b in batches], ddof=1)
        assert mean == pytest.approx(ok.mean())
        assert std == pytest.approx(want)

    def test_single_packet_point(self):
        p = run_point(small_cfg(packets_per_point=1), 0.0, 10.0)
        assert p.prr_std == 0.0 and p.packets == 1


class TestThresholdExtract:
    def test_interpolates_crossing(self):
        pts = [MetricPoint(0.0, s, prr, 0.0, 0.0, 0.0, 100)
               for s, prr in ((-2.0, 0.2), (-1.0, 0.8), (0.0, 0.9), (1.0, 1.0))]
        out = threshold_extract(pts, prr_threshold=0.9)
        assert len(out) == 1
        assert out[0].sir_db == pytest.approx(0.0)
        out = threshold_extract(pts, prr_threshold=0.85)
        assert out[0].sir_db == pytest.approx(-0.5)

    def test_absent_when_never_reached(self):
        pts = [MetricPoint(1.0, s, 0.5, 0.0, 0.0, 0.0, 100) for s in (-1.0, 0.0)]
        assert threshold_extract(pts)[0].sir_db is None

    def test_grid_edge_when_already_above(self):
        pts = [MetricPoint(0.0, s, 0.95, 0.0, 0.0, 0.0, 100) for s in (-5.0, 0.0)]
        assert threshold_extract(pts)[0].sir_db == -5.0


class TestZoneAndNInterferer:
    def test_zone_cells_cover_grid(self):
        cfg = small_cfg(target="interferer", coding="uncoded", packets_per_point=100)
        cells = capture_zone(cfg, -40.0, (0.0, 0.5), (0.0, math.pi))
        assert len(cells) == 4
        assert {(c.tau, round(c.phi_c, 6)) for c in cells} == {
            (0.0, 0.0), (0.0, round(math.pi, 6)), (0.5, 0.0), (0.5, round(math.pi, 6))}
        center = [c for c in cells if c.tau == 0.0 and c.phi_c == 0.0][0]
        assert center.error_rate == 0.0

    def test_zone_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            capture_zone(small_cfg(), -40.0, (), (0.0,))

    def test_n1_layouts_identical(self):
        cfg = small_cfg(coding="sdd", packets_per_point=400)
        rows = n_interferer_experiment(cfg, max_n=2)
        by_key = {(r.payload_mode, r.layout, r.n): r for r in rows}
        for mode in ("independent", "identical"):
            a = by_key[(mode, "single", 1)]
            b = by_key[(mode, "equal_split", 1)]
            assert a.prr_mean == b.prr_mean and a.prr_std == b.prr_std

    def test_payload_negation_leaves_errors_unchanged(self):
        rng = np.random.default_rng(72)
        bits = (rng.integers(0, 2, (1, 64)) * 2 - 1).astype(np.int8)
        other = (rng.integers(0, 2, (1, 64)) * 2 - 1).astype(np.int8)
        errors = []
        for sign in (1, -1):
            soft = _compute_soft(sign * bits, [sign * other], (30.0,), 0.21,
                                 np.full((1, 1), 2.9))
            errors.append(int(np.count_nonzero(decide(soft, "uncoded")[0] != sign * bits)))
        assert errors[0] == errors[1]
