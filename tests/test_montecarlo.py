"""Experiment engine: determinism, statistics, and agreement with per-bit
scalar and brute-force references."""

import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mskcollide import (ConfigError, ExperimentConfig, InterfererParams, MetricPoint,
                        capture_zone, decide, grid, interference_contribution,
                        montecarlo, n_interferer_experiment, run_point, sweep)
from mskcollide.montecarlo import (MAX_GRID_POINTS, MAX_POINT_VALUES, _compute_soft,
                                   _draw_point, _evaluate, _point_amplitudes,
                                   _point_stats, _prr_stats, split_amplitudes)
from mskcollide.presets import PRESETS, ZONE_PRESETS
from test_receiver import brute_force_decision
from thresholds import threshold_extract


def small_cfg(**kw):
    base = dict(packets_per_point=200, payload_bits=32,
                tau_grid=(0.0,), sir_db_grid=(0.0,), master_seed=99)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validate_catches_bad_fields(self):
        # a config checks itself when built, and replace() builds a new one
        with pytest.raises(ConfigError):
            small_cfg(packets_per_point=0)
        with pytest.raises(ConfigError):
            small_cfg(coding="turbo")
        with pytest.raises(ConfigError):
            small_cfg(coding="hdd", payload_bits=30)
        with pytest.raises(ConfigError):
            sweep(small_cfg(tau_grid=()))
        with pytest.raises(ConfigError):
            small_cfg(sir_db_grid=(0.0,) * (MAX_GRID_POINTS + 1))
        # the length bound holds before a grid is read: at most one value past it
        with pytest.raises(ConfigError):
            small_cfg(tau_grid=range(10**18))
        with pytest.raises(ConfigError):
            small_cfg(target="interferer", n_interferers=0)
        with pytest.raises(ConfigError):
            replace(small_cfg(), noise_std=-1.0)
        # a grid that is not a sequence is a bad field like any other
        for fields in ({"tau_grid": 5}, {"sir_db_grid": None}):
            with pytest.raises(ConfigError):
                small_cfg(**fields)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tau_grid": 5})
        # an integer too large for a float is a bad value, not an OverflowError
        for fields in ({"tau_grid": (0.0, 10**400)}, {"sir_db_grid": (10**400,)},
                       {"phi_c": 10**400}, {"noise_std": 10**400}):
            with pytest.raises(ConfigError):
                small_cfg(**fields)
            with pytest.raises(ConfigError):
                replace(small_cfg(), **fields)
        # the seed is one 64-bit word: two seeds never share a stream
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError):
                small_cfg(master_seed=seed)
        assert small_cfg(master_seed=2**64 - 1).master_seed == 2**64 - 1
        # the per-point ceiling counts packets x chips x senders
        at_cap = small_cfg(packets_per_point=MAX_POINT_VALUES // (32 * 2))
        for fields in ({"packets_per_point": at_cap.packets_per_point + 1},
                       {"n_interferers": 2}, {"coding": "hdd"}):
            with pytest.raises(ConfigError):
                replace(at_cap, **fields)

    def test_dict_round_trip(self):
        cfg = small_cfg(coding="sdd", payload_mode="identical")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        # numpy scalars are stored as the Python numbers that the point key
        # and the JSON manifest take
        np_cfg = small_cfg(packets_per_point=np.int64(200), master_seed=np.uint64(99),
                           phi_c=np.float32(0.5), tau_grid=np.zeros(1))
        assert ExperimentConfig.from_dict(json.loads(json.dumps(np_cfg.to_dict()))) == np_cfg
        assert run_point(np_cfg, 0.0, 0.0) == run_point(small_cfg(phi_c=0.5), 0.0, 0.0)

    def test_from_dict_rejects_unknown_keys(self):
        # phi_mode and interferer_power_split were switches that phi_c and
        # n_interferers imply: a config naming them is refused, not dropped
        for data in ({"bogus": 1}, {"phi_mode": "fixed"}, {"interferer_power_split": "single"}):
            with pytest.raises(ConfigError, match="unknown config fields"):
                ExperimentConfig.from_dict(data)

    def test_phi_c_sets_the_phase(self):
        # None draws each packet's phase uniformly; a number fixes every one
        _, phi, _ = _draw_point(small_cfg(), 0.0, (1.0, 1.0))
        assert small_cfg().phi_c is None and len(np.unique(phi)) == phi.size
        assert ((0.0 <= phi) & (phi < 2 * math.pi)).all()
        _, phi, _ = _draw_point(small_cfg(phi_c=1.1), 0.0, (1.0, 1.0))
        assert (phi == 1.1).all()
        for value in (True, "1.1", math.nan):
            with pytest.raises(ConfigError, match="phi_c"):
                small_cfg(phi_c=value)

    def test_grid_helper(self):
        assert grid(-1.0, 1.0, 0.5) == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert grid(0.0, 0.3, 0.1) == (0.0, 0.1, 0.2, 0.3)
        with pytest.raises(ConfigError):
            grid(0.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            grid(0.0, 10**400, 1.0)
        # bounds are numbers, as grid values in a config are
        for bounds in (("0", 1, 1), (False, True, True)):
            with pytest.raises(ConfigError):
                grid(*bounds)
        assert len(grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(ConfigError):
            grid(0.0, float(MAX_GRID_POINTS), 1.0)

    def test_amplitude_mappings(self):
        assert _point_amplitudes(small_cfg(), -40.0) == pytest.approx((100.0,))
        assert _point_amplitudes(small_cfg(), 20.0) == pytest.approx((0.1,))
        assert split_amplitudes(2.0, 4) == pytest.approx(tuple([math.sqrt(0.5)] * 4))
        # one interferer takes the whole power, bit for bit
        assert split_amplitudes(2.0, 1) == (math.sqrt(2.0),)
        assert split_amplitudes(1.0, 0) == ()


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
        cfg = small_cfg(n_interferers=0)
        p = run_point(cfg, 0.0, 0.0)
        assert p.prr_mean == 1.0 and _point_amplitudes(cfg, 0.0) == ()

    def test_identical_fully_synchronized_is_error_free(self):
        cfg = small_cfg(payload_mode="identical", phi_c=0.0,
                        packets_per_point=500)
        for sir in (-40.0, -20.0, 0.0, 20.0):
            p = run_point(cfg, 0.0, sir)
            assert p.prr_mean == 1.0 and p.ber == 0.0

    @pytest.mark.parametrize("tau, sir_db", [
        (math.nan, 0.0), (math.inf, 0.0), ("0.5", 0.0), (0.0, "3"), (True, 0.0), (0.0, True)],
        ids=["tau-nan", "tau-inf", "tau-str", "sir-str", "tau-bool", "sir-bool"])
    def test_bad_tau_or_sir_is_config_error(self, tau, sir_db):
        with pytest.raises(ConfigError):
            run_point(small_cfg(), tau, sir_db)

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
        cfg = small_cfg(packets_per_point=2000)
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
            u = InterfererParams(amp, tau, float(phi[p, 0]), beta[p])
            for j in range(n_bits):
                want = chips[p, j] + interference_contribution(u, j // 2, "IQ"[j % 2])
                assert soft[p, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("coding", ["uncoded", "hdd", "sdd"])
    def test_batch_decisions_match_decode_packet(self, coding):
        packets, tau, amp, phi = 40, 0.37, 5.0, 1.234
        cfg = small_cfg(coding=coding, packets_per_point=packets, payload_bits=32,
                        phi_c=phi)
        prr, _, ber, ser = _point_stats(cfg, tau, (amp,))
        # the point's draws, every packet decided and counted by hand
        ((soi_symbols, soi_chips), (_, beta_chips)), phis, noise = _draw_point(
            cfg, tau, (amp,))
        assert noise is None and np.all(phis == phi)
        soft = _compute_soft(soi_chips, [beta_chips], (amp,), tau, phis)
        sliced = np.where(soft >= 0, 1, -1)
        _, batch_symbols, _ = decide(soft, coding)
        received = bit_errors = symbol_errors = 0
        for p in range(packets):
            packet_bit_errors = int(np.count_nonzero(sliced[p] != soi_chips[p]))
            bit_errors += packet_bit_errors
            if coding == "uncoded":
                received += packet_bit_errors == 0
                continue
            values = sliced[p] if coding == "hdd" else soft[p]
            symbols = [brute_force_decision(block)[0]
                       for block in values.reshape(-1, 32)]
            assert symbols == batch_symbols[p].tolist()
            packet_symbol_errors = int(np.count_nonzero(symbols != soi_symbols[p]))
            received += packet_symbol_errors == 0
            symbol_errors += packet_symbol_errors
        n_chips = soi_chips.shape[1]
        assert prr == received / packets
        assert ber == bit_errors / (packets * n_chips)
        assert ser == (0.0 if coding == "uncoded" else symbol_errors / (packets * n_chips // 32))
        assert 0 < bit_errors < packets * n_chips


class TestSlabs:
    """A point evaluates its whole draws in slabs of packets; the slab size
    must not reach the results."""

    @pytest.mark.parametrize("fields, sir_db", [
        ({"coding": "uncoded", "noise_std": 0.4}, -3.0),
        ({"coding": "hdd", "phi_c": 1.1}, -6.0),
        ({"coding": "sdd", "payload_mode": "identical"}, -9.0),
        ({"coding": "sdd", "target": "interferer"}, -2.0),
        ({"coding": "hdd", "n_interferers": 0, "noise_std": 0.9}, 0.0),
        ({"coding": "sdd", "n_interferers": 2, "noise_std": 0.3}, -3.0),
    ], ids=["uncoded-noise", "hdd-fixed-phi", "sdd-identical", "sdd-interferer",
            "hdd-no-interferer", "sdd-two-interferers"])
    def test_run_point_independent_of_slab_size(self, monkeypatch, fields, sir_db):
        cfg = small_cfg(packets_per_point=37, payload_bits=8, **fields)
        n_chips = 8 * 8 if cfg.coding != "uncoded" else 8
        # one packet a slab, five (the last slab holds two) and the whole point
        points = []
        for slab_values in (1, 5 * n_chips + 3, 2**30):
            monkeypatch.setattr(montecarlo, "SLAB_VALUES", slab_values)
            points.append(run_point(cfg, 0.37, sir_db))
        assert points[0] == points[1] == points[2]
        assert 0.0 < points[0].ber < 1.0

    @pytest.mark.parametrize("coding", ["hdd", "sdd"])
    def test_slabs_match_whole_batch_reference(self, coding):
        # 300 packets of 512 chips: two full slabs and a partial one
        packets, n_bits, tau, amps = 300, 64, 0.37, (1.3,)
        cfg = small_cfg(coding=coding, packets_per_point=packets, payload_bits=n_bits,
                        noise_std=0.5)
        draws = _draw_point(cfg, tau, amps)
        slabs = list(_evaluate(coding, tau, amps, draws))
        assert [(rows.start, rows.stop) for rows, *_ in slabs] == [
            (0, 128), (128, 256), (256, 300)]
        # the same draws evaluated whole: one _compute_soft and one decide
        ((soi_symbols, soi_chips), (_, beta_chips)), phi, noise = draws
        whole = decide(_compute_soft(soi_chips, [beta_chips], amps, tau, phi, noise), coding)
        for parts, want in zip(zip(*(slab[1:] for slab in slabs)), whole):
            got = np.concatenate(parts)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()  # sliced, symbols, correlations
        assert 0 < (whole[1] == soi_symbols).all(axis=1).sum() < packets

    def test_near_ties_match_each_packet_alone(self):
        # the fig11c cell (tau = 1.0T, phi = 3pi/2 of 64 phases) holds
        # thousands of blocks whose top two correlations differ by at most
        # 1e-15 relative, so a block's correlation bits must not depend on
        # the slab it is decided in
        cfg = replace(ZONE_PRESETS["fig11c"], phi_c=48 * 2.0 * math.pi / 64)
        tau, amps = 1.0, _point_amplitudes(cfg, cfg.sir_db_grid[0])
        draws = _draw_point(cfg, tau, amps)
        ((_, soi_chips), (_, beta_chips)), phi, _ = draws
        ties = 0
        for rows, _, symbols, corr in _evaluate(cfg.coding, tau, amps, draws):
            top_two = np.sort(corr, axis=-1)[..., -2:]
            ties += np.count_nonzero(top_two[..., 1] - top_two[..., 0]
                                     <= 1e-15 * top_two[..., 1])
            for p in range(rows.start, rows.stop):
                soft = _compute_soft(soi_chips[p:p + 1], [beta_chips[p:p + 1]], amps,
                                     tau, phi[p:p + 1])
                _, alone_symbols, alone_corr = decide(soft[0], cfg.coding)
                assert alone_symbols.tobytes() == symbols[p - rows.start].tobytes()
                assert alone_corr.tobytes() == corr[p - rows.start].tobytes()
        assert ties > 4000


class TestIndependentChecks:
    """The engine against facts of the model that need no second copy of
    its kernel: superposition of identical payloads, and the error rate of
    noise alone."""

    @pytest.mark.parametrize("tau", [0.0, 0.3, -1.7, 2.45])
    def test_identical_interferers_equal_one_resultant(self, tau):
        # the contribution is linear in a e^{j phi}, so n interferers that
        # send one payload at one offset add up to a single interferer with
        # amplitude |sum a_i e^{j phi_i}| and phase arg(sum a_i e^{j phi_i})
        for n in range(2, 9):
            cfg = small_cfg(coding="sdd", payload_bits=64, payload_mode="identical",
                            n_interferers=n)
            amps = _point_amplitudes(cfg, -6.0)
            senders, phi, _ = _draw_point(cfg, tau, amps)
            soi_chips, beta_chips = senders[0][1], senders[1][1]
            soft = _compute_soft(soi_chips, [chips for _, chips in senders[1:]], amps,
                                 tau, phi)
            # a pattern table takes one amplitude: one call per packet
            resultant = (np.asarray(amps) * np.exp(1j * phi)).sum(axis=1)
            one = np.concatenate([
                _compute_soft(soi_chips[p:p + 1], [beta_chips[p:p + 1]], (abs(r),), tau,
                              np.array([[np.angle(r) % (2 * math.pi)]]))
                for p, r in enumerate(resultant)])
            assert np.all(np.abs(soft - one) <= 1e-13 * (1 + np.abs(soft)))
            _, symbols, corr = decide(soft, "sdd")
            _, one_symbols, _ = decide(one, "sdd")
            top_two = np.sort(corr, axis=-1)[..., -2:]
            decided = top_two[..., 1] - top_two[..., 0] > 1e-12
            assert np.array_equal(symbols[decided], one_symbols[decided])

    @pytest.mark.parametrize("coding, payload_bits", [("uncoded", 63), ("sdd", 64)])
    @pytest.mark.parametrize("sigma", [0.5, 0.8, 1.2])
    def test_noise_alone_chip_errors_match_q_function(self, coding, payload_bits, sigma):
        # with no interferer a chip is wrong when its Gaussian noise exceeds
        # the unit bit: Q(1/sigma) per chip, independently (an odd uncoded
        # payload also checks the in-phase/quadrature noise split)
        packets = 5000
        cfg = small_cfg(coding=coding, payload_bits=payload_bits, n_interferers=0,
                        noise_std=sigma, packets_per_point=packets, master_seed=21)
        _, _, ber, _ = _point_stats(cfg, 0.0, ())
        chips = packets * payload_bits * (1 if coding == "uncoded" else 8)
        p = math.erfc(1.0 / (sigma * math.sqrt(2.0))) / 2.0
        assert abs(ber - p) <= 4 * math.sqrt(p * (1 - p) / chips)


class TestFreedHeap:
    """Importing montecarlo keeps freed heap, so a point reuses the pages
    the previous point freed instead of faulting fresh ones in."""

    @pytest.mark.skipif(platform.system() != "Linux"
                        or platform.libc_ver()[0] != "glibc",
                        reason="mallopt thresholds are glibc's")
    def test_repeated_coded_point_faults_no_pages(self):
        import resource
        cfg = PRESETS["fig5c"]
        run_point(cfg, 0.5, -10.0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_point(cfg, 0.5, -10.0)
        # about 850-1,400 when glibc trims the heap after every slab
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def _worker_pids() -> set:
    return {p.pid for p in multiprocessing.active_children()}


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestKeptPool:
    """Pooled calls share one worker pool, replaced on a new worker count,
    whose workers end with the process."""

    def test_worker_counts_change_pool_not_results(self):
        cfg = small_cfg(packets_per_point=20, tau_grid=(0.0, 0.5, 1.0),
                        sir_db_grid=(-3.0, 0.0))
        zone_cfg = replace(cfg, target="interferer", sir_db_grid=(-40.0,))
        calls = [lambda t: sweep(cfg, threads=t),
                 lambda t: capture_zone(zone_cfg, 2, threads=t),
                 lambda t: n_interferer_experiment(cfg, max_n=1, threads=t)]
        serial = [call(1) for call in calls]
        replaced = set()
        for threads in (2, 3, 2):
            pids = None
            for call, expected in zip(calls, serial):
                assert call(threads) == expected
                if pids is None:
                    pids = _worker_pids()
                assert _worker_pids() == pids  # one pool serves every call
            assert len(pids) == threads
            assert all(map(_gone, replaced))
            replaced = pids

    @pytest.mark.parametrize("threads", [2.5, 1.5, True])
    def test_bad_thread_count_starts_no_pool(self, monkeypatch, threads):
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor",
                            lambda **kw: pytest.fail("a pool started"))
        with pytest.raises(ConfigError):
            sweep(small_cfg(tau_grid=(0.0, 0.5, 1.0)), threads=threads)

    def test_workers_end_with_their_parent(self):
        script = ("import multiprocessing\n"
                  "from mskcollide import ExperimentConfig, sweep\n"
                  "sweep(ExperimentConfig(packets_per_point=10, tau_grid=(0.0, 0.5),\n"
                  "                       sir_db_grid=(0.0,)), threads=2)\n"
                  "print(*(p.pid for p in multiprocessing.active_children()))\n")
        src = str(Path(montecarlo.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        assert all(map(_gone, pids))


class TestStats:
    def test_prr_std_zero_when_constant(self):
        mean, std = _prr_stats(np.ones(1000, dtype=bool))
        assert mean == 1.0 and std == 0.0

    def test_prr_std_matches_manual_batching(self):
        # bit for bit against the per-batch means of np.array_split
        rng = np.random.default_rng(71)
        for packets in [*range(1, 60), 999, 1000, 1001, 10_000, 12_345]:
            for prr in (0.0, 0.01, 0.3, 0.5, 0.8, 0.99, 1.0):
                ok = rng.random(packets) < prr
                batches = np.array_split(ok, min(10, packets))
                want = (np.std([float(np.mean(b)) for b in batches], ddof=1)
                        if len(batches) > 1 else 0.0)
                got = np.array(_prr_stats(ok))
                np.testing.assert_array_equal(
                    got.view(np.int64), np.array([np.mean(ok), want]).view(np.int64))

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
        cfg = small_cfg(target="interferer", coding="uncoded", packets_per_point=100,
                        tau_grid=(0.0, 0.5), sir_db_grid=(-40.0,))
        cells = capture_zone(cfg, 2)
        assert len(cells) == 4
        assert {(c.tau, round(c.phi_c, 6)) for c in cells} == {
            (0.0, 0.0), (0.0, round(math.pi, 6)), (0.5, 0.0), (0.5, round(math.pi, 6))}
        center = [c for c in cells if c.tau == 0.0 and c.phi_c == 0.0][0]
        assert center.error_rate == 0.0

    def test_zone_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            capture_zone(small_cfg(tau_grid=()), 4)

    @pytest.mark.parametrize("fields, phi_points", [
        ({"sir_db_grid": (-40.0, -30.0)}, 4), ({}, 0), ({}, MAX_GRID_POINTS + 1),
        ({}, 2.5), ({}, True)],
        ids=["two-sirs", "phi-points-zero", "phi-points-oversize", "phi-points-float",
             "phi-points-bool"])
    def test_zone_rejects_bad_sir_or_phase_count(self, fields, phi_points):
        with pytest.raises(ConfigError):
            capture_zone(small_cfg(**fields), phi_points)

    def test_ninterf_checks_largest_point_before_any_task(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "MAX_POINT_VALUES", 200 * 32 * 2)
        monkeypatch.setattr(montecarlo, "_map_points",
                            lambda *args: pytest.fail("points ran"))
        with pytest.raises(ConfigError):
            n_interferer_experiment(small_cfg(), max_n=2)

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
