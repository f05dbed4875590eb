"""Acceptance gate: one test per quantitative exit criterion.

Each test prints a `[criterion NN] PASS/FAIL` line (run with
`pytest tests/test_acceptance.py -v -s` to see them live) and then asserts.
Monte Carlo criteria run at the preset grids with the default master seed;
point criteria use 10,000 packets per point so the estimates sit well inside
the binomial noise, grid criteria use the stated 1,000 packets per point.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mskcollide import (BIPOLAR_CHIP_TABLE, InterfererParams, PRESETS,
                        ZONE_PRESETS, capture_zone, decide,
                        interference_contribution, n_interferer_experiment,
                        oracle_lambda_baseband, rect_integral,
                        rect_integral_quadrature, run_point, sweep)
from mskcollide.cli import main as cli_main
from thresholds import threshold_extract

RECT_KINDS = ("one", "cos2wp", "sin2wp")
THREADS = 2


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _random_interferer(rng, n_bits_half=8):
    bits = rng.integers(0, 2, size=2 * n_bits_half) * 2 - 1
    return InterfererParams(
        amplitude=float(10.0 ** rng.uniform(-2, 2)),
        tau=float(rng.uniform(-4.0, 4.0)),
        phi_c=float(rng.uniform(0.0, 2 * math.pi)),
        bits=bits,
    )


@pytest.fixture(scope="module")
def fig5a_points():
    return sweep(PRESETS["fig5a"], threads=THREADS)


@pytest.fixture(scope="module")
def fig5b_points():
    return sweep(PRESETS["fig5b"], threads=THREADS)


@pytest.fixture(scope="module")
def fig5c_points():
    return sweep(PRESETS["fig5c"], threads=THREADS)


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(20140901)
    draws = 10000
    worst_lambda = 0.0
    worst_rect = 0.0
    started = time.perf_counter()
    for _ in range(draws):
        u = _random_interferer(rng)
        k = int(rng.integers(0, 8))
        for branch in ("I", "Q"):
            closed = interference_contribution(u, k, branch)
            ref = oracle_lambda_baseband(u, k, branch)
            worst_lambda = max(worst_lambda,
                               abs(closed - ref) / (1.0 + abs(ref)))
        for kind in RECT_KINDS:
            for branch in ("I", "Q"):
                closed = rect_integral(kind, u, k, branch)
                ref = rect_integral_quadrature(kind, u, k, branch)
                worst_rect = max(worst_rect,
                                 abs(closed - ref) / (1.0 + abs(ref)))
    elapsed = time.perf_counter() - started
    ok = worst_lambda <= 1e-9 and worst_rect <= 1e-9 and elapsed < 60.0
    _report(1, "oracle equivalence",
            ok, f"max dev lambda={worst_lambda:.2e} rect={worst_rect:.2e} "
                f"({draws} draws in {elapsed:.1f}s)")
    assert worst_lambda <= 1e-9
    assert worst_rect <= 1e-9
    assert elapsed < 60.0


def test_criterion_02_reduction_identities():
    def bit(u, branch, m):
        # bit m of one branch in transmit order; 0 (silence) outside the payload
        n = 2 * m + (0 if branch == "I" else 1)
        return int(u.bits[n]) if 0 <= n < len(u.bits) else 0

    def phase_only(u, k):
        return u.amplitude * (math.cos(u.phi_c) * bit(u, "I", k)
                              - math.sin(u.phi_c) / math.pi
                              * (bit(u, "Q", k - 1) - bit(u, "Q", k)))

    def time_only(u, k):
        shift = math.floor(u.tau / 2.0)
        tau_rel = u.tau - 2.0 * shift
        prev, cur = bit(u, "I", k - shift - 1), bit(u, "I", k - shift)
        phi_p = math.pi * u.tau / 2.0
        return u.amplitude / 2.0 * (
            math.cos(phi_p) * (tau_rel * prev + (2.0 - tau_rel) * cur)
            - 2.0 / math.pi * math.sin(phi_p) * (prev - cur))

    rng = np.random.default_rng(20140902)
    worst = 0.0
    for _ in range(1000):
        u = _random_interferer(rng)
        k = int(rng.integers(0, 8))
        startpoints = (
            (InterfererParams(u.amplitude, 0.0, u.phi_c, u.bits), phase_only),
            (InterfererParams(u.amplitude, u.tau, 0.0, u.bits), time_only),
            (InterfererParams(u.amplitude, 0.0, 0.0, u.bits),
             lambda v, kk: v.amplitude * bit(v, "I", kk)),
        )
        for v, reference in startpoints:
            got = interference_contribution(v, k, "I")
            want = reference(v, k)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    ok = worst <= 1e-13
    _report(2, "reduction identities", ok, f"max scaled dev {worst:.2e}")
    assert ok


def test_criterion_03_uncoded_capture_threshold(fig5a_points):
    started = time.perf_counter()
    thresholds = threshold_extract(fig5a_points, prr_threshold=0.9)
    elapsed = time.perf_counter() - started
    values = {t.tau: t.sir_db for t in thresholds}
    bad = {tau: sir for tau, sir in values.items()
           if sir is None or not 1.0 <= sir <= 3.0}
    ok = not bad
    lo = min(v for v in values.values() if v is not None)
    hi = max(v for v in values.values() if v is not None)
    _report(3, "uncoded capture threshold", ok,
            f"threshold range [{lo:.2f}, {hi:.2f}] dB over tau in [-3T, 3T] "
            f"(extraction {elapsed:.2f}s)" + (f"; out of band: {bad}" if bad else ""))
    assert ok


def test_criterion_04_hdd_threshold_gap(fig5a_points, fig5b_points):
    unc = {t.tau: t.sir_db for t in threshold_extract(fig5a_points)}
    hdd = {t.tau: t.sir_db for t in threshold_extract(fig5b_points)}
    gaps = {tau: unc[tau] - hdd[tau] for tau in unc
            if unc[tau] is not None and hdd[tau] is not None}
    med = float(np.median(list(gaps.values())))
    worst_min = min(gaps.values())
    worst_max = max(gaps.values())
    # matched-tau comparison of the two nearly constant threshold curves:
    # the hard-decision curve sits 0.5-1.5 dB below and never above
    ok = 0.5 <= med <= 1.5 and worst_min > 0.0
    _report(4, "hdd threshold 0.5-1.5 dB below uncoded", ok,
            f"median gap {med:.2f} dB, per-tau range [{worst_min:.2f}, {worst_max:.2f}]")
    assert ok


def test_criterion_05_sdd_threshold_timing_sensitivity(fig5c_points):
    thr = {t.tau: t.sir_db for t in threshold_extract(fig5c_points)}
    window = {tau: sir for tau, sir in thr.items()
              if 0.0 <= tau <= 2.0 and sir is not None}
    swing = max(window.values()) - min(window.values())
    argmin = min(window, key=window.get)
    ok = 5.0 <= swing <= 9.0 and abs(argmin - 2.0) <= 0.3
    _report(5, "sdd threshold timing sensitivity", ok,
            f"swing {swing:.2f} dB over one 2T period, minimum at tau={argmin:.1f}T")
    assert 5.0 <= swing <= 9.0
    assert abs(argmin - 2.0) <= 0.3


def test_criterion_06_identical_payload_sdd_plateau():
    cfg = replace(PRESETS["fig8c"], packets_per_point=10000)
    surface = {(tau, sir): run_point(cfg, tau, sir).prr_mean
               for tau in cfg.tau_grid for sir in cfg.sir_db_grid}
    center = {sir: v for (tau, sir), v in surface.items() if tau == 0.0}
    center_ok = all(v >= 0.85 for v in center.values())
    rim_bad = {cell: round(v, 4) for cell, v in surface.items() if v < 0.80}
    rim_ok = not rim_bad
    ok = center_ok and rim_ok
    _report(6, "identical-payload sdd plateau", ok,
            f"tau=0 min PRR {min(center.values()):.3f} (>=0.85: {center_ok}); "
            f"|tau|<=0.3T min PRR {min(surface.values()):.3f} (>=0.80: {rim_ok})"
            + (f"; below 0.80 at {rim_bad}" if rim_bad else ""))
    assert center_ok
    assert rim_ok


def test_criterion_07_identical_uncoded_transitional():
    cfg = replace(PRESETS["fig6a"], packets_per_point=10000)
    prr = run_point(cfg, 0.0, -20.0).prr_mean
    ok = 0.15 <= prr <= 0.40
    _report(7, "identical-payload uncoded transitional PRR", ok,
            f"PRR {prr:.3f} at (tau=0, SIR=-20 dB)")
    assert ok


def test_criterion_08_identical_hdd_corridor():
    cfg = replace(PRESETS["fig6b"], packets_per_point=10000)
    prr = run_point(cfg, 0.0, -20.0).prr_mean
    ok = 0.55 <= prr <= 0.85
    _report(8, "identical-payload hdd corridor PRR", ok,
            f"PRR {prr:.3f} at (tau=0, SIR=-20 dB)")
    assert ok


def test_criterion_09_interferer_reception():
    cases = (("fig10a", 0.15, 0.35), ("fig10b", 0.50, 0.70), ("fig10c", 0.80, 0.95))
    got = {}
    ok = True
    for preset_name, lo, hi in cases:
        cfg = replace(PRESETS[preset_name], packets_per_point=10000)
        prr = run_point(cfg, 0.0, -40.0).prr_mean
        got[cfg.coding] = round(prr, 3)
        ok = ok and lo <= prr <= hi
    _report(9, "interferer reception at SIR=-40 dB", ok, f"PRR {got}")
    assert ok, got


@pytest.fixture(scope="module")
def zone_maps():
    maps = {}
    for name in ("fig11a", "fig11b", "fig11c"):
        cfg = ZONE_PRESETS[name]
        cells = capture_zone(cfg, 64, threads=THREADS)
        maps[cfg.coding] = {(c.tau, c.phi_c): c.error_rate for c in cells}
    return maps


def test_criterion_10_capture_zones(zone_maps):
    phi = sorted({phi for _, phi in zone_maps["uncoded"]})
    phi_half = phi[len(phi) // 4]   # pi/2
    phi_pi = phi[len(phi) // 2]     # pi
    unc, hdd, sdd = zone_maps["uncoded"], zone_maps["hdd"], zone_maps["sdd"]

    center_clean = unc[(0.0, 0.0)] < 0.01
    quarter_noisy = unc[(0.0, phi_half)] > 0.20
    second_zone = hdd[(0.0, phi_pi)] < 0.01
    hdd_low = {cell for cell, rate in hdd.items() if rate < 0.01}
    sdd_low = {cell for cell, rate in sdd.items() if rate < 0.01}
    contains = hdd_low <= sdd_low and len(sdd_low) > len(hdd_low)
    ok = center_clean and quarter_noisy and second_zone and contains
    _report(10, "capture zones", ok,
            f"uncoded(0,0)={unc[(0.0, 0.0)]:.4f} uncoded(0,pi/2)={unc[(0.0, phi_half)]:.3f} "
            f"hdd(0,pi)={hdd[(0.0, phi_pi)]:.4f}; low-error cells hdd={len(hdd_low)} "
            f"sdd={len(sdd_low)} subset={hdd_low <= sdd_low}")
    assert center_clean
    assert quarter_noisy
    assert second_zone
    assert contains


def test_criterion_11_n_interferer_effect():
    from mskcollide import NINTERF_DEFAULTS
    cfg = replace(NINTERF_DEFAULTS, packets_per_point=4000)
    rows = n_interferer_experiment(cfg, max_n=8)
    by = {(r.payload_mode, r.layout, r.n): r.prr_mean for r in rows}

    ident = [by[("identical", "equal_split", n)] for n in range(1, 9)]
    ident_ok = all(v >= 0.85 for v in ident)
    indep_pairs = [(by[("independent", "equal_split", n)],
                    by[("independent", "single", n)]) for n in range(2, 9)]
    order_ok = all(eq <= single for eq, single in indep_pairs)
    drop_ok = by[("independent", "equal_split", 3)] < 0.5
    ok = ident_ok and order_ok and drop_ok
    _report(11, "n-interferer effect", ok,
            f"identical equal-split min PRR {min(ident):.3f}; "
            f"independent equal<=single for n>=2: {order_ok}; "
            f"equal-split PRR(n=3)={by[('independent', 'equal_split', 3)]:.3f}")
    assert ident_ok
    assert order_ok
    assert drop_ok


def test_criterion_12_decoder_symmetries():
    rng = np.random.default_rng(20140912)
    ok = True
    for xi in range(16):
        base = BIPOLAR_CHIP_TABLE[xi]
        for _ in range(1000):
            flips = (rng.integers(0, 2, size=32) * -2 + 1).astype(np.int8)
            chips = base * flips
            if decide(chips, "hdd")[1] != decide(-chips, "hdd")[1]:
                ok = False
    for _ in range(1000):
        soft = rng.normal(size=32)
        scale = float(10.0 ** rng.uniform(-3, 3))
        if decide(soft, "sdd")[1] != decide(scale * soft, "sdd")[1]:
            ok = False
    _report(12, "decoder symmetries", ok,
            "hdd sign symmetry (16 symbols x 1000 patterns), sdd scale invariance")
    assert ok


def test_criterion_13_byte_identical_across_threads(tmp_path):
    args = ["sweep", "--preset", "fig5a", "--seed", "1234"]
    one = tmp_path / "threads1.csv"
    two = tmp_path / "threads2.csv"
    assert cli_main(args + ["--threads", "1", "--out", str(one)]) == 0
    assert cli_main(args + ["--threads", "2", "--out", str(two)]) == 0
    ok = one.read_bytes() == two.read_bytes()
    _report(13, "determinism across thread counts", ok,
            f"{one.stat().st_size} bytes each, identical={ok}")
    assert ok
