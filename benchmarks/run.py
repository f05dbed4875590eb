#!/usr/bin/env python3
"""Layered benchmark of mskcollide: the Monte Carlo engine, the oracle and
the output layer, timed from outside through their public functions.

Run from the repository root:

    python3 benchmarks/run.py --workload coded_sweep --seed 7 --seconds 20 --trace 0

Workloads (benchmarks/README.md says why each exists):

- coded_sweep: seeded tau x SIR points of the fig5b (HDD) and fig5c (SDD)
  grids, one run_point call each, in one process. An operation is a point.
- uncoded_pool: a seeded fig5a sub-grid through sweep(threads=2). An
  operation is one sweep call.
- oracle_validate: `mskcollide validate` in baseband through cli.main. An
  operation is one oracle draw, timed as its share of a 50-draw call.

The seed picks the grid points and is the program's master seed (or the
base of validate's --seed). With --trace 0 the last stdout line carries the
end-to-end metrics, measured untraced. With --trace 1 the run splits its
time into untraced and traced phases, writes every span to
.bench_out/spans-<workload>.jsonl and derives the per-layer metrics
from that file. The line before the result records the environment.

Correctness: every point's PRR, BER and SER must lie in [0, 1]; each grid's
CSV, written by output.write_sweep, must hash the same on every repeat; and
each run re-runs the default-seed grids once and compares them with the
pinned digests below. A digest mismatch fails every operation of the run.
A validate call that exits non-zero or reports a deviation above 1e-9
fails all its draws.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import bench_trace

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 1234
SWEEP_PRESETS = {"coded_sweep": ("fig5b", "fig5c"), "uncoded_pool": ("fig5a",)}
WORKLOADS = (*SWEEP_PRESETS, "oracle_validate")
#: tau x SIR points drawn from each preset grid.
GRID_SHAPE = {"fig5a": (4, 8), "fig5b": (4, 4), "fig5c": (4, 4)}
#: sha256 of the write_sweep CSV of each preset's grid at DEFAULT_SEED; the
#: same bytes `mskcollide sweep --config` writes (selfcheck.py verifies it).
PINNED = {
    "fig5a": "88c5e14d637f6e87e2e8ce2efbcedfc2a99cd2200de7af1a0eb7c4d5e98dccb9",
    "fig5b": "2f6c61de39b06a54c97e2b4245a54a523a8b756615c4c55ff2d6ce7dfd92d906",
    "fig5c": "95e4eeaa51bce3a3a11898e82b3b787996ff48546ea03f892fd319279f1eb497",
}
POOL_THREADS = 2
VALIDATE_DRAWS = 50  # per cli.main call, so argument parsing stays small
VALIDATE_TOLERANCE = 1e-9
SETUP_PROBES = 6
TRACE_ROUNDS = 4
_VALIDATE_LINE = re.compile(r"validate \(baseband\): (\d+) draws, max scaled deviation (\S+)")


def load_package():
    """Import mskcollide from this checkout's src/, never from elsewhere."""
    pkg_dir = SRC / "mskcollide"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"benchmark: {pkg_dir} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("mskcollide")
    if Path(pkg.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"benchmark: imported mskcollide from {pkg.__file__}, not {pkg_dir}")
    for sub in ("cli", "montecarlo", "output", "presets", "receiver"):
        importlib.import_module(f"mskcollide.{sub}")
    return pkg


def sweep_configs(presets, workload: str, seed: int, shape=None) -> list:
    """(preset, config) pairs handed to the program: a seeded tau x SIR
    sub-grid of each preset grid, with the seed as master seed."""
    rng = random.Random(seed)
    configs = []
    for name in SWEEP_PRESETS[workload]:
        base = presets.PRESETS[name]
        n_tau, n_sir = shape or GRID_SHAPE[name]
        configs.append((name, replace(
            base, master_seed=seed,
            tau_grid=tuple(sorted(rng.sample(base.tau_grid, n_tau))),
            sir_db_grid=tuple(sorted(rng.sample(base.sir_db_grid, n_sir))))))
    return configs


def validate_argv(seed: int, call: int, draws: int = VALIDATE_DRAWS) -> list:
    return ["validate", "--draws", str(draws), "--tolerance", repr(VALIDATE_TOLERANCE),
            "--seed", str(seed * 1_000_000 + call)]


def point_ok(point, cfg) -> bool:
    rates = (point.prr_mean, point.prr_std, point.ber, point.ser)
    return all(0.0 <= r <= 1.0 for r in rates) and point.packets == cfg.packets_per_point


def validate_ok(code: int, stdout: str, draws: int) -> bool:
    match = _VALIDATE_LINE.search(stdout)
    return (code == 0 and match is not None and int(match.group(1)) == draws
            and float(match.group(2)) <= VALIDATE_TOLERANCE)


class Run:
    """One workload at one seed: set-up, timed phases and output checks."""

    def __init__(self, workload: str, seed: int, shape=None, pinned=None):
        # numpy's import is left out of setup_s: it lies outside this
        # repository and its file reads dominated the run-to-run spread.
        importlib.import_module("numpy")
        started = time.perf_counter()
        self.pkg = load_package()
        self.workload, self.seed = workload, seed
        self.configs = (sweep_configs(self.pkg.presets, workload, seed, shape)
                        if workload in SWEEP_PRESETS else [])
        pinned = PINNED if pinned is None else pinned
        self.expected = {(name, DEFAULT_SEED): digest for name, digest in pinned.items()}
        self.attempted = self.failed = self.items = 0
        self.digests_ok = True
        self.threads = POOL_THREADS
        self._calls = self._next = 0
        OUT.mkdir(exist_ok=True)
        self._warm_up()
        self.setup_s = time.perf_counter() - started

    def _warm_up(self):
        mc = self.pkg.montecarlo
        if self.workload == "coded_sweep":
            cfg = self.configs[0][1]
            mc.run_point(cfg, cfg.tau_grid[0], cfg.sir_db_grid[0])
        elif self.workload == "uncoded_pool":
            mc.sweep(self.configs[0][1], threads=POOL_THREADS)
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                self.pkg.cli.main(validate_argv(self.seed, 0, draws=1))

    def _check_grid(self, name: str, cfg, points, count: bool = True):
        """Range-check each point; the grid's CSV must hash as pinned, or as
        the first time this config ran."""
        if count:
            self.attempted += len(points)
            self.failed += sum(not point_ok(p, cfg) for p in points)
            self.items += len(points) * cfg.packets_per_point
        path = OUT / f"{self.workload}-{name}.csv"
        self.pkg.output.write_sweep(points, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.expected.setdefault((name, cfg.master_seed), digest) != digest:
            self.digests_ok = False

    def _coded_grid(self, name, cfg, op_s, count=True):
        run_point = self.pkg.montecarlo.run_point
        points = []
        for tau in cfg.tau_grid:
            for sir in cfg.sir_db_grid:
                t = time.perf_counter()
                points.append(run_point(cfg, tau, sir))
                op_s.append(time.perf_counter() - t)
        self._check_grid(name, cfg, points, count)

    def _pool_sweep(self, name, cfg, op_s, count=True):
        t = time.perf_counter()
        points = self.pkg.montecarlo.sweep(cfg, threads=self.threads)
        op_s.append(time.perf_counter() - t)
        self._check_grid(name, cfg, points, count)

    def _validate_call(self, op_s):
        out = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.pkg.cli.main(validate_argv(self.seed, self._calls))
        op_s.append((time.perf_counter() - t) / VALIDATE_DRAWS)
        self._calls += 1
        self.attempted += VALIDATE_DRAWS
        self.items += VALIDATE_DRAWS
        if not validate_ok(code, out.getvalue(), VALIDATE_DRAWS):
            self.failed += VALIDATE_DRAWS

    def _step(self, op_s):
        """One unit of work: a coded grid, a sweep call or a validate call."""
        if self.workload == "oracle_validate":
            self._validate_call(op_s)
            return
        name, cfg = self.configs[self._next % len(self.configs)]
        self._next += 1
        if self.workload == "coded_sweep":
            self._coded_grid(name, cfg, op_s)
        else:
            self._pool_sweep(name, cfg, op_s)

    def phase(self, seconds: float) -> dict:
        """Repeat steps until `seconds` have passed; at least one step."""
        op_s, items0 = [], self.items
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            self._step(op_s)
            if time.perf_counter() >= deadline:
                break
        return {"start": start, "end": time.perf_counter(),
                "items": self.items - items0, "op_s": op_s}

    def verify_pinned(self):
        """Re-run the default-seed grids once, uncounted, against the pins."""
        if self.workload not in SWEEP_PRESETS:
            return
        grid = self._coded_grid if self.workload == "coded_sweep" else self._pool_sweep
        for name, cfg in sweep_configs(self.pkg.presets, self.workload, DEFAULT_SEED):
            grid(name, cfg, [], count=False)

    def outcome(self) -> tuple[int, int]:
        """(attempted, failed); a digest mismatch fails every operation."""
        return self.attempted, (self.attempted if not self.digests_ok else self.failed)


def setup_samples(workload: str, seed: int) -> list:
    """Set-up times of fresh interpreters running this workload's set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = [run.setup_s] + setup_samples(run.workload, run.seed)
    ph = run.phase(seconds)
    run.verify_pinned()
    op_ms = [s * 1e3 for s in ph["op_s"]]
    metrics = {
        "items_per_s": ph["items"] / (ph["end"] - ph["start"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    # The percentiles are reported here, not as gated metrics. The host's
    # speed flips between two levels for seconds at a time, so a run's
    # median jumps between them: over runs it spread about twice as wide
    # as the throughput, and p95 did not repeat within a tenth.
    p95 = statistics.quantiles(op_ms, n=20, method="inclusive")[18] if len(op_ms) >= 200 else None
    return metrics, {"op_samples": len(op_ms), "op_ms_p50": statistics.median(op_ms),
                     "op_ms_p95": p95, "setup_samples_s": setup}


def install_tracer(tracer, pkg):
    mc, cli = pkg.montecarlo, pkg.cli
    tracer.wrap(mc, "sweep", "montecarlo.sweep")
    tracer.wrap(mc, "run_point", "montecarlo.run_point")
    tracer.wrap(mc, "batch_interference", "demod.batch_interference",
                size=bench_trace.array_bytes)
    for fn in bench_trace.RECEIVER_FNS:
        original = getattr(pkg.receiver, fn, None)
        if original is not None and getattr(mc, fn, None) is original:
            tracer.wrap(mc, fn, f"receiver.{fn}")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "interference_contribution", "demod.interference_contribution")
    for fn in bench_trace.ORACLE_FNS:
        tracer.wrap(cli, fn, f"oracle.{fn}")
    tracer.wrap(pkg.output, "write_sweep", "output.write_sweep")


def per_layer(run: Run, seconds: float) -> tuple[dict, dict, list]:
    """Untraced and traced phases in turn; per-layer metrics from the span file.

    uncoded_pool adds a phase that times sweep(threads=2) for the parallel
    efficiency; its untraced and traced phases run in one process, because
    spans recorded in forked workers would stay there. The phases alternate
    TRACE_ROUNDS times, so that drift in the host's speed falls on each alike.
    """
    tracer = bench_trace.Tracer()
    names = (["pool"] if run.workload == "uncoded_pool" else []) + ["untraced", "traced"]
    for name in names * TRACE_ROUNDS:
        run.threads = POOL_THREADS if name == "pool" else 1
        if name == "traced":
            install_tracer(tracer, run.pkg)
        try:
            ph = run.phase(seconds / (len(names) * TRACE_ROUNDS))
        finally:
            tracer.restore()
        tracer.record("bench.phase", ph["start"], ph["end"], phase=name,
                      items=ph["items"], op_s_median=statistics.median(ph["op_s"]))
    run.threads = POOL_THREADS
    run.verify_pinned()
    path = OUT / f"spans-{run.workload}.jsonl"
    tracer.write(path)
    n_spans = len(tracer.spans)
    tracer.spans.clear()
    metrics, errors = bench_trace.layer_metrics(path, POOL_THREADS)
    return metrics, {"span_file": str(path.relative_to(ROOT)), "spans": n_spans}, errors


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def cache_sizes() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            sizes[key.strip()] = value.strip()
    return sizes


def environment(presets) -> dict:
    """The host and versions, and beside the cache sizes the computed size
    of the float64 arrays in one shipped coded point (fig5b)."""
    import numpy
    coded = presets.PRESETS["fig5b"]
    packets, chips = coded.packets_per_point, 8 * coded.payload_bits
    return {"commit": commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "caches": cache_sizes(),
            "coded_point_arrays_mb_computed": {
                "branch": packets * chips // 2 * 8 / 1e6,
                "correlation_input": packets * chips * 8 / 1e6,
            }}


def execute(workload: str, seed: int, seconds: float, trace: bool,
            shape=None, pinned=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, info) as printed by main."""
    run = Run(workload, seed, shape, pinned)
    if trace:
        metrics, info, errors = per_layer(run, seconds)
    else:
        (metrics, info), errors = end_to_end(run, seconds), []
    attempted, failed = run.outcome()
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    info.update(workload=workload, seed=seed, failed_frac=failed / attempted,
                digests_ok=run.digests_ok, errors=errors[:5],
                env=environment(run.pkg.presets))
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    result, info = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
