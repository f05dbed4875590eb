"""Command-line front end.

Subcommands: validate (closed forms against the numerical oracle), sweep
(tau x SIR metric grids), zone (tau x phi error maps), ninterf (reception
vs number of interferers), chiptable (codeword dump). Exit codes: 0 on
success, 1 when validation fails, 2 on configuration errors, 3 when a
worker process of a --threads run dies (no table is written).

Time offsets are taken in units of T by default; pass --tau-unit ns to give
them in nanoseconds (T = 500 ns).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .demod import interference_contribution
from .montecarlo import (MAX_GRID_POINTS, ConfigError, ExperimentConfig,
                         capture_zone, grid, n_interferer_experiment, sweep)
from .oracle import (QuadratureConfig, oracle_lambda_baseband,
                     oracle_lambda_passband, rect_integral,
                     rect_integral_quadrature)
from .output import (write_chip_table, write_manifest, write_ninterf,
                     write_sweep, write_zone)
from .presets import NINTERF_DEFAULTS, PRESETS, ZONE_PRESETS
from .signal_model import InterfererParams, multiplex_bits

T_NANOSECONDS = 500.0  # half a 1 us bit duration

RECT_KINDS = ("one", "cos2wp", "sin2wp")


def _tau_scale(unit: str) -> float:
    return 1.0 / T_NANOSECONDS if unit == "ns" else 1.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mskcollide",
        description="Link-level simulator of colliding MSK transmissions.")
    parser.add_argument("--version", action="version",
                        version=f"mskcollide {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    val = sub.add_parser("validate",
                         help="compare closed forms against numerical integration")
    val.add_argument("--draws", type=int, default=1000)
    val.add_argument("--tolerance", type=float, default=1e-9)
    val.add_argument("--steps", type=int, default=4096)
    val.add_argument("--passband", action="store_true",
                     help="integrate in passband with an explicit carrier")
    val.add_argument("--carrier-multiple", type=int, default=256)
    val.add_argument("--seed", type=int, default=1234)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (default from config/preset)")
    common.add_argument("--packets", type=int, default=None,
                        help="packets per grid point")
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", required=True, help="output table path")

    swp = sub.add_parser("sweep", parents=[common],
                         help="PRR/BER/SER grid over tau x SIR")
    swp.add_argument("--preset", choices=sorted(PRESETS))
    swp.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
    swp.add_argument("--coding", choices=("uncoded", "hdd", "sdd"))
    swp.add_argument("--payload-mode", choices=("independent", "identical"))
    swp.add_argument("--target", choices=("soi", "interferer"))
    swp.add_argument("--payload-bits", type=int)
    swp.add_argument("--tau-unit", choices=("T", "ns"), default="T")
    swp.add_argument("--tau-start", type=float)
    swp.add_argument("--tau-stop", type=float)
    swp.add_argument("--tau-step", type=float)
    swp.add_argument("--sir-start", type=float)
    swp.add_argument("--sir-stop", type=float)
    swp.add_argument("--sir-step", type=float)
    swp.add_argument("--phi-mode", choices=("random_uniform", "fixed"))
    swp.add_argument("--phi-c", type=float)
    swp.add_argument("--n-interferers", type=int)
    swp.add_argument("--power-split", choices=("single", "equal_split"))
    swp.add_argument("--noise-std", type=float)

    zone = sub.add_parser("zone", parents=[common],
                          help="error-rate map over tau x carrier phase")
    zone.add_argument("--preset", choices=sorted(ZONE_PRESETS))
    zone.add_argument("--sir-db", type=float)
    zone.add_argument("--coding", choices=("uncoded", "hdd", "sdd"))
    zone.add_argument("--tau-unit", choices=("T", "ns"), default="T")
    zone.add_argument("--tau-start", type=float)
    zone.add_argument("--tau-stop", type=float)
    zone.add_argument("--tau-step", type=float)
    zone.add_argument("--phi-points", type=int)
    zone.add_argument("--payload-bits", type=int)

    nin = sub.add_parser("ninterf", parents=[common],
                         help="reception ratio vs number of interferers")
    nin.add_argument("--max-n", type=int, default=8)
    nin.add_argument("--coding", choices=("uncoded", "hdd", "sdd"))
    nin.add_argument("--payload-bits", type=int)

    chip = sub.add_parser("chiptable", help="dump the chipping sequences as CSV")
    chip.add_argument("--out", default=None, help="output path (stdout if omitted)")
    return parser


def _random_params(rng) -> tuple[InterfererParams, int]:
    n_bits = int(rng.integers(4, 13)) * 2
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    payload = multiplex_bits(bits)
    params = InterfererParams(
        amplitude=float(10.0 ** rng.uniform(-2, 2)),
        tau=float(rng.uniform(-4.0, 4.0)),
        phi_c=float(rng.uniform(0.0, 2.0 * math.pi)),
        payload=payload,
    )
    k = int(rng.integers(0, n_bits // 2))
    return params, k


def cmd_validate(args) -> int:
    if args.draws < 1:
        raise ConfigError("--draws must be at least 1")
    if not args.tolerance >= 0 or math.isinf(args.tolerance):
        raise ConfigError("--tolerance must be finite and non-negative")
    try:
        cfg = QuadratureConfig(steps_per_bit=args.steps + (args.steps % 2),
                               method="simpson",
                               carrier_multiple=args.carrier_multiple)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    oracle = oracle_lambda_passband if args.passband else oracle_lambda_baseband
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    worst_case = None
    for _ in range(args.draws):
        params, k = _random_params(rng)
        for branch in ("I", "Q"):
            closed = interference_contribution(params, k, branch)
            reference = oracle(params, k, branch, cfg)
            dev = abs(closed - reference) / (1.0 + abs(reference))
            if dev > worst:
                worst, worst_case = dev, (branch, params.tau, params.phi_c,
                                          params.amplitude, k)
        if not args.passband:
            for kind in RECT_KINDS:
                for branch in ("I", "Q"):
                    closed = rect_integral(kind, branch, params.tau, params.payload, k)
                    reference = rect_integral_quadrature(kind, branch, params.tau,
                                                         params.payload, k, cfg)
                    dev = abs(closed - reference) / (1.0 + abs(reference))
                    if dev > worst:
                        worst, worst_case = dev, (f"rect/{kind}/{branch}",
                                                  params.tau, params.phi_c,
                                                  params.amplitude, k)
    mode = "passband" if args.passband else "baseband"
    print(f"validate ({mode}): {args.draws} draws, max scaled deviation {worst:.3e}")
    if worst > args.tolerance:
        print(f"FAIL: deviation {worst:.3e} exceeds tolerance {args.tolerance:.3e} "
              f"at {worst_case}", file=sys.stderr)
        return 1
    return 0


def _load_config_file(path: str) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON config: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def _flag_grid(args, name: str, scale: float = 1.0):
    start = getattr(args, f"{name}_start")
    stop = getattr(args, f"{name}_stop")
    step = getattr(args, f"{name}_step")
    given = [v is not None for v in (start, stop, step)]
    if not any(given):
        return None
    if not all(given):
        raise ConfigError(f"--{name}-start/stop/step must be given together")
    return grid(start * scale, stop * scale, step * scale)


#: (flag, ExperimentConfig field) pairs; a flag a subcommand lacks is skipped.
_OVERRIDES = (("coding", "coding"), ("payload_mode", "payload_mode"),
              ("target", "target"), ("payload_bits", "payload_bits"),
              ("phi_mode", "phi_mode"), ("phi_c", "phi_c"),
              ("n_interferers", "n_interferers"),
              ("power_split", "interferer_power_split"),
              ("noise_std", "noise_std"), ("packets", "packets_per_point"),
              ("seed", "master_seed"))


def _configure(cfg: ExperimentConfig, args, **fields) -> ExperimentConfig:
    """Override cfg with the given fields and command-line flags that are
    not None, then validate it."""
    overrides = {name: value for name, value in fields.items() if value is not None}
    for flag, fieldname in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            overrides[fieldname] = value
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _sweep_config(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        cfg = PRESETS[args.preset]
    elif args.config:
        cfg = _load_config_file(args.config)
    else:
        cfg = ExperimentConfig()
    return _configure(cfg, args, tau_grid=_flag_grid(args, "tau", _tau_scale(args.tau_unit)),
                      sir_db_grid=_flag_grid(args, "sir"))


def cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    started = time.monotonic()
    points = sweep(cfg, threads=args.threads)
    _write_table(write_sweep, points, args, "sweep", cfg.to_dict(),
                 cfg.master_seed, started, {"preset": args.preset})
    return 0


def cmd_zone(args) -> int:
    preset = ZONE_PRESETS[args.preset or "fig11a"]
    if args.phi_points is not None:
        preset = replace(preset, phi_points=args.phi_points)
    if not 1 <= preset.phi_points <= MAX_GRID_POINTS:
        raise ConfigError(f"--phi-points must lie in 1..{MAX_GRID_POINTS}")
    tau_grid = _flag_grid(args, "tau", _tau_scale(args.tau_unit)) or preset.tau_grid
    sir_db = preset.sir_db if args.sir_db is None else args.sir_db
    cfg = _configure(preset.config, args, tau_grid=tau_grid, sir_db_grid=(sir_db,))
    started = time.monotonic()
    cells = capture_zone(cfg, sir_db, cfg.tau_grid, preset.phi_grid(),
                         threads=args.threads)
    _write_table(write_zone, cells, args, "zone", cfg.to_dict(),
                 cfg.master_seed, started,
                 {"preset": args.preset, "sir_db": sir_db})
    return 0


def cmd_ninterf(args) -> int:
    cfg = _configure(NINTERF_DEFAULTS, args)
    if args.max_n > 8:
        print("note: n above 8 is outside the validated range", file=sys.stderr)
    started = time.monotonic()
    rows = n_interferer_experiment(cfg, max_n=args.max_n, threads=args.threads)
    _write_table(write_ninterf, rows, args, "ninterf", cfg.to_dict(),
                 cfg.master_seed, started, {"max_n": args.max_n})
    return 0


def _write_table(writer, rows, args, command, config, seed, started, extra):
    try:
        writer(rows, args.out, args.format)
        write_manifest(args.out, command, config, seed,
                       time.monotonic() - started, extra)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def cmd_chiptable(args) -> int:
    try:
        write_chip_table(args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "zone": cmd_zone,
    "ninterf": cmd_ninterf,
    "chiptable": cmd_chiptable,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
