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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .demod import interference_contribution
from .montecarlo import (CODINGS, PAYLOAD_MODES, TARGETS, ConfigError, ExperimentConfig,
                         _check_integer, _check_number, capture_zone, grid,
                         n_interferer_experiment, sweep)
from .oracle import (MAX_CARRIER_MULTIPLE, RECT_KINDS, oracle_lambda_baseband,
                     oracle_lambda_passband, rect_integral, rect_integral_quadrature)
from .output import (write_chip_table, write_manifest, write_ninterf,
                     write_sweep, write_zone)
from .presets import NINTERF_DEFAULTS, PRESETS, ZONE_PRESETS
from .signal_model import InterfererParams

T_NANOSECONDS = 500.0  # half a 1 us bit duration


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
    val.add_argument("--passband", action="store_true",
                     help="integrate in passband with an explicit carrier")
    val.add_argument("--carrier-multiple", type=int,
                     help="passband carrier in multiples of the pulse frequency "
                          "(default 256; needs --passband)")
    val.add_argument("--seed", type=int, default=1234)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", dest="master_seed", type=int,
                        help="master seed (default from config/preset)")
    common.add_argument("--packets", dest="packets_per_point", type=int,
                        help="packets per grid point")
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", required=True, help="output table path")
    common.add_argument("--coding", choices=CODINGS)
    common.add_argument("--payload-bits", type=int)

    tau = argparse.ArgumentParser(add_help=False)
    tau.add_argument("--tau-unit", choices=("T", "ns"), default="T")
    for end in ("start", "stop", "step"):
        tau.add_argument(f"--tau-{end}", type=float)

    swp = sub.add_parser("sweep", parents=[common, tau],
                         help="PRR/BER/SER grid over tau x SIR")
    swp.add_argument("--preset", choices=sorted(PRESETS))
    swp.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
    swp.add_argument("--payload-mode", choices=PAYLOAD_MODES)
    swp.add_argument("--target", choices=TARGETS)
    swp.add_argument("--sir-start", type=float)
    swp.add_argument("--sir-stop", type=float)
    swp.add_argument("--sir-step", type=float)
    swp.add_argument("--phi-c", type=float,
                     help="fix every packet's carrier phase offset to this (radians); "
                          "without it each packet draws a uniform random phase")
    swp.add_argument("--n-interferers", type=int,
                     help="interferers, sharing the SIR's interference power equally")
    swp.add_argument("--noise-std", type=float)

    zone = sub.add_parser("zone", parents=[common, tau],
                          help="error-rate map over tau x carrier phase")
    zone.add_argument("--preset", choices=sorted(ZONE_PRESETS))
    zone.add_argument("--sir-db", type=float)
    zone.add_argument("--phi-points", type=int, default=64)

    nin = sub.add_parser("ninterf", parents=[common],
                         help="reception ratio vs number of interferers")
    nin.add_argument("--max-n", type=int, default=8)

    chip = sub.add_parser("chiptable", help="dump the chipping sequences as CSV")
    chip.add_argument("--out", default=None, help="output path (stdout if omitted)")
    return parser


def _random_params(rng) -> tuple[InterfererParams, int]:
    n_bits = int(rng.integers(4, 13)) * 2
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    params = InterfererParams(
        amplitude=float(10.0 ** rng.uniform(-2, 2)),
        tau=float(rng.uniform(-4.0, 4.0)),
        phi_c=float(rng.uniform(0.0, 2.0 * math.pi)),
        bits=bits,
    )
    k = int(rng.integers(0, n_bits // 2))
    return params, k


def _checks(params: InterfererParams, k: int, oracle, passband: bool):
    """(label, closed form, reference) for every value a validate draw
    compares: lambda on both branches, then in baseband the primitive
    integrals."""
    for branch in ("I", "Q"):
        yield branch, interference_contribution(params, k, branch), oracle(params, k, branch)
    if not passband:
        for kind in RECT_KINDS:
            for branch in ("I", "Q"):
                yield (f"rect/{kind}/{branch}",
                       rect_integral(kind, params, k, branch),
                       rect_integral_quadrature(kind, params, k, branch))


def cmd_validate(args) -> int:
    _check_integer("--draws", args.draws, 1)
    _check_integer("--seed", args.seed, 0)
    _check_number("--tolerance", args.tolerance, 0)
    oracle = oracle_lambda_passband if args.passband else oracle_lambda_baseband
    if args.carrier_multiple is not None:
        _check_integer("--carrier-multiple", args.carrier_multiple, 8, MAX_CARRIER_MULTIPLE)
        if not args.passband:
            raise ConfigError("--carrier-multiple needs --passband")
        oracle = partial(oracle, carrier_multiple=args.carrier_multiple)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    worst_case = None
    for _ in range(args.draws):
        params, k = _random_params(rng)
        for label, closed, reference in _checks(params, k, oracle, args.passband):
            dev = abs(closed - reference) / (1.0 + abs(reference))
            if dev > worst:
                worst, worst_case = dev, (label, params.tau, params.phi_c,
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


def _configure(cfg: ExperimentConfig, args, **fields) -> ExperimentConfig:
    """Override cfg with the given fields and with the command-line flags
    named by a config field, skipping those that are None."""
    given = {**vars(args), **fields}
    return replace(cfg, **{name: value for name, value in given.items()
                           if name in ExperimentConfig.__dataclass_fields__
                           and value is not None})


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
    return _run_table(partial(sweep, cfg), write_sweep, args, cfg, {"preset": args.preset})


def cmd_zone(args) -> int:
    cfg = _configure(ZONE_PRESETS[args.preset or "fig11a"], args,
                     tau_grid=_flag_grid(args, "tau", _tau_scale(args.tau_unit)),
                     sir_db_grid=None if args.sir_db is None else (args.sir_db,))
    return _run_table(partial(capture_zone, cfg, args.phi_points), write_zone, args, cfg,
                      {"preset": args.preset, "sir_db": cfg.sir_db_grid[0]})


def cmd_ninterf(args) -> int:
    cfg = _configure(NINTERF_DEFAULTS, args)
    if args.max_n > 8:
        print("note: n above 8 is outside the validated range", file=sys.stderr)
    return _run_table(partial(n_interferer_experiment, cfg, max_n=args.max_n), write_ninterf,
                      args, cfg, {"max_n": args.max_n})


def _run_table(experiment, writer, args, cfg: ExperimentConfig, extra: dict) -> int:
    """Run experiment(threads=args.threads), write its rows to args.out with
    writer, and beside them the manifest of args.command, timed from the
    start of the run. An --out that is a directory or lies in none fails
    before any point runs."""
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"cannot write output: {out} is a directory or its directory "
                          f"does not exist")
    started = time.monotonic()
    rows = experiment(threads=args.threads)
    try:
        writer(rows, args.out, args.format)
        write_manifest(args.out, args.command, cfg.to_dict(), time.monotonic() - started,
                       extra)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    return 0


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
