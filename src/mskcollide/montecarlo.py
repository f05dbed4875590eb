"""Randomized packet-collision experiments over (tau, SIR, phi, n) grids.

Per grid point the engine simulates a batch of independent packets with the
closed-form demodulator, decodes them, and aggregates packet reception
ratio, bit error rate, and symbol error rate. The synchronized sender's
amplitude is fixed to 1 and interferer amplitudes derive from the SIR of
the point, so sweeps are parametrized by (tau, SIR) alone.

Every point draws from its own RNG stream seeded by the master seed and
the point's physical parameters (offsets, amplitudes, modes). Results are
therefore bit-identical no matter how points are ordered or distributed
across workers. Within a point the per-packet values are rows of batched
draws made in one fixed order: payloads, phase offsets, noise.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .chipseq import BITS_PER_SYMBOL
from .demod import batch_interference
from .receiver import decide
from .signal_model import draw_payloads

TWO_PI = 2.0 * math.pi

PAYLOAD_MODES = ("independent", "identical")
CODINGS = ("uncoded", "hdd", "sdd")
TARGETS = ("soi", "interferer")
PHI_MODES = ("random_uniform", "fixed")
POWER_SPLITS = ("single", "equal_split")


#: Most values one grid axis may hold (the largest preset axis has 64).
MAX_GRID_POINTS = 1024


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description; grids and per-point simulation parameters."""

    packets_per_point: int = 1000
    payload_bits: int = 64
    payload_mode: str = "independent"
    coding: str = "uncoded"
    target: str = "soi"
    tau_grid: tuple = ()
    sir_db_grid: tuple = ()
    phi_mode: str = "random_uniform"
    phi_c: float = 0.0
    n_interferers: int = 1
    interferer_power_split: str = "single"
    master_seed: int = 1234
    noise_std: float = 0.0

    def __post_init__(self):
        for name in ("tau_grid", "sir_db_grid"):
            values = tuple(getattr(self, name))
            for value in values:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ConfigError(f"{name} values must be numbers, not {value!r}")
            object.__setattr__(self, name, tuple(map(float, values)))

    def validate(self):
        """Raise ConfigError for a bad field. Grids may be empty here;
        sweep checks that it has both."""
        for name in ("packets_per_point", "payload_bits", "n_interferers", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        for name in ("phi_c", "noise_std"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, not {value!r}")
        for name in ("tau_grid", "sir_db_grid"):
            values = getattr(self, name)
            if len(values) > MAX_GRID_POINTS:
                raise ConfigError(f"{name} holds {len(values)} values, more than "
                                  f"{MAX_GRID_POINTS}")
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{name} values must be finite")
        for sir_db in self.sir_db_grid:
            _interference_level(sir_db)
        if self.packets_per_point < 1:
            raise ConfigError("packets_per_point must be at least 1")
        if self.payload_bits < 1:
            raise ConfigError("payload_bits must be positive")
        if self.payload_mode not in PAYLOAD_MODES:
            raise ConfigError(f"payload_mode must be one of {PAYLOAD_MODES}")
        if self.coding not in CODINGS:
            raise ConfigError(f"coding must be one of {CODINGS}")
        if self.coding != "uncoded" and self.payload_bits % BITS_PER_SYMBOL:
            raise ConfigError("coded payload_bits must be a multiple of 4")
        if self.target not in TARGETS:
            raise ConfigError(f"target must be one of {TARGETS}")
        if self.phi_mode not in PHI_MODES:
            raise ConfigError(f"phi_mode must be one of {PHI_MODES}")
        if self.interferer_power_split not in POWER_SPLITS:
            raise ConfigError(f"interferer_power_split must be one of {POWER_SPLITS}")
        if self.n_interferers < 0:
            raise ConfigError("n_interferers must be non-negative")
        if self.target == "interferer" and self.n_interferers < 1:
            raise ConfigError("target 'interferer' needs at least one interferer")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a mapping of fields, not {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class MetricPoint:
    """Aggregated metrics of one grid point."""

    tau: float
    sir_db: float
    prr_mean: float
    prr_std: float
    ber: float
    ser: float
    packets: int
    phi_c: float | None = None
    n: int = 1


@dataclass(frozen=True)
class ZoneCell:
    """Error rate of one (tau, phi_c) cell of a capture-zone map."""

    tau: float
    phi_c: float
    error_rate: float
    packets: int


@dataclass(frozen=True)
class ThresholdPoint:
    """Smallest SIR reaching the PRR threshold at one time offset; sir_db is
    None where no grid SIR reaches it."""

    tau: float
    sir_db: float | None


@dataclass(frozen=True)
class NInterfererPoint:
    """SDD-style reception ratio for one (n, layout, payload_mode) cell."""

    n: int
    layout: str
    payload_mode: str
    prr_mean: float
    prr_std: float
    packets: int


def grid(start: float, stop: float, step: float) -> tuple:
    """Inclusive numeric grid with round-off-stable values; at most
    MAX_GRID_POINTS of them, checked before any is built."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("grid start, stop and step must be finite")
    if step <= 0:
        raise ConfigError("grid step must be positive")
    if stop < start:
        raise ConfigError("grid stop must not precede start")
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ConfigError(f"grid would hold more than {MAX_GRID_POINTS} values")
    n = int(math.floor(span)) + 1
    return tuple(round(start + i * step, 10) for i in range(n))


def _interference_level(sir_db: float) -> float:
    """Total interference power for a unit synchronized sender; an SIR whose
    level overflows or underflows to zero (which would drop the interferer)
    is a ConfigError."""
    try:
        level = 10.0 ** (-sir_db / 10.0)
    except OverflowError:
        level = math.inf
    if not 0.0 < level < math.inf:
        raise ConfigError(f"SIR {sir_db} dB is out of range: the interference "
                          f"level would be {level}")
    return level


def split_amplitudes(total_power: float, n: int, layout: str) -> tuple:
    """Distribute a total interference power across interferers.

    "single" concentrates everything in one interferer, "equal_split"
    divides it evenly over n. Callers pass a validated layout and a
    positive power.
    """
    if n == 0:
        return ()
    if layout == "single":
        return (math.sqrt(total_power),)
    return tuple(math.sqrt(total_power / n) for _ in range(n))


def _encode_part(part) -> bytes:
    if isinstance(part, float):
        return b"f" + struct.pack("<d", part)
    if isinstance(part, int):
        return b"i" + str(part).encode()
    if isinstance(part, str):
        return b"s" + part.encode()
    if isinstance(part, (tuple, list)):
        return b"t" + b"".join(_encode_part(p) for p in part) + b"e"
    raise TypeError(f"cannot encode {type(part)!r} into a point key")


def _point_rng(master_seed: int, *parts) -> np.random.Generator:
    """RNG stream for one grid point, keyed by its physical parameters."""
    digest = hashlib.blake2b(b"".join(_encode_part(p) for p in parts),
                             digest_size=16).digest()
    key = int.from_bytes(digest, "little")
    seq = np.random.SeedSequence([int(master_seed) & (2**64 - 1), key])
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class _BatchStats:
    ok: np.ndarray
    bit_errors: int
    total_bits: int
    symbol_errors: int
    total_symbols: int


def _compute_soft(soi_chips, interferer_chips, amplitudes, tau, phi,
                  noise=None, soi_amplitude=1.0):
    """Transmit-order soft values of a batch of packets (pure given the draws).

    soi_chips and each entry of interferer_chips are (packets, n_chips) +-1
    arrays in transmit order; phi has one column per interferer; noise is
    an optional (noise_i, noise_q) pair. The in-phase (even) and quadrature
    (odd) positions are written through strided views of one
    (packets, n_chips) float64 buffer.
    """
    soft = np.multiply(soi_amplitude, soi_chips, dtype=np.float64)
    soft_i, soft_q = soft[..., 0::2], soft[..., 1::2]
    n_i, n_q = soft_i.shape[-1], soft_q.shape[-1]
    for idx, chips in enumerate(interferer_chips):
        beta_i, beta_q = chips[..., 0::2], chips[..., 1::2]
        phi_col = phi[..., idx]
        soft_i += batch_interference(beta_i, beta_q, amplitudes[idx], tau, phi_col, "I", n_i)
        soft_q += batch_interference(beta_i, beta_q, amplitudes[idx], tau, phi_col, "Q", n_q)
    if noise is not None:
        soft_i += noise[0]
        soft_q += noise[1]
    return soft


def _simulate_batch(cfg: ExperimentConfig, tau: float, amplitudes: tuple) -> _BatchStats:
    """Simulate one grid point's packets and count errors against the target."""
    packets = cfg.packets_per_point
    coded = cfg.coding != "uncoded"
    n_chips = 8 * cfg.payload_bits if coded else cfg.payload_bits
    n_int = len(amplitudes)
    fixed = cfg.phi_mode == "fixed"

    rng = _point_rng(
        cfg.master_seed,
        float(tau), tuple(float(a) for a in amplitudes),
        cfg.phi_mode, float(cfg.phi_c) if fixed else -1.0,
        cfg.payload_mode, cfg.coding, cfg.target,
        packets, cfg.payload_bits, float(cfg.noise_std),
    )

    # Canonical draw order: payloads (draw_payloads), phase offsets (random
    # mode only), then noise.
    senders = draw_payloads(rng, cfg.payload_mode, coded, cfg.payload_bits, n_int, packets)
    if fixed:
        phi = np.full((packets, n_int), float(cfg.phi_c))
    else:
        phi = rng.uniform(0.0, TWO_PI, size=(packets, n_int))
    noise = None
    if cfg.noise_std > 0:
        noise = (rng.normal(0.0, cfg.noise_std, size=(packets, n_chips - n_chips // 2)),
                 rng.normal(0.0, cfg.noise_std, size=(packets, n_chips // 2)))

    soft = _compute_soft(senders[0][1], [chips for _, chips in senders[1:]],
                         amplitudes, tau, phi, noise)
    ref_symbols, ref_chips = senders[0 if cfg.target == "soi" else 1]
    sliced, decided, _ = decide(soft, cfg.coding)
    bit_err_per_packet = (sliced != ref_chips).sum(axis=1)
    bit_errors = int(bit_err_per_packet.sum())

    if not coded:
        return _BatchStats(ok=bit_err_per_packet == 0, bit_errors=bit_errors,
                           total_bits=packets * n_chips,
                           symbol_errors=0, total_symbols=0)

    sym_err_per_packet = (decided != ref_symbols).sum(axis=1)
    return _BatchStats(ok=sym_err_per_packet == 0, bit_errors=bit_errors,
                       total_bits=packets * n_chips,
                       symbol_errors=int(sym_err_per_packet.sum()),
                       total_symbols=decided.size)


def _prr_stats(ok: np.ndarray, n_batches: int = 10) -> tuple[float, float]:
    """Mean PRR plus its spread across equal batches of the packet set."""
    packets = len(ok)
    mean = float(np.mean(ok))
    n_batches = min(n_batches, packets)
    if n_batches < 2:
        return mean, 0.0
    batch_means = [float(np.mean(b)) for b in np.array_split(ok, n_batches)]
    return mean, float(np.std(batch_means, ddof=1))


def _point_amplitudes(cfg: ExperimentConfig, sir_db: float) -> tuple:
    return split_amplitudes(_interference_level(sir_db), cfg.n_interferers,
                            cfg.interferer_power_split)


def run_point(cfg: ExperimentConfig, tau: float, sir_db: float) -> MetricPoint:
    """Simulate one (tau, SIR) grid point."""
    cfg.validate()
    amplitudes = _point_amplitudes(cfg, sir_db)
    stats = _simulate_batch(cfg, tau, amplitudes)
    prr_mean, prr_std = _prr_stats(stats.ok)
    ber = stats.bit_errors / stats.total_bits
    ser = stats.symbol_errors / stats.total_symbols if stats.total_symbols else 0.0
    return MetricPoint(tau=float(tau), sir_db=float(sir_db), prr_mean=prr_mean,
                       prr_std=prr_std, ber=ber, ser=ser,
                       packets=cfg.packets_per_point, n=len(amplitudes),
                       phi_c=cfg.phi_c if cfg.phi_mode == "fixed" else None)


def _sweep_task(args):
    cfg, tau, sir_db = args
    return run_point(cfg, tau, sir_db)


def _map_tasks(task_fn, tasks: list, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [task_fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * threads))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task_fn, tasks, chunksize=chunk))


def sweep(cfg: ExperimentConfig, threads: int = 1) -> list[MetricPoint]:
    """Run the full tau x SIR grid; deterministic for a given master seed
    regardless of threads."""
    cfg.validate()
    if not cfg.tau_grid or not cfg.sir_db_grid:
        raise ConfigError("tau_grid and sir_db_grid must not be empty")
    tasks = [(cfg, tau, sir) for tau in cfg.tau_grid for sir in cfg.sir_db_grid]
    return _map_tasks(_sweep_task, tasks, threads)


def _zone_task(args):
    cfg, tau, phi, sir_db = args
    point_cfg = replace(cfg, phi_mode="fixed", phi_c=phi)
    point = run_point(point_cfg, tau, sir_db)
    rate = point.ber if cfg.coding == "uncoded" else point.ser
    return ZoneCell(tau=float(tau), phi_c=float(phi), error_rate=rate,
                    packets=point.packets)


def capture_zone(cfg: ExperimentConfig, sir_db: float, tau_grid, phi_grid,
                 threads: int = 1) -> list[ZoneCell]:
    """Error-rate map over (tau, phi_c) cells at a fixed SIR.

    Each cell fixes the carrier phase offset; the error rate is the bit
    error rate for uncoded operation and the symbol error rate for the
    coded modes.
    """
    cfg.validate()
    if not len(tau_grid) or not len(phi_grid):
        raise ConfigError("capture zone grids must not be empty")
    tasks = [(cfg, tau, phi, sir_db) for tau in tau_grid for phi in phi_grid]
    return _map_tasks(_zone_task, tasks, threads)


def _ninterf_task(args):
    cfg, n, layout, payload_mode = args
    point_cfg = replace(cfg, payload_mode=payload_mode, n_interferers=n,
                        interferer_power_split=layout, phi_mode="random_uniform")
    amplitudes = split_amplitudes(n * 0.5, n, layout)
    stats = _simulate_batch(point_cfg, 0.0, amplitudes)
    prr_mean, prr_std = _prr_stats(stats.ok)
    return NInterfererPoint(n=n, layout=layout, payload_mode=payload_mode,
                            prr_mean=prr_mean, prr_std=prr_std,
                            packets=cfg.packets_per_point)


def n_interferer_experiment(cfg: ExperimentConfig, max_n: int = 8,
                            threads: int = 1) -> list[NInterfererPoint]:
    """Reception under one strong interferer versus n weaker ones.

    All interferers are time-synchronized (tau = 0) with i.i.d. uniform
    phase offsets; each weak interferer carries half the synchronized
    sender's power, the single strong one carries n times that. Runs both
    payload modes and both layouts for n = 1..max_n.
    """
    cfg.validate()
    if max_n < 1:
        raise ConfigError("max_n must be at least 1")
    tasks = [(cfg, n, layout, mode)
             for mode in PAYLOAD_MODES
             for layout in POWER_SPLITS
             for n in range(1, max_n + 1)]
    return _map_tasks(_ninterf_task, tasks, threads)


def threshold_extract(points: list[MetricPoint],
                      prr_threshold: float = 0.9) -> list[ThresholdPoint]:
    """Per time offset, the smallest SIR whose PRR reaches the threshold.

    Linear interpolation between the bracketing SIR grid points; None where
    the curve never reaches the threshold.
    """
    by_tau: dict[float, list[MetricPoint]] = {}
    for p in points:
        by_tau.setdefault(p.tau, []).append(p)
    out = []
    for tau in sorted(by_tau):
        pts = sorted(by_tau[tau], key=lambda p: p.sir_db)
        sir = None
        for i, p in enumerate(pts):
            if p.prr_mean >= prr_threshold:
                if i == 0:
                    sir = p.sir_db
                else:
                    prev = pts[i - 1]
                    frac = (prr_threshold - prev.prr_mean) / (p.prr_mean - prev.prr_mean)
                    sir = prev.sir_db + frac * (p.sir_db - prev.sir_db)
                break
        out.append(ThresholdPoint(tau=tau, sir_db=sir))
    return out
