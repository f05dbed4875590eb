"""Randomized packet-collision experiments over (tau, SIR, phi, n) grids.

Per grid point the engine simulates a batch of independent packets with the
closed-form demodulator, decodes them, and aggregates packet reception
ratio, bit error rate, and symbol error rate. The synchronized sender's
amplitude is fixed to 1 and interferer amplitudes derive from the SIR of
the point, so sweeps are parametrized by (tau, SIR) alone. Every
experiment (sweep, capture zone, n-interferer) builds its points as
(config, tau, amplitudes) triples and maps the one function _point_stats
over them; run_point calls it directly, and a tau or SIR that is not a
finite number is a ConfigError there.

Every point draws from its own RNG stream seeded by the master seed and
the point's physical parameters (offsets, amplitudes, modes). Results are
therefore bit-identical no matter how points are ordered or distributed
across workers. One function, _draw_point, makes all of a point's draws in
one fixed order (payloads, phase offsets, noise); a replay reruns it. One
evaluator, _evaluate, decides them in slabs of about SLAB_VALUES soft values
and _point_stats counts each slab's errors, so a point's working set is its
draws plus one slab; MAX_POINT_VALUES bounds the draws.

Importing the module raises glibc's heap trim and mmap thresholds
(_keep_freed_heap), so each point reuses the heap the last one freed.

Pooled calls (threads > 1) share one process pool, kept for the life of
the process, because starting one per call cost more than the points of a
small grid: forking the workers, each importing numpy.random on its first
point, and joining them again. It is replaced when a call needs another
worker count and dropped when a call fails, and its workers end when the
interpreter exits. The workers are forked at the first pooled call, so a
module global patched in the parent after that does not reach them; points
carry their config, so results do not depend on which worker runs them.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .chipseq import BITS_PER_SYMBOL, CHIPS_PER_SYMBOL
from .demod import _PatternGather
from .receiver import decide
from .signal_model import TWO_PI, _is_integer, _is_number, draw_payloads

PAYLOAD_MODES = ("independent", "identical")
CODINGS = ("uncoded", "hdd", "sdd")
TARGETS = ("soi", "interferer")


#: Most values one grid axis may hold (the largest preset axis has 64).
MAX_GRID_POINTS = 1024

#: Most worker processes one run may start.
MAX_THREADS = 64

#: Soft values evaluated at once: a point runs in slabs of
#: max(1, SLAB_VALUES // chips) packets, so a coded point (512 chips a
#: packet) takes 128-packet slabs and an uncoded 1000 x 64 point one slab.
SLAB_VALUES = 2**16

#: Most values one point may draw: packets x chips x senders.
MAX_POINT_VALUES = 2**27


def _keep_freed_heap():
    """Let glibc keep up to 64 MiB of freed heap and serve blocks below
    32 MiB from it, rather than trimming the heap and mapping fresh pages
    for each point. A no-op where the C library has no mallopt. Forked
    pool workers inherit the setting; spawned ones import this module."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check_integer(name: str, value, least: int, most: int | None = None) -> int:
    """value as an int; ConfigError unless it is an integer, not a bool, in
    least..most (unbounded above when most is None)."""
    if not _is_integer(value) or value < least or (most is not None and value > most):
        bounds = f"at least {least}" if most is None else f"in {least}..{most}"
        raise ConfigError(f"{name} must be an integer {bounds}, not {value!r}")
    return int(value)


def _check_number(name: str, value, least: float | None = None) -> float:
    """value as a float; ConfigError unless it is a finite number, not a
    bool, and not below least when that is given."""
    if not _is_number(value) or (least is not None and value < least):
        bounds = "" if least is None else f" of at least {least}"
        raise ConfigError(f"{name} must be a finite number{bounds}, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description; grids and per-point simulation parameters.

    phi_c None draws each packet's carrier phase offsets uniformly from
    [0, 2 pi); a number fixes them all to it. The n_interferers
    interferers share the SIR's interference power equally."""

    packets_per_point: int = 1000
    payload_bits: int = 64
    payload_mode: str = "independent"
    coding: str = "uncoded"
    target: str = "soi"
    tau_grid: tuple = ()
    sir_db_grid: tuple = ()
    phi_c: float | None = None
    n_interferers: int = 1
    master_seed: int = 1234
    noise_std: float = 0.0

    def __post_init__(self):
        """Raise ConfigError for a bad field, so that every config,
        replace()d ones too, is valid, and store numbers as Python ints and
        floats (the grids as float tuples), numpy scalars included, which
        the point keys and manifests take. Grids may be empty; sweep and
        capture_zone check their own."""
        for name in ("tau_grid", "sir_db_grid"):
            try:
                values = tuple(itertools.islice(getattr(self, name), MAX_GRID_POINTS + 1))
            except TypeError:
                raise ConfigError(f"{name} must be a sequence of numbers, "
                                  f"not {getattr(self, name)!r}") from None
            if len(values) > MAX_GRID_POINTS:
                raise ConfigError(f"{name} holds more than {MAX_GRID_POINTS} values")
            object.__setattr__(self, name, tuple(_check_number(f"{name} value", value)
                                                 for value in values))
        for name, least, most in (("packets_per_point", 1, None), ("payload_bits", 1, None),
                                  ("n_interferers", 0, None), ("master_seed", 0, 2**64 - 1)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), least, most))
        if self.phi_c is not None:
            object.__setattr__(self, "phi_c", _check_number("phi_c", self.phi_c))
        object.__setattr__(self, "noise_std", _check_number("noise_std", self.noise_std, 0))
        for name, choices in (("payload_mode", PAYLOAD_MODES), ("coding", CODINGS),
                              ("target", TARGETS)):
            value = getattr(self, name)
            if not isinstance(value, str) or value not in choices:
                raise ConfigError(f"{name} must be one of {choices}, not {value!r}")
        for sir_db in self.sir_db_grid:
            _interference_level(sir_db)
        if self.coding != "uncoded" and self.payload_bits % BITS_PER_SYMBOL:
            raise ConfigError("coded payload_bits must be a multiple of 4")
        if self.target == "interferer" and self.n_interferers < 1:
            raise ConfigError("target 'interferer' needs at least one interferer")
        chips = self.payload_bits * (1 if self.coding == "uncoded" else 8)
        values = self.packets_per_point * chips * (1 + self.n_interferers)
        if values > MAX_POINT_VALUES:
            raise ConfigError(f"a point would draw {values} values (packets x chips x "
                              f"senders), more than {MAX_POINT_VALUES}")

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
        return cls(**data)


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


@dataclass(frozen=True)
class ZoneCell:
    """Error rate of one (tau, phi_c) cell of a capture-zone map."""

    tau: float
    phi_c: float
    error_rate: float


@dataclass(frozen=True)
class NInterfererPoint:
    """SDD-style reception ratio for one (n, layout, payload_mode) cell."""

    n: int
    layout: str
    payload_mode: str
    prr_mean: float
    prr_std: float


def grid(start: float, stop: float, step: float) -> tuple:
    """Inclusive numeric grid with round-off-stable values; at most
    MAX_GRID_POINTS of them, checked before any is built."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        _check_number(f"grid {name}", value)
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


def split_amplitudes(total_power: float, n: int) -> tuple:
    """Amplitudes of n interferers sharing a positive total power equally."""
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
    seq = np.random.SeedSequence([int(master_seed), key])
    return np.random.default_rng(seq)


def _compute_soft(soi_chips, interferer_chips, amplitudes, tau, phi,
                  noise=None, out=None, gather=None):
    """Transmit-order soft values of a batch of packets (pure given the draws).

    soi_chips and each entry of interferer_chips are (packets, n_chips) +-1
    arrays in transmit order; phi has one column per interferer; noise is
    an optional (noise_i, noise_q) pair. The values land in one
    (packets, n_chips) float64 buffer: out if given, else a new array.

    Within a packet, an interferer's contribution at a position depends
    only on its phase and four ternary chips (main prev/cur, leak
    prev/cur), and both branches weight those chips alike, so it takes at
    most 81 values: it is gathered from a per-packet table of all 81
    patterns (gather, a _PatternGather for at least these packets, or one
    built here), the same table interference_contribution reads; phases
    with a row stride of 0 (np.broadcast_to) share one table.
    """
    soft = np.empty(soi_chips.shape) if out is None else out
    np.copyto(soft, soi_chips)  # a copy: the input is never written
    if gather is None and len(interferer_chips):
        gather = _PatternGather(len(soft), soft.shape[-1], tau)
    for idx, chips in enumerate(interferer_chips):
        soft += gather(chips, amplitudes[idx], phi[..., idx])
    if noise is not None:
        soft[..., 0::2] += noise[0]
        soft[..., 1::2] += noise[1]
    return soft


def _draw_point(cfg: ExperimentConfig, tau: float, amplitudes: tuple):
    """One grid point's draws from its own RNG stream, in the canonical
    order: payloads (draw_payloads), phase offsets (when phi_c is None), then
    noise. Returns (senders, phi, noise); replaying a point reruns this."""
    packets, n_int = cfg.packets_per_point, len(amplitudes)
    coded = cfg.coding != "uncoded"
    n_chips = 8 * cfg.payload_bits if coded else cfg.payload_bits
    fixed = cfg.phi_c is not None
    # the phase-mode names the point streams were keyed with
    rng = _point_rng(cfg.master_seed, float(tau), tuple(float(a) for a in amplitudes),
                     "fixed" if fixed else "random_uniform", cfg.phi_c if fixed else -1.0,
                     cfg.payload_mode, cfg.coding, cfg.target, packets, cfg.payload_bits,
                     float(cfg.noise_std))
    senders = draw_payloads(rng, cfg.payload_mode, coded, cfg.payload_bits, n_int, packets)
    if fixed:
        # a row stride of 0: the gather builds one table for every packet
        phi = np.broadcast_to(cfg.phi_c, (packets, n_int))
    else:
        phi = rng.uniform(0.0, TWO_PI, size=(packets, n_int))
    noise = None
    if cfg.noise_std > 0:
        noise = (rng.normal(0.0, cfg.noise_std, size=(packets, n_chips - n_chips // 2)),
                 rng.normal(0.0, cfg.noise_std, size=(packets, n_chips // 2)))
    return senders, phi, noise


def _evaluate(coding: str, tau: float, amplitudes: tuple, draws):
    """Decide a point's draws in slabs of max(1, SLAB_VALUES // chips) packets.

    Yields (rows, sliced, symbols, corr) per slab: rows is the slice of the
    slab's packets, the rest is decide()'s return for their soft values.
    All slabs share one soft buffer and one _PatternGather."""
    senders, phi, noise = draws
    soi_chips = senders[0][1]
    packets, n_chips = soi_chips.shape
    slab = max(1, SLAB_VALUES // n_chips)
    soft_buf = np.empty((min(slab, packets), n_chips))
    gather = _PatternGather(len(soft_buf), n_chips, tau) if amplitudes else None
    for start in range(0, packets, slab):
        rows = slice(start, min(start + slab, packets))
        soft = _compute_soft(soi_chips[rows], [chips[rows] for _, chips in senders[1:]],
                             amplitudes, tau, phi[rows],
                             None if noise is None else (noise[0][rows], noise[1][rows]),
                             out=soft_buf[:rows.stop - start], gather=gather)
        yield (rows, *decide(soft, coding))


def _point_stats(cfg: ExperimentConfig, tau: float, amplitudes: tuple) -> tuple:
    """(prr_mean, prr_std, ber, ser) of one grid point, counted against the
    target's payload; ser is 0.0 for uncoded points."""
    draws = _draw_point(cfg, tau, amplitudes)
    ref_symbols, ref_chips = draws[0][0 if cfg.target == "soi" else 1]
    packets, n_chips = ref_chips.shape
    coded = cfg.coding != "uncoded"
    bit_err = np.empty(packets, dtype=np.int64)
    sym_err = np.zeros(packets, dtype=np.int64)
    for rows, sliced, symbols, _ in _evaluate(cfg.coding, tau, amplitudes, draws):
        errors = np.packbits(sliced != ref_chips[rows], axis=1)
        bit_err[rows] = np.bitwise_count(errors).sum(axis=1)
        if coded:
            sym_err[rows] = (symbols != ref_symbols[rows]).sum(axis=1)
    prr_mean, prr_std = _prr_stats((sym_err if coded else bit_err) == 0)
    ber = int(bit_err.sum()) / (packets * n_chips)
    ser = int(sym_err.sum()) / (packets * n_chips // CHIPS_PER_SYMBOL) if coded else 0.0
    return prr_mean, prr_std, ber, ser


def _prr_stats(ok: np.ndarray) -> tuple[float, float]:
    """Mean PRR plus its spread across 10 equal batches of the packet set."""
    packets = len(ok)
    mean = float(np.mean(ok))
    n_batches = min(10, packets)
    if n_batches < 2:
        return mean, 0.0
    # np.array_split's sections: the first packets % n_batches hold one more
    sizes = np.full(n_batches, packets // n_batches)
    sizes[:packets % n_batches] += 1
    starts = np.cumsum(sizes) - sizes
    batch_means = np.add.reduceat(ok, starts, dtype=np.float64) / sizes
    return mean, float(np.std(batch_means, ddof=1))


def _point_amplitudes(cfg: ExperimentConfig, sir_db: float) -> tuple:
    return split_amplitudes(_interference_level(sir_db), cfg.n_interferers)


def run_point(cfg: ExperimentConfig, tau: float, sir_db: float) -> MetricPoint:
    """Simulate one (tau, SIR) grid point; a tau or SIR that is not a finite
    number is a ConfigError."""
    tau, sir_db = _check_number("tau", tau), _check_number("sir_db", sir_db)
    amplitudes = _point_amplitudes(cfg, sir_db)
    return MetricPoint(tau, sir_db, *_point_stats(cfg, tau, amplitudes),
                       cfg.packets_per_point)


#: The worker pool every pooled call reuses, as (workers, executor); None
#: before the first pooled call and after a failed one.
_pool = None


def _drop_pool():
    """Forget the kept pool, then shut it down, cancelling any pending point."""
    global _pool
    pool, _pool = _pool[1], None
    pool.shutdown(cancel_futures=True)


def _map_points(points: list, threads: int) -> list:
    """_point_stats of each (config, tau, amplitudes) point, in order, over
    at most threads worker processes.

    Pooled calls reuse one kept pool of min(threads, len(points)) workers. A
    call that needs another worker count replaces it, and a call that
    raises (a dead worker included) drops it, so the next starts afresh."""
    global _pool
    _check_integer("threads", threads, 1, MAX_THREADS)
    threads = min(threads, len(points))
    if threads <= 1:
        return [_point_stats(*point) for point in points]
    if _pool is not None and _pool[0] != threads:
        _drop_pool()
    if _pool is None:
        _pool = (threads, ProcessPoolExecutor(max_workers=threads))
    chunk = max(1, len(points) // (4 * threads))
    try:
        return list(_pool[1].map(_point_stats, *zip(*points), chunksize=chunk))
    except BaseException:
        _drop_pool()
        raise


def sweep(cfg: ExperimentConfig, threads: int = 1) -> list[MetricPoint]:
    """Run the full tau x SIR grid; deterministic for a given master seed
    regardless of threads."""
    if not cfg.tau_grid or not cfg.sir_db_grid:
        raise ConfigError("tau_grid and sir_db_grid must not be empty")
    keys = [(tau, sir) for tau in cfg.tau_grid for sir in cfg.sir_db_grid]
    points = [(cfg, tau, _point_amplitudes(cfg, sir)) for tau, sir in keys]
    return [MetricPoint(tau, sir, *stats, cfg.packets_per_point)
            for (tau, sir), stats in zip(keys, _map_points(points, threads))]


def capture_zone(cfg: ExperimentConfig, phi_points: int,
                 threads: int = 1) -> list[ZoneCell]:
    """Error-rate map over (tau, phi_c) cells at the config's one SIR.

    The cells are cfg.tau_grid times phi_points carrier phase offsets
    spread uniformly over [0, 2 pi). Each cell fixes its phase offset; the
    error rate is the bit error rate for uncoded operation and the symbol
    error rate for the coded modes.
    """
    if not cfg.tau_grid:
        raise ConfigError("capture zone tau_grid must not be empty")
    if len(cfg.sir_db_grid) != 1:
        raise ConfigError(f"a capture zone needs exactly one SIR, not "
                          f"{len(cfg.sir_db_grid)}")
    _check_integer("phi_points", phi_points, 1, MAX_GRID_POINTS)
    phase_cfgs = [replace(cfg, phi_c=i * 2.0 * math.pi / phi_points)
                  for i in range(phi_points)]
    amplitudes = _point_amplitudes(cfg, cfg.sir_db_grid[0])
    points = [(phase_cfg, tau, amplitudes) for tau in cfg.tau_grid for phase_cfg in phase_cfgs]
    uncoded = cfg.coding == "uncoded"
    return [ZoneCell(tau, phase_cfg.phi_c, ber if uncoded else ser)
            for (phase_cfg, tau, _), (_, _, ber, ser)
            in zip(points, _map_points(points, threads))]


def n_interferer_experiment(cfg: ExperimentConfig, max_n: int = 8,
                            threads: int = 1) -> list[NInterfererPoint]:
    """Reception under one strong interferer versus n weaker ones.

    All interferers are time-synchronized (tau = 0) with i.i.d. uniform
    phase offsets; each weak interferer carries half the synchronized
    sender's power, the single strong one carries n times that. Runs both
    payload modes and both layouts ("single": one interferer,
    "equal_split": n of them) for n = 1..max_n.
    """
    _check_integer("max_n", max_n, 1, MAX_GRID_POINTS)
    keys = [(n, layout, mode)
            for mode in PAYLOAD_MODES
            for layout in ("single", "equal_split")
            for n in range(1, max_n + 1)]
    counts = [1 if layout == "single" else n for n, layout, _ in keys]
    points = [(replace(cfg, payload_mode=mode, n_interferers=count, phi_c=None), 0.0,
               split_amplitudes(n * 0.5, count)) for (n, _, mode), count in zip(keys, counts)]
    return [NInterfererPoint(n, layout, mode, prr_mean, prr_std)
            for (n, layout, mode), (prr_mean, prr_std, _, _)
            in zip(keys, _map_points(points, threads))]
