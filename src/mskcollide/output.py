"""Result tables and run manifests.

Each table names its columns once, as the row attributes they hold, and
one writer puts the rows out as CSV under a fixed header or as JSON objects
keyed by the same header. Each table gets a manifest sidecar
(<stem>.manifest.json) recording the configuration snapshot, the master
seed, tool version, wall-clock duration, and a checksum of every data
file, which ties outputs to the run that produced them. Data files are
byte-stable for a given master seed; the manifest is not (it records the
duration).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .chipseq import chip_table_csv
from .montecarlo import MetricPoint, NInterfererPoint, ZoneCell

#: Each table's columns, named by the row attribute they hold.
SWEEP_FIELDS = ("tau", "sir_db", "prr_mean", "prr_std", "ber", "ser", "packets")
ZONE_FIELDS = ("tau", "phi_c", "error_rate")
NINTERF_FIELDS = ("n", "layout", "payload_mode", "prr_mean", "prr_std")

#: Column headers that differ from their row attribute.
_HEADERS = {"tau": "tau_over_T", "error_rate": "ber_or_ser"}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(rows: list, fields: tuple, path, fmt: str):
    """Each row's fields, read with getattr, as CSV lines under the header
    or as JSON objects keyed by it."""
    header = [_HEADERS.get(f, f) for f in fields]
    table = [[getattr(row, f) for f in fields] for row in rows]
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(map(_fmt, values)) for values in table]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps([dict(zip(header, values)) for values in table], indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    Path(path).write_text(text)


def write_sweep(points: list[MetricPoint], path, fmt: str = "csv"):
    _write_rows(points, SWEEP_FIELDS, path, fmt)


def write_zone(cells: list[ZoneCell], path, fmt: str = "csv"):
    _write_rows(cells, ZONE_FIELDS, path, fmt)


def write_ninterf(rows: list[NInterfererPoint], path, fmt: str = "csv"):
    _write_rows(rows, NINTERF_FIELDS, path, fmt)


def write_chip_table(path=None):
    """Chip-table CSV to a file, or to stdout when no path is given."""
    text = chip_table_csv()
    if path is None or str(path) == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def write_manifest(output_path, command: str, config: dict, duration_s: float,
                   extra: dict) -> Path:
    """Manifest sidecar for one output file; returns the sidecar path. Its
    keys come in the order tool, version, command, master_seed (read from
    config), config, duration_s, outputs, then those of extra."""
    out = Path(output_path)
    doc = {
        "tool": "mskcollide",
        "version": __version__,
        "command": command,
        "master_seed": config["master_seed"],
        "config": config,
        "duration_s": duration_s,
        "outputs": [{"path": out.name, "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}],
        **extra,
    }
    side = out.with_name(out.stem + ".manifest.json")
    side.write_text(json.dumps(doc, indent=2) + "\n")
    return side
