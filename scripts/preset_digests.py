#!/usr/bin/env python3
"""Regenerate the 15 preset tables and compare them with their pinned digests.

Run from anywhere; it imports the package from this checkout's src/:

    python3 scripts/preset_digests.py

Each sweep preset (fig5a..fig10c) and zone preset (fig11a..fig11c) is
written as CSV at --threads 2, with the default seed and packet count, into
a temporary directory that is removed afterwards. Every table's sha256 is
compared with scripts/preset_digests.json. Exits 0 when all match; else
names each mismatch on stderr and exits 1. The full set takes about a
minute on two cores.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mskcollide.cli import main as cli_main  # noqa: E402
from mskcollide.presets import PRESETS, ZONE_PRESETS  # noqa: E402


def main() -> int:
    pinned = json.loads((HERE / "preset_digests.json").read_text())["sha256"]
    commands = {name: "sweep" for name in PRESETS} | {name: "zone" for name in ZONE_PRESETS}
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(commands):
            out = Path(tmp) / f"{name}.csv"
            started = time.monotonic()
            code = cli_main([commands[name], "--preset", name, "--threads", "2", "--out", str(out)])
            if code != 0:
                mismatches.append(f"{out.name}: {commands[name]} exited {code}")
                continue
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            want = pinned.get(out.name)
            ok = digest == want
            print(f"{out.name}: {'ok' if ok else 'MISMATCH'} {digest} "
                  f"({time.monotonic() - started:.1f} s)")
            if not ok:
                mismatches.append(f"{out.name}: sha256 {digest}, pinned {want}")
    mismatches += [f"{name}: pinned, but no preset writes it"
                   for name in sorted(set(pinned) - {f"{name}.csv" for name in commands})]
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
