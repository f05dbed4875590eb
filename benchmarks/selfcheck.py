#!/usr/bin/env python3
"""Fast self-check of the benchmark, on tiny grids. From the repository root:

    python3 benchmarks/selfcheck.py

It confirms that:
- each pinned digest equals the sha256 of the CSV that `mskcollide sweep
  --config` writes for the same default-seed grid;
- a different seed changes the generated inputs;
- every workload prints every metric named in BENCHMARK.json, with tracing
  off and on, and fails no operation;
- a corrupted pinned digest raises failed_frac to 1.

Exits 1 and names the first failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import run

TINY = (2, 2)
SECONDS = 0.4


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    pkg = run.load_package()
    spec = run.benchmark_spec()

    for workload in run.SWEEP_PRESETS:
        for name, cfg in run.sweep_configs(pkg.presets, workload, run.DEFAULT_SEED):
            config = run.OUT / f"selfcheck-{name}.json"
            table = run.OUT / f"selfcheck-{name}.csv"
            run.OUT.mkdir(exist_ok=True)
            config.write_text(json.dumps(cfg.to_dict()))
            code = pkg.cli.main(["sweep", "--config", str(config), "--out", str(table)])
            digest = hashlib.sha256(table.read_bytes()).hexdigest()
            check(code == 0 and digest == run.PINNED[name],
                  f"pinned {name} digest equals `mskcollide sweep` output ({digest})")

    for workload in run.SWEEP_PRESETS:
        check(run.sweep_configs(pkg.presets, workload, 1)
              != run.sweep_configs(pkg.presets, workload, 2),
              f"{workload}: a different seed changes the generated configs")
    check(run.validate_argv(1, 0) != run.validate_argv(2, 0),
          "oracle_validate: a different seed changes the validate arguments")

    for workload in run.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                result, _ = run.execute(workload, 7, SECONDS, trace, shape=TINY)
            names = [m["name"] for m in spec[kind]]
            check(list(result["metrics"]) == names,
                  f"{workload} --trace {int(trace)}: every {kind} metric is printed")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} --trace {int(trace)}: no operation fails")

    corrupt = {name: "0" * 64 for name in run.PINNED}
    for workload in run.SWEEP_PRESETS:
        result, info = run.execute(workload, 7, SECONDS, False, shape=TINY, pinned=corrupt)
        check(info["failed_frac"] == 1.0 and not result["correct"],
              f"{workload}: a corrupted pinned digest raises failed_frac to 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
