"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from the span file it writes.

The recorder wraps module attributes that the package resolves at call time
(for example ``mskcollide.montecarlo.batch_interference``), keeps every span
in memory, writes them as JSON lines when the run ends, and restores the
original attributes when the traced phase ends. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
from collections import defaultdict

#: Public receiver functions; each one the engine resolves is traced. None
#: is resolved by the engine yet, so their metrics read 0 until decisions
#: route through the receiver ("decide" is the batched entry point planned
#: for that).
RECEIVER_FNS = ("slice_bit", "hdd_decode", "sdd_decode", "despread_reference",
                "decode_packet", "decide")

ORACLE_FNS = ("oracle_lambda_baseband", "rect_integral", "rect_integral_quadrature")


def array_bytes(args, result) -> int:
    """Bytes of the array arguments plus the result: computed from shapes,
    ignoring temporaries and cache effects."""
    return sum(getattr(a, "nbytes", 0) for a in (*args, result))


class Tracer:
    """Records spans (name, start, end, parent, op) around wrapped calls.

    A call made with no open span starts a new operation; nested calls
    inherit its operation id.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[tuple[int, int]] = []
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, size=None):
        """Replace module.attr with a span recorder; size(args, result)
        adds a "bytes" field. A missing attribute is skipped."""
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent, op = self._stack[-1] if self._stack else (None, sid)
            self._stack.append((sid, op))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op}
            if size is not None:
                span["bytes"] = size(args, result)
            self.spans.append(span)
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, traced)

    def record(self, name: str, start: float, end: float, **fields):
        """Add a span measured by the caller, such as a whole phase."""
        sid = next(self._ids)
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": None, "op": sid, **fields})

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(spans, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the spans."""
    covered, reach = 0.0, lo
    for s in sorted(spans, key=lambda s: s["start"]):
        start, end = max(s["start"], reach), min(s["end"], hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(path, threads: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from a span file, plus a list of consistency errors.

    threads is the worker count of the pool phase, used for the parallel
    efficiency. Metrics of layers the workload does not exercise read 0.
    """
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def per(x, n):
        return x / n if n else 0.0

    errors = []
    points = by_name["montecarlo.run_point"]
    n_pts = len(points)
    point_s = total("montecarlo.run_point")
    self_s = 0.0
    for s in points:
        kids = children[s["id"]]
        covered = _covered(kids, s["start"], s["end"])
        self_s += dur(s) - covered
        if abs(covered - sum(dur(k) for k in kids)) > 1e-9:
            errors.append(f"run_point span {s['id']}: child spans overlap or "
                          "leave the parent, so self + children != span")

    m = {
        "montecarlo.run_point.ms_per_call": per(point_s, n_pts) * 1e3,
        "montecarlo.run_point.self_ms_per_call": per(self_s, n_pts) * 1e3,
        "montecarlo.run_point.self_share": per(self_s, point_s),
    }

    phases = defaultdict(list)
    for s in by_name["bench.phase"]:
        phases[s["phase"]].append(s)
    sweeps = by_name["montecarlo.sweep"]
    if phases["pool"] and sweeps:
        busy = statistics.median(
            sum(dur(k) for k in children[s["id"]] if k["name"] == "montecarlo.run_point")
            for s in sweeps)
        wall = statistics.median(p["op_s_median"] for p in phases["pool"])
        m["montecarlo.parallel_efficiency"] = busy / (threads * wall)
    else:
        m["montecarlo.parallel_efficiency"] = 0.0

    kernel = by_name["demod.batch_interference"]
    m["demod.batch_interference.calls"] = per(len(kernel), n_pts)
    m["demod.batch_interference.ms_per_point"] = per(total("demod.batch_interference"), n_pts) * 1e3
    m["demod.batch_interference.share"] = per(total("demod.batch_interference"), point_s)
    m["demod.batch_interference.computed_mb_per_call"] = (
        per(sum(s["bytes"] for s in kernel), len(kernel)) / 1e6)

    def per_call(name, scale):
        return per(total(name), len(by_name[name])) * scale

    m["demod.interference_contribution.us_per_call"] = per_call("demod.interference_contribution", 1e6)
    m["oracle.oracle_lambda_baseband.ms_per_call"] = per_call("oracle.oracle_lambda_baseband", 1e3)
    m["oracle.rect_integral_quadrature.ms_per_call"] = per_call("oracle.rect_integral_quadrature", 1e3)
    m["oracle.rect_integral.us_per_call"] = per_call("oracle.rect_integral", 1e6)
    m["oracle.share"] = per(sum(total(f"oracle.{fn}") for fn in ORACLE_FNS),
                            total("cli.main"))

    for fn in RECEIVER_FNS:
        name = f"receiver.{fn}"
        m[f"{name}.calls"] = per(len(by_name[name]), n_pts)
        m[f"{name}.ms_per_point"] = per(total(name), n_pts) * 1e3

    m["output.write_sweep.ms_per_call"] = per_call("output.write_sweep", 1e3)

    def rate(name):
        return sum(p["items"] for p in phases[name]) / sum(dur(p) for p in phases[name])

    m["trace.overhead_frac"] = 1.0 - rate("traced") / rate("untraced")
    return m, errors
