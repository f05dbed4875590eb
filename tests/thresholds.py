"""The 90 %-PRR capture threshold that the acceptance criteria read from a
sweep: a test-side helper, not part of the package."""

from __future__ import annotations

from dataclasses import dataclass

from mskcollide import MetricPoint


@dataclass(frozen=True)
class ThresholdPoint:
    """Smallest SIR reaching the PRR threshold at one time offset; sir_db is
    None where no grid SIR reaches it."""

    tau: float
    sir_db: float | None


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
