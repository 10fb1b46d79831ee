"""Evaluation metrics: schedulability ratios, tightness, latency stats.

The simulated miss ratio is :func:`repro.robust.metrics.miss_ratio`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sched.simulator import SimResult


def schedulability_ratio(verdicts: Sequence[bool]) -> float:
    """Fraction of task sets admitted."""
    if not verdicts:
        raise ValueError("verdicts must be non-empty")
    return sum(verdicts) / len(verdicts)


def tightness_ratios(
    result: SimResult, bounds: Dict[str, Optional[int]]
) -> List[float]:
    """Per-task ``observed_max / analytic_bound`` ratios.

    Only tasks with a bound and at least one finished job contribute.
    Values must be <= 1.0 for a safe analysis (property-tested).
    """
    ratios = []
    for name, stats in result.stats.items():
        bound = bounds.get(name)
        observed = stats.max_response
        if bound and observed is not None:
            ratios.append(observed / bound)
    return ratios


def quantiles(values: Sequence[float], points: Sequence[float]) -> List[Optional[float]]:
    """Simple inclusive quantiles (no interpolation beyond nearest rank)."""
    if not values:
        return [None for _ in points]
    ordered = sorted(values)
    result = []
    for p in points:
        if not 0 <= p <= 1:
            raise ValueError(f"quantile points must be in [0, 1], got {p}")
        rank = min(len(ordered) - 1, max(0, round(p * (len(ordered) - 1))))
        result.append(ordered[rank])
    return result


def latency_stats(
    values: Sequence[float], digits: int = 1
) -> Dict[str, Optional[float]]:
    """The shared latency-metrics shape: n/mean/p50/p95/p99/max.

    One dict layout used by ``ServeReport``, ``FleetReport`` and the
    experiment drivers' meta blocks, so single-device and fleet-scale
    reports stay field-compatible.  Empty input yields ``n == 0`` with
    every statistic ``None``.
    """
    if not values:
        return {"n": 0, "mean": None, "p50": None, "p95": None, "p99": None,
                "max": None}
    ordered = sorted(values)
    p50, p95, p99 = quantiles(ordered, (0.5, 0.95, 0.99))
    return {
        "n": len(ordered),
        "mean": round(sum(ordered) / len(ordered), digits),
        "p50": round(p50, digits),
        "p95": round(p95, digits),
        "p99": round(p99, digits),
        "max": round(ordered[-1], digits),
    }


def speedup(baseline: float, improved: float) -> float:
    """Baseline-over-improved ratio (>1 means ``improved`` is faster)."""
    if improved <= 0:
        raise ValueError(f"improved must be positive, got {improved}")
    return baseline / improved
