"""Robustness metrics over simulation results.

Complements :mod:`repro.eval.metrics` with the overload-specific
quantities EXP-R1 reports: how much load was shed (aborts / skipped
releases), how long tasks spent in degraded mode, and how noisy the DMA
path was.

NOTE: this module must not import :mod:`repro.sched.simulator` at
runtime — the simulator itself imports :mod:`repro.robust` for its fault
hooks, and a runtime import here would close the cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sched.simulator import SimResult


def released_jobs(result: "SimResult") -> int:
    """Jobs actually released (skipped releases excluded)."""
    return sum(s.jobs for s in result.stats.values())


def failed_jobs(result: "SimResult") -> int:
    """Jobs that missed, were aborted, or never finished."""
    return result.total_misses


def miss_ratio(result: "SimResult") -> float:
    """Fraction of released jobs that failed their deadline."""
    released = released_jobs(result)
    if released == 0:
        return 0.0
    return failed_jobs(result) / released


def aborted_jobs(result: "SimResult") -> int:
    """Jobs killed at their deadline (``ABORT_AT_DEADLINE``)."""
    return sum(s.aborts for s in result.stats.values())


def skipped_releases(result: "SimResult") -> int:
    """Releases suppressed by a late predecessor (``SKIP_NEXT``)."""
    return sum(s.skips for s in result.stats.values())


def degraded_residency(result: "SimResult") -> float:
    """Fraction of released jobs that ran a fallback variant."""
    released = released_jobs(result)
    if released == 0:
        return 0.0
    return sum(s.degraded_jobs for s in result.stats.values()) / released


def robustness_summary(result: "SimResult") -> Dict[str, float]:
    """One-row summary of a fault-injected run (EXP-R1's columns)."""
    return {
        "released": released_jobs(result),
        "miss_ratio": miss_ratio(result),
        "misses": sum(s.misses for s in result.stats.values()),
        "aborts": aborted_jobs(result),
        "skips": skipped_releases(result),
        "unfinished": sum(s.unfinished for s in result.stats.values()),
        "degraded_residency": degraded_residency(result),
        "dma_retries": result.dma_retries,
    }


def sacrificed_releases(result: "SimResult") -> int:
    """Releases suppressed because their task was quarantined."""
    return sum(s.quarantined_releases for s in result.stats.values())


def survival_miss_ratio(result: "SimResult") -> float:
    """Miss ratio counting quarantined releases as sacrificed jobs.

    :func:`miss_ratio` only divides by jobs actually released, which
    would make quarantining a task look *better* than recovering it.
    This variant charges every suppressed release of a quarantined task
    as a failed job — the honest figure of merit for comparing recovery
    protocols (EXP-R2).
    """
    released = released_jobs(result)
    sacrificed = sacrificed_releases(result)
    if released + sacrificed == 0:
        return 0.0
    return (failed_jobs(result) + sacrificed) / (released + sacrificed)


def mean_recovery_latency(result: "SimResult") -> float:
    """Mean cycles from a job's first terminal fault to its completion.

    Only jobs that *survived* a fault (via REMAP or XIP_FALLBACK) have a
    recovery latency; returns 0.0 when no job recovered.
    """
    if not result.recovery_latencies:
        return 0.0
    return sum(result.recovery_latencies) / len(result.recovery_latencies)


def recovery_summary(result: "SimResult") -> Dict[str, float]:
    """One-row summary of a recovery run (EXP-R2's columns)."""
    counts = result.recovery_counts
    return {
        "released": released_jobs(result),
        "miss_ratio": miss_ratio(result),
        "survival_miss_ratio": survival_miss_ratio(result),
        "faults": len(result.fault_events),
        "remaps": counts.get("remap", 0),
        "xip_fallbacks": counts.get("xip-fallback", 0),
        "degrades": counts.get("degrade", 0),
        "quarantined_tasks": len(result.quarantined),
        "sacrificed": sacrificed_releases(result),
        "mean_recovery_latency": mean_recovery_latency(result),
    }


def chaos_summary(report) -> Dict[str, float]:
    """One-row summary of a chaos matrix run (EXP-R3's columns).

    Takes a :class:`repro.robust.chaos.ChaosReport` (duck-typed to keep
    this module import-cycle-free); the key figure of merit is
    ``identical_ratio`` — the fraction of crash/perturbation cells whose
    recovered decision log and final task set matched the uninterrupted
    run bit-for-bit (must be 1.0).
    """
    cells = report.cells
    replayed = [cell.decisions_replayed for cell in cells]
    return {
        "cells": len(cells),
        "identical_cells": report.identical_cells,
        "identical_ratio": (report.identical_cells / len(cells)) if cells else 0.0,
        "max_replayed": report.max_replayed,
        "mean_replayed": (sum(replayed) / len(replayed)) if replayed else 0.0,
        "truncated_lines": sum(cell.truncated_lines for cell in cells),
        "commits_repaired": sum(cell.commits_repaired for cell in cells),
        "duplicates_absorbed": sum(cell.duplicates_absorbed for cell in cells),
        "invariant_checks": sum(report.invariants.values()),
    }


def fleet_chaos_summary(report) -> Dict[str, float]:
    """One-row summary of a fleet chaos matrix run (EXP-S3's gate columns).

    Takes a :class:`repro.robust.chaos.FleetChaosReport` (duck-typed, as
    above).  ``identical_ratio`` must be 1.0: every crash-point x
    shard-count x perturbation cell recovered to the exact decision
    stream of its uninterrupted baseline.
    """
    cells = report.cells
    replayed = [cell.max_replayed for cell in cells]
    return {
        "cells": len(cells),
        "identical_cells": report.identical_cells,
        "identical_ratio": (report.identical_cells / len(cells)) if cells else 0.0,
        "max_replayed": report.max_replayed,
        "mean_replayed": (sum(replayed) / len(replayed)) if replayed else 0.0,
        "crashes": sum(cell.crashes for cell in cells),
        "recovered": sum(cell.recovered for cell in cells),
        "shed": sum(cell.shed for cell in cells),
        "invariant_checks": sum(report.invariants.values()),
    }
