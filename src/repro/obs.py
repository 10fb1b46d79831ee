"""One registry for the pipeline's work counters and phase timers.

Every stage of the pipeline counts its own work: the plan caches, the
steady-state folding simulator, the struct-of-arrays simulator core, the
RTA vector engine, the persistent plan store and the fleet's resilience
machinery.  :data:`TABLE` lists every group and its
fields once.  A module takes its group's live dict from :func:`live` at
import time and bumps it with plain dict increments, so the hot paths
pay nothing for the registry.

Counters are **monotone**: nothing ever zeroes them (clearing a cache
drops its entries, never its counts).  A reader takes a :func:`snapshot`
before the work it measures and diffs with :func:`delta_since` after.
:func:`repro.eval.parallel.run_units` ships each pooled unit's delta
home and adds it to the parent's counters (:func:`absorb`), so a
parent-side delta counts every unit wherever it ran.

Timer groups accumulate wall-clock seconds for ``rtmdm exp --profile``
and the benchmark's per-layer split.  Wall time is not deterministic,
so timers stay out of snapshots; :func:`reset_timers` zeroes a group.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

__all__ = [
    "TABLE",
    "TIMERS",
    "absorb",
    "delta_since",
    "live",
    "merge",
    "reset_timers",
    "snapshot",
    "stats",
]

#: Every counter and timer group with its fields, in snapshot order.
#: The tuple layout of each counter group is a contract: benchmark
#: harnesses and CI read snapshot tuples by position.
TABLE: Dict[str, Tuple[str, ...]] = {
    # Plan-cache stages (repro.core.segcache).
    "zoo": ("hits", "misses"),
    "refine": ("hits", "misses"),
    "search": ("hits", "misses"),
    "analysis": ("hits", "misses"),
    # Steady-state folding; bumped by both simulator engines.
    "sim.fold": ("runs", "folds", "cycles_skipped", "jobs_skipped"),
    # Struct-of-arrays simulator core (repro.sched.simcore).
    "sim.soa": ("sim_soa_runs", "sim_soa_events", "sim_stand_downs"),
    # RTA vector engine (repro.sched.vecrta).  Nothing counts into
    # exact_hits, misses or warm_hits, so they always read 0; they stay
    # because readers index this tuple by position.
    "rta.fixpoint": (
        "exact_hits", "misses", "warm_hits",
        "vec_batches", "vec_rows", "vec_stand_downs",
    ),
    # Persistent plan store (repro.core.planstore).
    "planstore": ("hits", "misses", "corrupt", "stale", "writes"),
    # Fleet service resilience (repro.eval.fleet).
    "fleet.resilience": (
        "degraded_admits", "timeout_retries", "recovered", "crashes",
    ),
    # Timers, in seconds.
    "vecrta": ("pack_s", "solve_s", "unpack_s"),
    "simcore": ("pack_s", "advance_s", "unpack_s"),
}

#: The groups of :data:`TABLE` that hold seconds rather than counts.
TIMERS = ("vecrta", "simcore")

Snapshot = Dict[str, Tuple[int, ...]]

_LIVE: Dict[str, Dict[str, float]] = {
    name: dict.fromkeys(fields, 0.0 if name in TIMERS else 0)
    for name, fields in TABLE.items()
}
_COUNTERS = tuple(name for name in TABLE if name not in TIMERS)


def live(name: str) -> Dict[str, float]:
    """The live dict of group ``name``, for its module to bump in place."""
    return _LIVE[name]


def snapshot() -> Snapshot:
    """Every counter group's values as a tuple in :data:`TABLE` order."""
    return {name: tuple(_LIVE[name].values()) for name in _COUNTERS}


def delta_since(before: Mapping[str, Tuple[int, ...]]) -> Snapshot:
    """Counter increments since ``before`` (a :func:`snapshot`)."""
    return {
        name: tuple(now - then for now, then in zip(values, before[name]))
        for name, values in snapshot().items()
    }


def absorb(delta: Mapping[str, Tuple[int, ...]]) -> None:
    """Add a worker process's counter delta to this process's counters."""
    for name, values in delta.items():
        group = _LIVE[name]
        for field, inc in zip(TABLE[name], values):
            group[field] += inc


def merge(deltas: Iterable[Mapping[str, Tuple[int, ...]]]) -> Snapshot:
    """Field-wise sum of counter deltas (order-independent)."""
    total = {name: (0,) * len(TABLE[name]) for name in _COUNTERS}
    for delta in deltas:
        for name, values in delta.items():
            total[name] = tuple(a + b for a, b in zip(total[name], values))
    return total


def stats() -> Dict[str, Dict[str, float]]:
    """Every group's current values keyed by field, timers included."""
    return {name: dict(group) for name, group in _LIVE.items()}


def reset_timers(name: str) -> None:
    """Zero the timer group ``name``."""
    group = _LIVE[name]
    for field in group:
        group[field] = 0.0
