"""Deterministic parallel execution of experiment work units.

The experiment drivers decompose their sweeps into independent work
units — one per ``(set index, sweep point)`` — that are dispatched over a
:class:`~concurrent.futures.ProcessPoolExecutor` and merged back in unit
order.  Three properties make the parallel output **bit-identical** to
the serial path:

1. every unit derives its randomness from a :func:`stable_seed` of its own
   coordinates (never from shared RNG state), so results do not depend
   on execution order;
2. ``ProcessPoolExecutor.map`` returns results in submission order, and
   drivers assemble rows by iterating units in that same fixed order, so
   verdict lists and floating-point reductions sum in exactly the serial
   order;
3. the plan cache (:mod:`repro.core.segcache`) is path-independent by
   construction — hits return the same objects a cold run would compute.

``jobs=1`` (the default) bypasses the pool entirely and runs every unit
inline, preserving the original serial code path.  The default worker
count comes from the ``REPRO_JOBS`` environment variable.

Workers are plain module-level functions taking one picklable unit tuple
and returning a plain payload.  A pooled unit's :mod:`repro.obs` counter
delta travels home beside its payload and is absorbed into the parent's
counters, so a driver's one snapshot around :func:`run_units` reads
exact totals in both modes (worker processes count into their own
copies of the counters).
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro import obs
from repro.sched import simcore
from repro.sched.simulator import SimConfig, SimResult, simulate
from repro.sched.task import TaskSet

__all__ = [
    "resolve_jobs",
    "run_units",
    "simulate_batch",
    "stable_seed",
]


def stable_seed(*parts: Any) -> int:
    """Deterministic seed from mixed parts.

    ``hash()`` of strings is randomized per process and must never seed
    an experiment — CRC32 of the ``repr`` is stable across processes and
    Python versions, which is what makes work units independent of the
    process they run in.
    """
    text = "|".join(repr(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit ``jobs``, else ``REPRO_JOBS``, else 1.

    ``None`` and ``0`` both mean "use the environment default"; anything
    below 1 after resolution clamps to serial.
    """
    if jobs is None or jobs == 0:
        env = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = int(env) if env else 1
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def simulate_batch(
    cases: Iterable[Tuple[TaskSet, SimConfig]],
) -> List[SimResult]:
    """Simulate ``cases`` in order, reusing one simulation arena.

    A work unit's simulations (the phasings of one drawn set, the
    systems derived from one case, the recovery ladders of one fault
    sweep point) run one after another.  One preallocated
    :class:`~repro.sched.simcore.Arena` serves the whole batch: the
    response buffer and segment columns warm up on the first run of
    each structure and every later run allocates nothing.  Every
    :class:`SimResult` is bit-identical to a plain
    ``simulate(taskset, config)`` call — the arena holds only buffers
    and input-derived segment columns.
    """
    arena = simcore.Arena()
    return [simulate(taskset, config, arena) for taskset, config in cases]


def _counted(worker: Callable[[Any], Any], unit: Any) -> Tuple[Any, obs.Snapshot]:
    """``worker(unit)`` plus the counter delta it caused (pool side)."""
    before = obs.snapshot()
    return worker(unit), obs.delta_since(before)


def run_units(
    worker: Callable[[Any], Any],
    units: Iterable[Any],
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    warm_prefix: int = 0,
) -> List[Any]:
    """Run ``worker`` over ``units``, preserving unit order in the result.

    With ``jobs <= 1`` every unit runs inline in the calling process (the
    serial path).  Otherwise units are dispatched to a process pool;
    ``chunksize`` controls how many consecutive units each dispatch
    carries — drivers pass one sweep-row per chunk so a worker keeps the
    plan-cache locality of consecutive sweep points for the same set.

    Args:
        worker: Module-level function of one unit (must be picklable).
        units: Work units in the serial iteration order.
        jobs: Worker processes; ``None``/``0`` = ``REPRO_JOBS`` env, else 1.
        chunksize: Units per pool dispatch (default: ~4 chunks per worker).
        warm_prefix: Run this many leading units inline *before* forking
            the pool.  Plan-cache misses are front-loaded (the first few
            sweep rows create most entries), and on fork-based platforms
            worker processes inherit the parent's populated caches — so
            a short warm prefix spares every worker its own cold start.
            Purely a placement choice: results are identical either way.

    Returns:
        ``[worker(u) for u in units]`` — identical contents either way.
        Pooled units' counter deltas are absorbed into this process
        (inline units count themselves), so a parent-side
        :mod:`repro.obs` delta counts every unit wherever it ran.
    """
    units = list(units)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(units) <= 1:
        return [worker(unit) for unit in units]
    head_n = min(max(warm_prefix, 0), len(units) - 1)
    head = [worker(unit) for unit in units[:head_n]]
    rest = units[head_n:]
    if chunksize is None:
        chunksize = max(1, -(-len(rest) // (jobs * 4)))
    with ProcessPoolExecutor(max_workers=min(jobs, len(rest))) as pool:
        tail = list(pool.map(partial(_counted, worker), rest, chunksize=chunksize))
    obs.absorb(obs.merge(delta for _, delta in tail))
    return head + [payload for payload, _ in tail]
