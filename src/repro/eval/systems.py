"""Compared systems: derive each baseline's task set from a generated case.

Every system sees the *same* drawn workload (models, periods, deadlines,
DM priorities); only the execution strategy differs.  ``derive_taskset``
returns the system's simulatable task set plus the analysis method used
for its admission decision.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro import obs
from repro.baselines import sequentialize, single_buffered, whole_job, xip_task
from repro.baselines.xip import xip_segments
from repro.core.analysis import _views_by_priority
from repro.core.segcache import cached_analyze, xip_columns
from repro.sched import vecrta
from repro.sched.task import TaskSet
from repro.workload.taskset import GeneratedCase

#: System keys, in the order figures report them.
SYSTEMS = (
    "rtmdm",
    "rtmdm-oblivious",
    "single-buffer",
    "sequential",
    "np-whole",
    "xip",
)

#: Short labels for figure legends.
LABELS = {
    "rtmdm": "RT-MDM",
    "rtmdm-oblivious": "RT-MDM (susp.-oblivious)",
    "single-buffer": "Single buffer (no prefetch)",
    "sequential": "Sequential (busy-wait)",
    "np-whole": "Non-preemptive whole-DNN",
    "xip": "Execute-in-place",
}


def derive_taskset(system: str, case: GeneratedCase) -> Tuple[TaskSet, str]:
    """The system's task set and its admission analysis method.

    Raises:
        ValueError: for unknown system keys.
        RuntimeError: if the case is infeasible (check ``case.feasible``).
    """
    if case.taskset is None:
        raise RuntimeError("case is infeasible; no task set to derive")
    base = case.taskset
    if system == "rtmdm":
        return base, "rtmdm"
    if system == "rtmdm-oblivious":
        return base, "oblivious"
    if system == "single-buffer":
        return TaskSet.of(single_buffered(t) for t in base), "rtmdm"
    if system == "sequential":
        return TaskSet.of(sequentialize(t) for t in base), "rtmdm"
    if system == "np-whole":
        return TaskSet.of(whole_job(t) for t in base), "rtmdm"
    if system == "xip":
        tasks = []
        for task in base:
            model = case.refined[task.name]
            tasks.append(
                xip_task(
                    name=task.name,
                    model=model,
                    platform=case.platform,
                    period=task.period,
                    deadline=task.deadline,
                    priority=task.priority,
                    quant=case.quant,
                )
            )
        return TaskSet.of(tasks), "rtmdm"
    raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")


def admit(system: str, case: GeneratedCase) -> bool:
    """Offline admission verdict of ``system`` for ``case``.

    Infeasible cases (SRAM cannot hold the workload) are rejected by
    every staging system; XIP needs no staging buffers and is judged on
    timing alone.
    """
    if not case.feasible:
        return False
    taskset, method = derive_taskset(system, case)
    return cached_analyze(taskset, method).schedulable


# ----------------------------------------------------------------------
# Fused struct-of-arrays admission (vectorized sweep core)
# ----------------------------------------------------------------------
#
# ``admit`` above materializes each baseline's task set (Segment tuples,
# PeriodicTask property churn, per-task _View construction) before a
# handful of fixpoints run.  For sweeps that is most of the admission
# cost, so the batched path below maps RT-MDM's analysis columns
# (:class:`~repro.sched.vecrta.ViewCols`) to each baseline's columns
# directly in array space and packs every system of a whole batch of
# cases into one :class:`~repro.sched.vecrta.ChainBatch` through
# :func:`~repro.sched.vecrta.plan_chains`.  Every column equals what
# the scalar derivation's views hold — sequential folds loads into
# compute, np-whole collapses to one latency-long section, XIP takes the
# memoized per-layer segments — so verdicts are bit-identical to
# per-case ``admit`` (property-tested by ``tests/test_vecrta_identity.py``).


# xip_segments memoizes on a deep structural model fingerprint; hashing
# that key costs more than everything else in the packer combined.  The
# refined model objects themselves are shared across a sweep's cases
# (the refine cache returns the same instance), so a thin identity memo
# in front (segcache.xip_columns, dropped by segcache.clear_all) pays
# the fingerprint lookup once per distinct model object.
def _xip_cols(name, model, platform, quant) -> Tuple[int, int, int]:
    """(total, max, count) of per-layer XIP compute cycles for a model."""
    key = (id(model), id(platform), id(quant))
    hit = xip_columns.get(key)
    if hit is not None:
        return hit[3]
    segs = xip_segments(name, model, platform, quant)
    total = mx = 0
    for s in segs:
        cc = s.compute_cycles
        total += cc
        if cc > mx:
            mx = cc
    if len(xip_columns) >= 4096:
        xip_columns.clear()
    cols = (total, mx, len(segs))
    xip_columns[key] = (model, platform, quant, cols)
    return cols


def _system_cols(
    system: str, case: GeneratedCase, views, cols: "vecrta.ViewCols"
) -> Tuple["vecrta.ViewCols", str]:
    """Analysis columns and method of ``system``'s task set (see
    :func:`derive_taskset`), from RT-MDM's ``views`` and their ``cols``."""
    if system == "rtmdm":
        return cols, "rtmdm"
    if system == "rtmdm-oblivious":
        return cols, "oblivious"
    n = len(views)
    zeros, ones = [0] * n, [1] * n
    serial = [c + l for c, l in zip(cols.total_c, cols.total_l)]
    if system == "single-buffer":
        # Same segments at depth 1: a load only starts after the previous
        # compute finished, so nothing overlaps and the latency is serial.
        return replace(cols, latency=serial, buffers=ones), "rtmdm"
    if system == "sequential":
        # Loads folded into compute (busy-wait), depth 1, no DMA legs.
        folded = [
            max(s.compute_cycles + s.load_cycles for s in v.task.segments)
            for v in views
        ]
        return replace(
            cols, total_c=serial, total_l=zeros, n_load=zeros, max_c=folded,
            max_l=zeros, latency=serial, buffers=ones,
        ), "rtmdm"
    if system == "np-whole":
        # One latency-long section per job, no DMA leg, depth kept
        # (never gated: one segment needs one buffer).
        lat = cols.latency
        return replace(
            cols, total_c=lat, total_l=zeros, n_seg=ones, n_load=zeros,
            max_c=lat, max_l=zeros,
        ), "rtmdm"
    if system == "xip":
        # Per-layer XIP segments: zero loads, depth 1.
        xip = [
            _xip_cols(v.task.name, case.refined[v.task.name], case.platform, case.quant)
            for v in views
        ]
        total = [x[0] for x in xip]
        return replace(
            cols, total_c=total, total_l=zeros, n_seg=[x[2] for x in xip],
            n_load=zeros, max_c=[x[1] for x in xip], max_l=zeros,
            latency=total, buffers=ones,
        ), "rtmdm"
    raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")


def _pack_case(
    batch: "vecrta.ChainBatch", case: GeneratedCase, systems: Sequence[str]
) -> List[Tuple[str, Dict[str, int]]]:
    """Plan every system's admission chains for one feasible case."""
    try:
        views = _views_by_priority(case.taskset)
    except ValueError:
        # The scalar path raises inside analyze(); stand down so the
        # fallback reproduces its exact error behavior.
        raise vecrta.StandDown("duplicate priorities") from None
    cols = vecrta.cols_from_views(views)
    plan: List[Tuple[str, Dict[str, int]]] = []
    for system in systems:
        system_cols, method = _system_cols(system, case, views, cols)
        plan.append((method, vecrta.plan_chains(batch, system_cols, method)))
    return plan


_FALLBACK = object()

#: The packer's time counts as the vector engine's pack/unpack phases.
_TIMES = obs.live("vecrta")


def admit_batch(
    cases: Iterable[GeneratedCase],
    systems: Sequence[str] = SYSTEMS,
) -> List[Tuple[bool, ...]]:
    """Batched :func:`admit` over many cases for every system at once.

    Returns one verdict tuple per case (ordered like ``systems``),
    bit-identical to ``tuple(admit(s, case) for s in systems)``.  System
    derivation and response-time fixpoints run in fused struct-of-arrays
    form; a case the engine stands down on
    (:class:`~repro.sched.vecrta.StandDown`) runs the scalar path.
    """
    cases = list(cases)
    systems = tuple(systems)
    start = time.perf_counter()
    batch = vecrta.ChainBatch()
    plans: List[object] = [None] * len(cases)
    fallback: List[int] = []
    for idx, case in enumerate(cases):
        if not case.feasible:
            continue  # plans[idx] stays None: every system rejects
        try:
            plans[idx] = _pack_case(batch, case, systems)
        except vecrta.StandDown:
            vecrta._count_stand_down()
            plans[idx] = _FALLBACK
            fallback.append(idx)
    _TIMES["pack_s"] += time.perf_counter() - start
    try:
        batch.solve()
    except vecrta.StandDown:  # pragma: no cover - needs ~1e6 fixpoint steps
        vecrta._count_stand_down()
        return [tuple(admit(s, case) for s in systems) for case in cases]
    start = time.perf_counter()
    rejected = tuple(False for _ in systems)
    out: List[Tuple[bool, ...]] = [rejected] * len(cases)
    for idx, plan in enumerate(plans):
        if plan is None or plan is _FALLBACK:
            continue
        out[idx] = tuple(
            vecrta.chains_schedulable(batch, handles, method)
            for method, handles in plan
        )
    _TIMES["unpack_s"] += time.perf_counter() - start
    for idx in fallback:
        out[idx] = tuple(admit(s, cases[idx]) for s in systems)
    return out
