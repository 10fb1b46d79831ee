"""Compared systems: derive each baseline's task set from a generated case.

Every system sees the *same* drawn workload (models, periods, deadlines,
DM priorities); only the execution strategy differs.  ``derive_taskset``
returns the system's simulatable task set plus the analysis method used
for its admission decision.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Sequence, Tuple

from repro import obs
from repro.baselines import sequentialize, single_buffered, whole_job, xip_task
from repro.baselines.xip import xip_segments
from repro.core.pipeline import isolated_latency
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
# cost, so the batched path below derives each system's per-task
# *aggregate columns* (total/max compute and load, segment counts,
# pipeline latency) directly in array space and packs one
# :class:`~repro.sched.vecrta.ChainBatch` for a whole batch of cases.
# Every column equals what the scalar derivation computes — sequential
# folds loads into compute, np-whole collapses to one latency-long
# section, XIP takes the memoized per-layer segments — so verdicts are
# bit-identical to per-case ``admit`` (property-tested by
# ``tests/test_vecrta_identity.py``).


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


def _pack_case(
    batch: "vecrta.ChainBatch", case: GeneratedCase, systems: Sequence[str]
) -> List[Tuple[str, Dict[str, int]]]:
    """Plan every system's admission chains for one feasible case.

    Hand-inlined hot path: one segment pass per task computes every
    aggregate each baseline derivation needs; ``buffers == 1`` pipeline
    latencies degenerate to the serialized sum (with one buffer a load
    can only start after the previous compute finished, so nothing ever
    overlaps), which removes the per-task latency recurrences for the
    single-buffer, sequential, and XIP columns.  A single per-case
    magnitude screen stands in for the per-chain checks.
    """
    tasks = sorted(case.taskset, key=lambda t: (t.priority, t.name))
    n = len(tasks)
    if n == 0:
        raise vecrta.StandDown("empty task set")
    priorities = [t.priority for t in tasks]
    if len(set(priorities)) != len(priorities):
        # The scalar path raises inside analyze(); stand down so the
        # fallback reproduces its exact error behavior.
        raise vecrta.StandDown("duplicate priorities")
    periods = [t.period for t in tasks]
    deadlines = [t.deadline for t in tasks]
    tc = [0] * n    # total compute
    tl = [0] * n    # total load
    ns = [0] * n    # segments
    nl = [0] * n    # segments with a load leg
    mc = [0] * n    # max segment compute
    ml = [0] * n    # max segment load
    msum = [0] * n  # max folded (compute + load) segment
    lat = [0] * n   # isolated pipelined latency at the task's depth
    bufs = [0] * n
    for i, task in enumerate(tasks):
        a = b = c = d = e = loads = 0
        for s in task.segments:
            cc = s.compute_cycles
            ll = s.load_cycles
            a += cc
            b += ll
            if cc > c:
                c = cc
            if ll > d:
                d = ll
            if cc + ll > e:
                e = cc + ll
            if ll > 0:
                loads += 1
        tc[i], tl[i], mc[i], ml[i], msum[i], nl[i] = a, b, c, d, e, loads
        ns[i] = len(task.segments)
        bufs[i] = task.buffers
        lat[i] = isolated_latency(task.segments, task.buffers)
    serial = [c + l for c, l in zip(tc, tl)]

    xtc = xmc = xns = None
    if "xip" in systems:
        xtc, xmc, xns = [0] * n, [0] * n, [0] * n
        for i, task in enumerate(tasks):
            xtc[i], xmc[i], xns[i] = _xip_cols(
                task.name, case.refined[task.name], case.platform, case.quant
            )

    # One coarse magnitude screen covering every chain packed below:
    # owns and interferences are bounded by serial/xip totals, blocking
    # by (segments per job) * (largest section) on both resources.
    if min(periods) <= 0 or min(deadlines) <= 0:
        raise vecrta.StandDown("non-positive period or deadline")
    big = max(max(serial), max(xtc) if xtc else 0, 1)
    segs_max = max(max(ns), max(xns) if xns else 1)
    d_max = max(deadlines)
    ceiling = big + 2 * segs_max * big + sum(
        ((2 * d_max) // t + 1) * max(s, x)
        for t, s, x in zip(periods, serial, xtc or serial)
    )
    if ceiling >= vecrta._INT64_LIMIT:
        raise vecrta.StandDown("demand ceiling exceeds int64 headroom")

    zeros = [0] * n
    falses = [False] * n
    lp_c = vecrta._suffix_max(mc)
    lp_l = vecrta._suffix_max(ml)
    lp_c1 = [lp_c[i + 1] for i in range(n)]
    lp_l1 = [lp_l[i + 1] for i in range(n)]
    bl_base = [ns[i] * lp_c1[i] + nl[i] * lp_l1[i] for i in range(n)]

    plan: List[Tuple[str, Dict[str, int]]] = []
    for system in systems:
        if system == "rtmdm":
            plan.append(("rtmdm", {
                "ovl": batch.add_simple(
                    lat, bl_base, serial, periods, deadlines, check=False),
                "hol": batch.add_holistic(
                    tl, tc, lat, lp_l1, lp_c1, bl_base,
                    [bufs[i] < ns[i] for i in range(n)],
                    periods, deadlines, check=False),
            }))
        elif system == "rtmdm-oblivious":
            plan.append(("oblivious", {
                "obl": batch.add_simple(
                    serial, bl_base, serial, periods, deadlines, check=False),
            }))
        elif system == "single-buffer":
            # Same segments at depth 1: latency degenerates to serial.
            plan.append(("rtmdm", {
                "ovl": batch.add_simple(
                    serial, bl_base, serial, periods, deadlines, check=False),
                "hol": batch.add_holistic(
                    tl, tc, serial, lp_l1, lp_c1, bl_base,
                    [1 < ns[i] for i in range(n)],
                    periods, deadlines, check=False),
            }))
        elif system == "sequential":
            # Loads folded into compute, depth 1, no DMA legs.
            lp_m = vecrta._suffix_max(msum)
            lp_m1 = [lp_m[i + 1] for i in range(n)]
            bl_seq = [ns[i] * lp_m1[i] for i in range(n)]
            plan.append(("rtmdm", {
                "ovl": batch.add_simple(
                    serial, bl_seq, serial, periods, deadlines, check=False),
                "hol": batch.add_holistic(
                    zeros, serial, serial, zeros, lp_m1, bl_seq,
                    [1 < ns[i] for i in range(n)],
                    periods, deadlines, check=False),
            }))
        elif system == "np-whole":
            # One latency-long section per job, no DMA leg, depth kept
            # (never gated: one segment needs one buffer).
            lp_w = vecrta._suffix_max(lat)
            lp_w1 = [lp_w[i + 1] for i in range(n)]
            plan.append(("rtmdm", {
                "ovl": batch.add_simple(
                    lat, lp_w1, lat, periods, deadlines, check=False),
                "hol": batch.add_holistic(
                    zeros, lat, lat, zeros, lp_w1, lp_w1, falses,
                    periods, deadlines, check=False),
            }))
        elif system == "xip":
            # Per-layer XIP segments: zero loads, depth 1.
            lp_x = vecrta._suffix_max(xmc)
            lp_x1 = [lp_x[i + 1] for i in range(n)]
            bl_x = [xns[i] * lp_x1[i] for i in range(n)]
            plan.append(("rtmdm", {
                "ovl": batch.add_simple(
                    xtc, bl_x, xtc, periods, deadlines, check=False),
                "hol": batch.add_holistic(
                    zeros, xtc, xtc, zeros, lp_x1, bl_x,
                    [1 < xns[i] for i in range(n)],
                    periods, deadlines, check=False),
            }))
        else:
            raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
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
