"""Struct-of-arrays simulator core: flat event engine, bit-identical.

The scalar :class:`~repro.sched.simulator.Simulator` dispatches every
event through Python-object machinery: a ``_Job`` dataclass per released
job, method calls per event, tuple keys per scheduling decision.  A
sweep pays that overhead tens of millions of times.  This module runs
the *same* discrete-event semantics on flat state, and is the only
engine that folds steady state; the scalar loop stays the plain,
unfolded reference it is checked against:

Layout
    Per-task decision state lives in dense columns indexed by task
    position — plain Python ``int`` lists (faster than numpy item access
    for a serialized decision core of a handful of tasks): head-job
    progress counters (``loads done`` / ``computes done`` / banked
    remaining burst), release/deadline/arbitration scalars, and one
    ring (deque of release times) per task for the FIFO job backlog.
    Only the head of a ring carries progress — per-task FIFO semantics
    mean followers are fully described by their release time.  Bulk
    output (per-task response accumulators) and steady-state fold
    replay live in a preallocated ``int64`` numpy arena
    (:class:`Arena`) that is reused across runs — zero buffer
    allocations after warmup.  Segment columns (load/compute cycles,
    zero-load flags, suffix sums) are cached per segment tuple.

Event engine
    The heap holds 5-int tuples ``(time, seq, kind, pos, aux)`` —
    no job objects, no payload tuples.  ``seq`` replicates the scalar
    push order exactly, so pop order (and therefore every tie-break)
    is identical.  Dispatch, the zero-load advance, and both
    scheduling passes are fused into one inline loop: no method calls,
    no key tuples (priority comparisons are chained int compares), no
    trace or fault branches.

Frontier batching / fast-forward
    Like the scalar loop, all events at one timestamp drain before a
    scheduling pass.  On top of that the engine *fast-forwards* the
    head job of the lone live task — or, with backlog elsewhere, of the
    running task while every rival is provably frozen (cannot start a
    transfer, loses the CPU tie-break, and the chain keeps the CPU
    busy) — with the closed-form pipeline recurrence

        ``load_done[j]  = max(load_done[j-1], comp_done[j-B]) + L[j]``
        ``comp_done[j]  = max(comp_done[j-1], load_done[j]) + C[j]``

    instead of stepping each DMA/CPU completion through the heap.  The
    chain is only trusted up to an *interference bound*: the earliest
    pending release (tracked incrementally), the fold boundary, the
    hard cap, any live deadline event, and — under dominance — the
    first instant the CPU would idle.  A chain that finishes inside
    the bound retires the whole job in one commit; otherwise the
    prefix strictly before the bound is committed and the transfer or
    burst crossing it is reconstructed in flight (same dispatch order,
    so heap tie-breaks are preserved).  Either way the result is
    event-for-event identical to the stepped path.

Steady-state folding
    A deterministic periodic system is eventually periodic in its
    state.  At each hyperperiod boundary the engine fingerprints its
    full state relative to the boundary (head-job progress, backlog
    offsets, CPU/DMA occupancy, the pending heap canonicalized, the
    skip-next flags); on the first repeat it replays as many whole
    cycles as fit before the horizon arithmetically — response
    accumulators tiled, counters and busy cycles scaled, live state
    shifted — and simulates the tail normally.  The result equals the
    unfolded run in every field except ``fold_cycles`` and
    ``fold_jobs_skipped``.  Folding arms only when two hyperperiods
    fit in the horizon, stops after the first fold, on a horizon-cut
    release chain, or after :data:`_FOLD_PROBE_LIMIT` non-repeating
    boundaries.  ``try_simulate(..., fold=False)`` runs the same engine
    unfolded; EXP-F18 and the fold-identity tests compare it with the
    folded run.

Stand-down
    The core models deterministic, state-free configs (deadline aborts
    and skip-next included): no traces, no ``abort_on_miss``, no sporadic
    arrivals, no fault injection/escalation/recovery, no ``DEGRADE``,
    single DMA channel.  Anything else raises :class:`StandDown` and
    the caller falls back to the scalar path (counted in
    ``sim_stand_downs``), which never folds — so every config whose
    future depends on state outside the fingerprint runs unfolded.

Telemetry lives in :mod:`repro.obs`: the ``sim.soa`` counter group holds
``sim_soa_runs`` accepted runs, ``sim_soa_events`` scalar-equivalent
events retired (popped plus fused) and ``sim_stand_downs`` scalar
fallbacks; the ``simcore`` timer group splits wall-clock between
packing, event advance and unpacking (:func:`profile`).
"""

from __future__ import annotations

import heapq
import time as _walltime
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro import obs
from repro.hw.dma import DmaArbitration
from repro.robust.overload import OverrunPolicy
from repro.sched.rta import try_hyperperiod
from repro.sched.simulator import SimConfig, SimResult, TaskStats
from repro.sched.task import PeriodicTask, TaskSet

#: Sentinel boundary meaning "no further fold fingerprinting".
_FOLD_OFF = 1 << 63

#: Give up fingerprinting after this many non-repeating boundaries: a
#: system that has not reached steady state by then (e.g. unbounded
#: backlog growth under overload) is unlikely to, and each fingerprint
#: costs a full state walk.
_FOLD_PROBE_LIMIT = 64

#: Segment-column cache bound (entries are tiny; this only guards
#: pathological churn through millions of distinct segmentations).
_SEGCOL_CAP = 512


class StandDown(Exception):
    """The SoA core cannot run this config exactly; use the scalar path."""


#: Sentinel "never retry" horizon for the fast-forward failure memo.
_FF_INF = 1 << 62


_counters = obs.live("sim.soa")
_fold_counters = obs.live("sim.fold")
_TIMES = obs.live("simcore")


def profile() -> Dict[str, float]:
    """Accumulated pack/advance/unpack wall-clock split (seconds)."""
    return dict(_TIMES)


def reset_profile() -> None:
    """Zero the pack/advance/unpack accumulators."""
    obs.reset_timers("simcore")


# ----------------------------------------------------------------------
# Arena: preallocated buffers reused across runs
# ----------------------------------------------------------------------


class Arena:
    """Reusable SoA buffers: response accumulator + segment columns.

    The response accumulator is one flat ``int64`` array sliced into
    per-task regions per run (capacity = the release-count bound, so
    fold replay always fits); it grows geometrically and never
    shrinks, so a warmed-up batch allocates nothing.  Segment columns
    — load/compute cycle lists, the zero-load flag, the nonzero-load
    suffix count and the compute-cycle suffix sum used by the
    fast-forward guard — are memoized per segment tuple (pinned by
    strong reference, so ``id`` reuse cannot alias).
    """

    __slots__ = ("_resp", "_segcols")

    def __init__(self) -> None:
        self._resp = _np.empty(1024, dtype=_np.int64)
        self._segcols: Dict[int, Tuple] = {}

    def resp_buffer(self, total: int):
        """A flat int64 buffer with capacity >= ``total``."""
        buf = self._resp
        if len(buf) < total:
            cap = len(buf)
            while cap < total:
                cap *= 2
            buf = _np.empty(cap, dtype=_np.int64)
            self._resp = buf
        return buf

    def seg_columns(self, task: PeriodicTask) -> Tuple:
        """``(segments, loads, comps, nz_sfx, comp_sfx, load_sfx, has_zero)``.

        ``nz_sfx[j]`` counts nonzero loads in ``segments[j:]`` (the
        DMA completions a fast-forward fuses); ``comp_sfx[j]`` and
        ``load_sfx[j]`` sum compute/load cycles of ``segments[j:]``
        (lower bounds on remaining engine work, used to reject doomed
        fast-forward attempts without computing the chain).
        """
        segs = task.segments
        cols = self._segcols.get(id(segs))
        if cols is None:
            loads = [s.load_cycles for s in segs]
            comps = [s.compute_cycles for s in segs]
            n = len(segs)
            nz_suffix = [0] * (n + 1)
            comp_suffix = [0] * (n + 1)
            load_suffix = [0] * (n + 1)
            for j in range(n - 1, -1, -1):
                nz_suffix[j] = nz_suffix[j + 1] + (1 if loads[j] > 0 else 0)
                comp_suffix[j] = comp_suffix[j + 1] + comps[j]
                load_suffix[j] = load_suffix[j + 1] + loads[j]
            cols = (
                segs, loads, comps, nz_suffix, comp_suffix, load_suffix,
                0 in loads,
            )
            if len(self._segcols) >= _SEGCOL_CAP:
                self._segcols.clear()
            self._segcols[id(segs)] = cols
        return cols


_default_arena: Optional[Arena] = None


def default_arena() -> Arena:
    """The process-wide arena used when the caller does not supply one."""
    global _default_arena
    if _default_arena is None:
        _default_arena = Arena()
    return _default_arena


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------


def _check_supported(config: SimConfig) -> None:
    """Raise :class:`StandDown` for features the SoA core does not model.

    Everything that would break the fold fingerprint's translation
    invariance (traces, abort_on_miss, sporadic arrivals,
    faults/escalation — and therefore recovery, which is inert without
    a fault source — and DEGRADE's mode state), plus the multi-channel
    DMA configuration the flat engine does not model.
    """
    if config.record_trace:
        raise StandDown("record_trace")
    if config.abort_on_miss:
        raise StandDown("abort_on_miss")
    if config.sporadic_slack != 0:
        raise StandDown("sporadic arrivals")
    if config.faults is not None and not config.faults.is_null:
        raise StandDown("fault injection")
    if config.escalation is not None and not config.escalation.is_null:
        raise StandDown("fault escalation")
    if config.overrun is OverrunPolicy.DEGRADE:
        raise StandDown("DEGRADE overrun")
    if config.dma_channels != 1:
        raise StandDown("multi-channel DMA")


def try_simulate(
    taskset: TaskSet,
    config: SimConfig,
    arena: Optional[Arena] = None,
    fold: bool = True,
) -> Optional[SimResult]:
    """Run ``taskset`` on the SoA core, or ``None`` to use the scalar path.

    Returns ``None`` (without counting a stand-down) when the inputs
    would make the scalar constructor raise — error behavior stays with
    the scalar path.  Unsupported feature configs count one
    ``sim_stand_downs`` and return ``None``.  ``fold=False`` disables
    steady-state folding (the result differs only in fold telemetry).
    """
    if config.horizon <= 0 or len(taskset) == 0:
        return None  # scalar path raises the canonical error
    try:
        _check_supported(config)
    except StandDown:
        _counters["sim_stand_downs"] += 1
        return None
    return _run(
        taskset, config, arena if arena is not None else default_arena(), fold
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def _run(
    taskset: TaskSet,
    config: SimConfig,
    arena: Arena,
    fold: bool,
) -> SimResult:
    t_pack = _walltime.perf_counter()

    tasks: Tuple[PeriodicTask, ...] = tuple(taskset)
    n = len(tasks)
    horizon = config.horizon

    periods = [t.period for t in tasks]
    dls = [t.deadline for t in tasks]
    prios = [t.priority for t in tasks]
    phases = [t.phase for t in tasks]
    bufs = [t.buffers for t in tasks]

    loads: List[List[int]] = []
    comps: List[List[int]] = []
    nzsuf: List[List[int]] = []
    csuf: List[List[int]] = []
    lsuf: List[List[int]] = []
    nseg: List[int] = []
    zero_list: List[int] = []
    all_zero: List[bool] = []
    for p, t in enumerate(tasks):
        _, lp, cp, nz, cs, ls, hz = arena.seg_columns(t)
        loads.append(lp)
        comps.append(cp)
        nzsuf.append(nz)
        csuf.append(cs)
        lsuf.append(ls)
        nseg.append(len(lp))
        all_zero.append(nz[0] == 0)
        if hz:
            zero_list.append(p)
    # With no nonzero load anywhere (XIP-style placements) the DMA
    # pass can never dispatch: skip it wholesale.
    has_dma = any(nzsuf[p2][0] > 0 for p2 in range(n))

    max_period = max(periods)
    hard_cap = int(horizon * config.hard_cap_factor) + max_period

    # Response-accumulator regions: capacity = releases before horizon
    # (folded replays correspond to suppressed in-horizon releases, so
    # the bound holds with folding too).
    off = [0] * (n + 1)
    for p in range(n):
        cap = 0
        if phases[p] < horizon:
            cap = 1 + (horizon - 1 - phases[p]) // periods[p]
        off[p + 1] = off[p] + cap
    resp = arena.resp_buffer(off[n])

    deadline_driven = config.policy.deadline_driven
    preemptive = config.policy.preemptive
    fifo = config.dma_arbitration is DmaArbitration.FIFO
    abort_policy = config.overrun is OverrunPolicy.ABORT_AT_DEADLINE
    skip_policy = config.overrun is OverrunPolicy.SKIP_NEXT

    # ----- steady-state folding ---------------------------------------
    fold_period = 0
    fold_boundary = _FOLD_OFF
    if fold:
        h = try_hyperperiod(periods)
        if h is not None and 2 * h <= horizon:
            fold_period = h
            fold_boundary = h
    fold_states: Dict[Tuple, Tuple[int, Tuple]] = {}
    fold_probes = 0
    fold_cycles = 0
    fold_jobs_skipped = 0
    folds = 0

    # ----- flat run state ---------------------------------------------
    q: List[deque] = [deque() for _ in range(n)]  # release times, head first
    h_ld = [0] * n      # head: loads done (== scalar loads_issued/loads_done)
    h_cd = [0] * n      # head: computes done
    h_rem = [-1] * n    # head: banked remaining burst (-1 = None)
    h_since = [-1] * n  # head: load_eligible_since (-1 = None)
    h_rel = [0] * n     # head: release time
    h_dl = [0] * n      # head: absolute deadline
    head_idx = [0] * n  # job index of the head (deadline-event matching)
    skip = [False] * n
    resp_n = [0] * n
    misses = [0] * n
    aborts = [0] * n
    skips = [0] * n

    cpu_task = -1
    cpu_start = 0
    cpu_token = 0
    cpu_busy = 0
    ch_task = -1        # task pos transferring on the (single) DMA channel
    ch_aborted = False  # transfer owner was deadline-aborted; drain + discard
    ch_end = 0
    dma_busy = 0

    heap: List[Tuple[int, int, int, int, int]] = []
    seq = 0
    next_rel = [_FF_INF] * n  # pending release time per task (INF: none)
    for p in range(n):
        if phases[p] < horizon:
            heap.append((phases[p], seq, 0, p, 0))  # _RELEASE
            seq += 1
            next_rel[p] = phases[p]
    heapq.heapify(heap)

    active = 0              # tasks with nonempty backlog
    release_suppressed = False
    truncated = False
    events = 0              # scalar-equivalent events retired
    time_now = 0

    pop = heapq.heappop
    push = heapq.heappush
    # Fast-forward failure memo (per task): a fruitless attempt stays
    # fruitless while the same head job is in place AND simulated time
    # has not reached the interference bound it was clipped at, so the
    # O(segments) chain is recomputed a handful of times per job
    # instead of once per event.
    ff_idx = [-1] * n
    ff_until = [0] * n

    # Static priority order enables early-exit candidate scans for the
    # fixed-priority policies: the first ready task in ``prio_order``
    # wins outright unless a later task ties its priority value (then
    # release time, then position — already the iteration order).
    prio_order = sorted(range(n), key=lambda p_: (prios[p_], p_))
    # ``h_since`` only influences results through FIFO arbitration and
    # fold fingerprints; when neither can observe it, the DMA scan can
    # early-exit instead of marking every eligible candidate.
    since_free = not fifo and fold_period == 0

    # ----- fold machinery (closures; off the hot path) ----------------

    def _stats_mark() -> Tuple:
        return (
            tuple(resp_n),
            tuple(misses),
            tuple(aborts),
            tuple(skips),
            cpu_busy,
            dma_busy,
        )

    def _fingerprint(boundary: int) -> Tuple:
        # Canonical state relative to ``boundary``: two equal
        # fingerprints evolve identically (shifted in time).  Job
        # indices and stale CPU tokens are unobservable in a traceless
        # run, so heap payloads reduce to queue-relative references.
        queues = []
        for p in range(n):
            qp = q[p]
            if not qp:
                queues.append(())
                continue
            dlp = dls[p]
            entries = [
                (
                    h_ld[p],
                    h_ld[p],
                    h_cd[p],
                    h_rem[p] if h_rem[p] >= 0 else None,
                    h_rel[p] - boundary,
                    h_dl[p] - boundary,
                    h_since[p] - boundary if h_since[p] >= 0 else None,
                )
            ]
            first = True
            for rel in qp:
                if first:
                    first = False
                    continue
                entries.append(
                    (0, 0, 0, None, rel - boundary, rel + dlp - boundary, None)
                )
            queues.append(tuple(entries))
        cpu = None if cpu_task < 0 else (cpu_task, cpu_start - boundary)
        dma = () if ch_task < 0 else ((0, -1 if ch_aborted else ch_task),)
        entries2 = []
        for t, s, k, p3, aux in sorted(heap):
            if k == 0:  # _RELEASE
                canon: Tuple = (p3,)
            elif k == 1:  # _DMA_DONE
                canon = (0, -1 if ch_aborted else ch_task)
            elif k == 2:  # _CPU_DONE
                if aux == cpu_token and cpu_task == p3:
                    canon = (1, p3)
                else:
                    canon = (0,)  # stale: pops as a no-op
            else:  # _DEADLINE
                if q[p3] and aux >= head_idx[p3]:
                    canon = (p3, aux - head_idx[p3])
                else:
                    canon = (-1,)  # dead: pops as a no-op
            entries2.append((t - boundary, k, canon))
        return (tuple(queues), cpu, dma, tuple(entries2), tuple(skip))

    def _fold(previous: Tuple[int, Tuple], boundary: int) -> int:
        nonlocal cpu_busy, dma_busy, cpu_start, ch_end
        nonlocal folds, fold_cycles, fold_jobs_skipped
        start, mark = previous
        period = boundary - start
        limit = min(horizon, hard_cap)
        nf = (limit - max_period - boundary) // period
        if nf <= 0:
            return boundary + fold_period
        resp0, miss0, abort0, skip0, cpu0, dma0 = mark
        jobs_per_cycle = 0
        for p in range(n):
            cnt = resp_n[p] - resp0[p]
            if cnt:
                base = off[p]
                c1 = resp_n[p]
                assert base + c1 + nf * cnt <= off[p + 1], "fold overflow"
                seg = resp[base + resp0[p] : base + c1]
                resp[base + c1 : base + c1 + nf * cnt] = _np.tile(seg, nf)
                resp_n[p] = c1 + nf * cnt
            da = aborts[p] - abort0[p]
            sk = skips[p] - skip0[p]
            misses[p] += nf * (misses[p] - miss0[p])
            aborts[p] += nf * da
            skips[p] += nf * sk
            jobs_per_cycle += cnt + da + sk
        cpu_busy += nf * (cpu_busy - cpu0)
        dma_busy += nf * (dma_busy - dma0)
        shift = nf * period
        for p in range(n):
            if q[p]:
                q[p] = deque(x + shift for x in q[p])
                h_rel[p] += shift
                h_dl[p] += shift
                if h_since[p] >= 0:
                    h_since[p] += shift
        if cpu_task >= 0:
            cpu_start += shift
        if ch_task >= 0:
            ch_end += shift
        for p3 in range(n):
            if next_rel[p3] != _FF_INF:
                next_rel[p3] += shift
            ff_idx[p3] = -1  # job indices rebased: drop the memo
        # Uniform shift preserves heap order (seq breaks remaining ties).
        heap[:] = [(t + shift, s, k, p3, a) for t, s, k, p3, a in heap]
        folds += 1
        fold_cycles += nf
        fold_jobs_skipped += nf * jobs_per_cycle
        return _FOLD_OFF

    def _at_boundary(boundary: int) -> int:
        nonlocal fold_probes
        if release_suppressed:
            return _FOLD_OFF
        fold_probes += 1
        if fold_probes > _FOLD_PROBE_LIMIT:
            return _FOLD_OFF
        fp = _fingerprint(boundary)
        prev = fold_states.get(fp)
        if prev is None:
            fold_states[fp] = (boundary, _stats_mark())
            return boundary + fold_period
        return _fold(prev, boundary)

    # ----- main loop ---------------------------------------------------
    _TIMES["pack_s"] += _walltime.perf_counter() - t_pack
    t_adv = _walltime.perf_counter()

    while heap:
        if heap[0][0] >= fold_boundary:
            fold_boundary = _at_boundary(fold_boundary)
            continue
        ev = pop(heap)
        time_now = ev[0]
        if time_now > hard_cap:
            truncated = True
            break
        changed = False
        while True:
            events += 1
            kind = ev[2]
            p = ev[3]
            if kind == 2:  # _CPU_DONE (aux = token)
                if ev[4] == cpu_token and cpu_task == p:
                    cpu_busy += time_now - cpu_start
                    cpu_task = -1
                    cpu_token += 1
                    h_rem[p] = -1
                    cd = h_cd[p] + 1
                    h_cd[p] = cd
                    if cd == nseg[p]:
                        # complete the head job
                        resp[off[p] + resp_n[p]] = time_now - h_rel[p]
                        resp_n[p] += 1
                        if time_now > h_dl[p]:
                            misses[p] += 1
                            if skip_policy:
                                skip[p] = True
                        qp = q[p]
                        qp.popleft()
                        head_idx[p] += 1
                        if qp:
                            rel = qp[0]
                            h_rel[p] = rel
                            h_dl[p] = rel + dls[p]
                            h_ld[p] = 0
                            h_cd[p] = 0
                            h_rem[p] = -1
                            h_since[p] = -1
                        else:
                            active -= 1
                    changed = True
            elif kind == 1:  # _DMA_DONE (single channel)
                p = ch_task
                ch_task = -1
                if ch_aborted:
                    ch_aborted = False  # drained; data discarded
                else:
                    h_ld[p] += 1
                changed = True
            elif kind == 0:  # _RELEASE (aux = job index)
                idx = ev[4]
                if skip[p]:
                    skip[p] = False
                    skips[p] += 1
                else:
                    qp = q[p]
                    if not qp:
                        qp.append(time_now)
                        head_idx[p] = idx
                        h_rel[p] = time_now
                        h_dl[p] = time_now + dls[p]
                        h_ld[p] = 0
                        h_cd[p] = 0
                        h_rem[p] = -1
                        h_since[p] = -1
                        active += 1
                        changed = True  # a new head is scheduler-visible
                    else:
                        qp.append(time_now)
                    if abort_policy:
                        push(heap, (time_now + dls[p], seq, 3, p, idx))
                        seq += 1
                nt = time_now + periods[p]
                if nt < horizon:
                    push(heap, (nt, seq, 0, p, idx + 1))
                    seq += 1
                    next_rel[p] = nt
                else:
                    release_suppressed = True
                    next_rel[p] = _FF_INF
            else:  # _DEADLINE (aux = job index)
                qp = q[p]
                if qp and ev[4] == head_idx[p]:
                    # Grace: the final burst completes at this instant.
                    if not (
                        cpu_task == p
                        and h_rem[p] >= 0
                        and cpu_start + h_rem[p] == time_now
                        and h_cd[p] + 1 == nseg[p]
                    ):
                        if cpu_task == p:
                            elapsed = time_now - cpu_start
                            if elapsed > 0:
                                cpu_busy += elapsed
                            h_rem[p] -= elapsed
                            cpu_task = -1
                            cpu_token += 1
                        aborts[p] += 1
                        if ch_task == p:
                            ch_aborted = True  # transfer drains
                        qp.popleft()
                        head_idx[p] += 1
                        if qp:
                            rel = qp[0]
                            h_rel[p] = rel
                            h_dl[p] = rel + dls[p]
                            h_ld[p] = 0
                            h_cd[p] = 0
                            h_rem[p] = -1
                            h_since[p] = -1
                        else:
                            active -= 1
                        changed = True
            # Drain simultaneous events before scheduling decisions.
            if heap and heap[0][0] == time_now:
                ev = pop(heap)
            else:
                break
        if not changed:
            continue
        # ----- scheduling passes (+ fast-forward) ---------------------
        while True:
            # Zero-cycle loads complete instantly (no DMA involvement).
            for p in zero_list:
                if q[p]:
                    ld = h_ld[p]
                    cd = h_cd[p]
                    ns = nseg[p]
                    if all_zero[p]:
                        # Every load is zero: the window fills outright.
                        adv = cd + bufs[p]
                        if adv > ns:
                            adv = ns
                    else:
                        b = bufs[p]
                        lp = loads[p]
                        adv = ld
                        while adv < ns and adv - cd < b and lp[adv] == 0:
                            adv += 1
                    if adv != ld:
                        h_ld[p] = adv
                        h_since[p] = -1
            # DMA pass (single channel).
            if has_dma and ch_task < 0:
                best = -1
                if fifo:
                    b0 = b1 = 0
                    for p in range(n):
                        if not q[p]:
                            continue
                        ld = h_ld[p]
                        if ld >= nseg[p] or ld - h_cd[p] >= bufs[p]:
                            continue
                        s = h_since[p]
                        if s < 0:
                            s = time_now
                            h_since[p] = s
                        r = h_rel[p]
                        if best < 0 or s < b0 or (s == b0 and r < b1):
                            best = p
                            b0 = s
                            b1 = r
                elif deadline_driven:
                    b0 = b1 = b2 = 0
                    for p in range(n):
                        if not q[p]:
                            continue
                        ld = h_ld[p]
                        if ld >= nseg[p] or ld - h_cd[p] >= bufs[p]:
                            continue
                        if h_since[p] < 0:
                            h_since[p] = time_now
                        d = h_dl[p]
                        pr = prios[p]
                        r = h_rel[p]
                        if (
                            best < 0
                            or d < b0
                            or (d == b0 and (pr < b1 or (pr == b1 and r < b2)))
                        ):
                            best = p
                            b0 = d
                            b1 = pr
                            b2 = r
                elif since_free:
                    # Priority arbitration with ``h_since`` unobservable:
                    # scan in static priority order and stop at the first
                    # resolved priority group.
                    b0 = b1 = 0
                    for p in prio_order:
                        if not q[p]:
                            continue
                        ld = h_ld[p]
                        if ld >= nseg[p] or ld - h_cd[p] >= bufs[p]:
                            continue
                        if best < 0:
                            best = p
                            b0 = prios[p]
                            b1 = h_rel[p]
                        elif prios[p] != b0:
                            break
                        elif h_rel[p] < b1:
                            best = p
                            b1 = h_rel[p]
                else:
                    b0 = b1 = 0
                    for p in range(n):
                        if not q[p]:
                            continue
                        ld = h_ld[p]
                        if ld >= nseg[p] or ld - h_cd[p] >= bufs[p]:
                            continue
                        if h_since[p] < 0:
                            h_since[p] = time_now
                        pr = prios[p]
                        r = h_rel[p]
                        if best < 0 or pr < b0 or (pr == b0 and r < b1):
                            best = p
                            b0 = pr
                            b1 = r
                if best >= 0:
                    cyc = loads[best][h_ld[best]]
                    ch_task = best
                    ch_aborted = False
                    ch_end = time_now + cyc
                    h_since[best] = -1
                    dma_busy += cyc
                    push(heap, (ch_end, seq, 1, 0, 0))
                    seq += 1
            # CPU pass.
            if cpu_task < 0 or preemptive:
                best = -1
                if deadline_driven:
                    b0 = b1 = b2 = 0
                    for p in range(n):
                        if q[p] and h_cd[p] < h_ld[p]:
                            d = h_dl[p]
                            pr = prios[p]
                            r = h_rel[p]
                            if (
                                best < 0
                                or d < b0
                                or (
                                    d == b0
                                    and (pr < b1 or (pr == b1 and r < b2))
                                )
                            ):
                                best = p
                                b0 = d
                                b1 = pr
                                b2 = r
                else:
                    # Static priorities: early-exit once the winning
                    # priority group is resolved (no scan side effects).
                    b0 = b1 = 0
                    for p in prio_order:
                        if q[p] and h_cd[p] < h_ld[p]:
                            if best < 0:
                                best = p
                                b0 = prios[p]
                                b1 = h_rel[p]
                            elif prios[p] != b0:
                                break
                            elif h_rel[p] < b1:
                                best = p
                                b1 = h_rel[p]
                if best >= 0:
                    start_best = False
                    if cpu_task < 0:
                        start_best = True
                    elif best != cpu_task:
                        # best_key < run_key? (pos breaks exact ties, and
                        # best != cpu_task here, so strict compares apply)
                        c = cpu_task
                        if deadline_driven:
                            preempt = b0 < h_dl[c] or (
                                b0 == h_dl[c]
                                and (
                                    b1 < prios[c]
                                    or (
                                        b1 == prios[c]
                                        and (
                                            b2 < h_rel[c]
                                            or (b2 == h_rel[c] and best < c)
                                        )
                                    )
                                )
                            )
                        else:
                            preempt = b0 < prios[c] or (
                                b0 == prios[c]
                                and (
                                    b1 < h_rel[c]
                                    or (b1 == h_rel[c] and best < c)
                                )
                            )
                        if preempt:
                            elapsed = time_now - cpu_start
                            if elapsed > 0:
                                cpu_busy += elapsed
                            h_rem[c] -= elapsed
                            cpu_token += 1
                            start_best = True
                    if start_best:
                        rem = h_rem[best]
                        if rem < 0:
                            rem = comps[best][h_cd[best]]
                            h_rem[best] = rem
                        cpu_task = best
                        cpu_start = time_now
                        cpu_token += 1
                        push(heap, (time_now + rem, seq, 2, best, cpu_token))
                        seq += 1
            # ----- fast-forward: lone or dominant task ----------------
            if ch_aborted or active == 0:
                break
            if active == 1:
                p = 0
                while not q[p]:
                    p += 1
            else:
                p = cpu_task
                if p < 0:
                    break
            if ch_task >= 0 and ch_task != p:
                break
            cd0 = h_cd[p]
            ns = nseg[p]
            ld0 = h_ld[p]
            if ns - cd0 + nzsuf[p][ld0] < 4:
                break  # too few events fused to pay for a commit
            if ff_idx[p] == head_idx[p] and time_now < ff_until[p]:
                break  # this head already failed; bound not reached
            # Exclusive interference bound: the earliest pending release
            # (tracked incrementally, so no heap scan), the fold
            # boundary, the hard cap and — under ABORT — the earliest
            # live deadline event.  Chain events strictly before the
            # bound cannot interleave with foreign state changes.
            upto = next_rel[0]
            for q2 in range(1, n):
                if next_rel[q2] < upto:
                    upto = next_rel[q2]
            if fold_boundary < upto:
                upto = fold_boundary
            hc1 = hard_cap + 1
            if hc1 < upto:
                upto = hc1
            if abort_policy:
                for e in heap:
                    if (
                        e[2] == 3
                        and e[0] < upto
                        and q[e[3]]
                        and e[4] >= head_idx[e[3]]
                    ):
                        upto = e[0]
            pre_c = cpu_task == p
            ch_b = ch_task == p
            # Cheap reject: the next engine completion (one is in
            # flight whenever the head can progress) lands at or past
            # the bound, so nothing can commit.
            first_ev = cpu_start + h_rem[p] if pre_c else _FF_INF
            if ch_b and ch_end < first_ev:
                first_ev = ch_end
            if upto <= first_ev:
                ff_idx[p] = head_idx[p]
                ff_until[p] = upto
                break
            need_gapless = active > 1
            if (
                need_gapless
                and bufs[p] == 1
                and ld0 < ns
                and loads[p][ld0] > 0
            ):
                # Single-buffer under contention: the next (nonzero)
                # load cannot overlap the running burst, so the chain
                # gaps right at its end — nothing commits.
                ff_idx[p] = head_idx[p]
                ff_until[p] = first_ev
                break
            if need_gapless:
                # Dominant-task fusion: the running task's head job can
                # fuse even with other tasks backlogged, provided every
                # other live task (a) cannot start a transfer (buffers
                # full or loads done — its state is frozen while it
                # waits for the CPU), (b) loses the CPU tie-break to
                # ``p``, and (c) never sees an idle CPU (the chain
                # below is clipped at its first gap).
                dp = h_dl[p]
                rp = h_rel[p]
                pp = prios[p]
                ok = True
                for q2 in range(n):
                    if q2 == p or not q[q2]:
                        continue
                    if h_ld[q2] < nseg[q2] and h_ld[q2] - h_cd[q2] < bufs[q2]:
                        ok = False  # could claim the DMA channel
                        break
                    if deadline_driven:
                        d = h_dl[q2]
                        if d < dp or (
                            d == dp
                            and (
                                prios[q2] < pp
                                or (
                                    prios[q2] == pp
                                    and (
                                        h_rel[q2] < rp
                                        or (h_rel[q2] == rp and q2 < p)
                                    )
                                )
                            )
                        ):
                            ok = False  # beats p: takes the next burst
                            break
                    elif prios[q2] < pp or (
                        prios[q2] == pp
                        and (h_rel[q2] < rp or (h_rel[q2] == rp and q2 < p))
                    ):
                        ok = False  # beats p: takes the next burst
                        break
                if not ok:
                    break  # cheap check, and conditions drift: no memo
            lp = loads[p]
            cp = comps[p]
            b = bufs[p]
            # Pass 1: run the pipeline recurrence out to the bound.  A
            # CPU gap under dominance clips the bound instead of
            # failing — the prefix before the gap still commits.
            m = ns - cd0
            ld_list = [0] * m
            ct_list = [0] * m
            lt = ch_end if ch_b else 0
            ct_prev = 0
            j = cd0
            while j < ns:
                i = j - cd0
                if j < ld0:
                    ldone = 0  # already staged
                elif j == ld0 and ch_b:
                    ldone = ch_end  # in-flight transfer (already charged)
                else:
                    dep = j - b
                    st = ct_list[dep - cd0] if dep >= cd0 else 0
                    if lt > st:
                        st = lt
                    ldone = st + lp[j]
                    lt = ldone
                ld_list[i] = ldone
                if i == 0 and pre_c:
                    ct = cpu_start + h_rem[p]
                else:
                    if need_gapless and ldone > ct_prev:
                        # CPU idles: a rival burst fits after ct_prev.
                        if ct_prev < upto:
                            upto = ct_prev
                        ct_list[i] = _FF_INF
                        j += 1
                        break
                    ct = (ct_prev if ct_prev > ldone else ldone) + cp[j]
                ct_list[i] = ct
                ct_prev = ct
                j += 1
                if ldone >= upto and ct >= upto:
                    break
            n_chain = j - cd0
            if n_chain == m and ct_prev < upto:
                # ----- full commit: the whole head job fuses ----------
                finish = ct_prev
                while heap and heap[0][0] <= finish:
                    pop(heap)
                    events += 1
                virt = (
                    m
                    - (1 if pre_c else 0)
                    + nzsuf[p][ld0 + 1 if ch_b else ld0]
                )
                events += virt
                cpu_busy += (
                    h_rem[p] + csuf[p][cd0 + 1] if pre_c else csuf[p][cd0]
                )
                dma_busy += lsuf[p][ld0 + 1] if ch_b else lsuf[p][ld0]
                if pre_c:
                    cpu_token += 1
                    cpu_task = -1
                if ch_b:
                    ch_task = -1
                time_now = finish
                resp[off[p] + resp_n[p]] = finish - h_rel[p]
                resp_n[p] += 1
                if finish > h_dl[p]:
                    misses[p] += 1
                    if skip_policy:
                        skip[p] = True
                qp = q[p]
                qp.popleft()
                head_idx[p] += 1
                if qp:
                    rel = qp[0]
                    h_rel[p] = rel
                    h_dl[p] = rel + dls[p]
                    h_ld[p] = 0
                    h_cd[p] = 0
                    h_rem[p] = -1
                    h_since[p] = -1
                    # loop: schedule the new head at `finish`, maybe
                    # fast-forward again.
                else:
                    active -= 1
                    if active == 0:
                        break
                    # Other tasks still have backlog: rerun the passes
                    # at `finish` to dispatch the next winner.
                continue
            # ----- partial commit: fuse the prefix before the bound ---
            # Advance the head to its state just before ``upto`` and
            # leave the crossing transfer/burst in flight.  A mid-job
            # reconstruction cannot replay ``h_since`` marks, so it
            # needs them unobservable (no FIFO arbitration, folding
            # disarmed); otherwise fall back to the plain memo.
            if not since_free:
                ff_idx[p] = head_idx[p]
                ff_until[p] = upto
                break
            # Loads: count the committed prefix; a transfer dispatched
            # before the bound but completing at/after it stays in
            # flight (its cycles are charged at dispatch, as scalar).
            jl = ld0
            pre_l_com = False
            if ch_b:
                if ch_end >= upto:
                    jl = -1  # existing transfer still crosses the bound
                else:
                    pre_l_com = True
                    jl = ld0 + 1
            h_ld_new = jl if jl >= 0 else ld0
            ld_ev = 0
            dma_add = 0
            nl_t = -1
            nl_s = 0
            if jl >= 0:
                end_j = cd0 + n_chain
                while jl < end_j:
                    ldone = ld_list[jl - cd0]
                    cyc = lp[jl]
                    if ldone < upto:
                        h_ld_new = jl + 1
                        if cyc:
                            ld_ev += 1
                            dma_add += cyc
                        jl += 1
                    else:
                        if cyc and ldone - cyc < upto:
                            nl_t = ldone  # crossing transfer
                            nl_s = ldone - cyc
                            dma_add += cyc
                        break
            # Computes: committed prefix, plus the burst crossing the
            # bound when its dispatch precedes it.
            cd_n = 0
            cpu_add = 0
            pre_c_com = False
            nc_t = -1
            nc_s = 0
            jj = cd0
            end_j = cd0 + n_chain
            while jj < end_j:
                ct = ct_list[jj - cd0]
                if ct < upto:
                    cd_n += 1
                    if jj == cd0 and pre_c:
                        pre_c_com = True
                        cpu_add += h_rem[p]
                    else:
                        cpu_add += cp[jj]
                    jj += 1
                else:
                    if not (jj == cd0 and pre_c):
                        st = ct - cp[jj]
                        if st < upto:
                            nc_t = ct
                            nc_s = st
                    break
            if not (
                cd_n or ld_ev or pre_l_com or nl_t >= 0 or nc_t >= 0
                or h_ld_new != ld0
            ):
                ff_idx[p] = head_idx[p]
                ff_until[p] = upto
                break  # nothing completes before the bound: plain memo
            # Commit: retire everything strictly before the bound and
            # reconstruct both engines as of that instant.
            while heap and heap[0][0] < upto:
                pop(heap)
                events += 1
            # ``ld_ev`` already excludes the pre-existing transfer (the
            # loads walk starts past it); only the compute count needs
            # the pre-existing burst deducted.
            virt = cd_n + ld_ev - (1 if pre_c_com else 0)
            events += virt
            cpu_busy += cpu_add
            dma_busy += dma_add
            h_cd[p] = cd0 + cd_n
            h_ld[p] = h_ld_new
            # Push order replicates scalar dispatch order (earlier
            # start first; the DMA pass precedes the CPU pass on ties)
            # so equal-time pops keep their heap tie-break.
            push_l = nl_t >= 0
            if push_l and (nc_t < 0 or nl_s <= nc_s):
                ch_task = p
                ch_end = nl_t
                push(heap, (nl_t, seq, 1, 0, 0))
                seq += 1
                push_l = False
            if nc_t >= 0:
                cpu_token += 1
                cpu_task = p
                cpu_start = nc_s
                h_rem[p] = cp[cd0 + cd_n]
                push(heap, (nc_t, seq, 2, p, cpu_token))
                seq += 1
            elif pre_c_com:
                cpu_task = -1
                h_rem[p] = -1
            if push_l:
                ch_task = p
                ch_end = nl_t
                push(heap, (nl_t, seq, 1, 0, 0))
                seq += 1
            elif nl_t < 0 and pre_l_com:
                ch_task = -1
            ff_idx[p] = head_idx[p]
            ff_until[p] = upto  # the prefix is harvested up to here
            break

    _TIMES["advance_s"] += _walltime.perf_counter() - t_adv
    t_unpack = _walltime.perf_counter()

    # ----- unpack ------------------------------------------------------
    stats: Dict[str, TaskStats] = {}
    for p, t in enumerate(tasks):
        st = TaskStats(name=t.name)
        st.responses = resp[off[p] : off[p] + resp_n[p]].tolist()
        st.misses = misses[p]
        st.unfinished = len(q[p])
        st.aborts = aborts[p]
        st.skips = skips[p]
        stats[t.name] = st

    counters = _fold_counters
    counters["runs"] += 1
    if folds:
        counters["folds"] += folds
        counters["cycles_skipped"] += fold_cycles
        counters["jobs_skipped"] += fold_jobs_skipped
    _counters["sim_soa_runs"] += 1
    _counters["sim_soa_events"] += events

    result = SimResult(
        stats=stats,
        trace=None,
        cpu_busy=cpu_busy,
        dma_busy=dma_busy,
        end_time=time_now,
        aborted_on_miss=False,
        truncated=truncated,
        dma_retries=0,
        fold_cycles=fold_cycles,
        fold_jobs_skipped=fold_jobs_skipped,
    )
    _TIMES["unpack_s"] += _walltime.perf_counter() - t_unpack
    return result
