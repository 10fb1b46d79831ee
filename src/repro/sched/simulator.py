"""Deterministic discrete-event simulator for segmented tasks on CPU + DMA.

The platform has two serialized resources:

* the **CPU**, which executes segment compute bursts under a
  :class:`~repro.sched.policies.CpuPolicy`;
* the **DMA engine**, which stages segment weights; transfers are
  non-preemptive and arbitrated FIFO or by task priority
  (:class:`~repro.hw.dma.DmaArbitration`).

Per task, jobs are processed FIFO (only the oldest incomplete job makes
progress).  Within a job, segment *j*'s compute requires its load to have
completed, and segment *j*'s load may only start once segment
``j - buffers``'s compute has finished (staging buffer reuse).

All state is integer cycles; ties are broken deterministically, so a
simulation is exactly reproducible.

Fault injection and overload management (:mod:`repro.robust`) hook in
through :class:`SimConfig`: a :class:`~repro.robust.faults.FaultConfig`
perturbs compute/transfer durations from a dedicated seeded source, and
an :class:`~repro.robust.overload.OverrunPolicy` decides what happens to
jobs that overrun their deadline (abort, skip the next release, or
degrade to a fallback segment list).  Persistent external-memory faults
(:mod:`repro.robust.escalation`) and the recovery ladder
(:mod:`repro.robust.recovery`) hook in the same way (``escalation=``,
``recovery=``): a transfer whose retry budget is exhausted raises a
:class:`~repro.robust.escalation.FaultEvent` and the simulator either
walks the recovery ladder (REMAP → XIP_FALLBACK → DEGRADE → QUARANTINE)
or, with no recovery configured, quarantines the task — a fault never
silently succeeds.  With no faults, a null escalation config, and
``OverrunPolicy.CONTINUE`` the simulator is bit-identical to the nominal
engine.

:class:`Simulator` is the plain reference loop: it steps every event
and never folds.  :func:`simulate` prefers the struct-of-arrays core
(:mod:`repro.sched.simcore`, the only engine with steady-state
folding) and stands down to this loop for the configs that core does
not model; the identity suites check simcore against it.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.hw.dma import DmaArbitration
from repro.robust.escalation import (
    EscalationConfig,
    FaultEvent,
    FaultKind,
    TransferFaultHandler,
    TransferOutcome,
    flash_layout,
)
from repro.robust.faults import FaultConfig, FaultInjector
from repro.robust.overload import DegradeConfig, OverloadManager, OverrunPolicy
from repro.robust.recovery import RecoveryConfig, RecoveryManager
from repro.sched.policies import CpuPolicy
from repro.sched.task import PeriodicTask, Segment, TaskSet
from repro.sched.trace import Trace, TraceEvent

_RELEASE = 0
_DMA_DONE = 1
_CPU_DONE = 2
_DEADLINE = 3

# Hoisted alongside the heappop alias in run(): _push runs per event
# and a module-global lookup beats the heapq attribute chain.
_heappush = heapq.heappush

# Process-wide fold counters (repro.obs group "sim.fold").  Only
# simcore folds; this loop bumps ``runs`` so the group counts every run
# of either engine.
_fold_counters = obs.live("sim.fold")


@dataclass(slots=True)
class _Job:
    """Runtime state of one released job.

    ``segments`` is snapshotted at release (it may be the task's
    fallback variant under ``OverrunPolicy.DEGRADE``); all progress
    bookkeeping runs against the snapshot, never ``task.segments``.

    Slotted: sweeps allocate one instance per released job, and slot
    storage is both smaller and faster than a per-instance ``__dict__``.
    """

    task: PeriodicTask
    segments: Tuple[Segment, ...]
    task_pos: int
    index: int
    release: int
    abs_deadline: int
    # Hot-loop mirrors, frozen at creation: the scheduling passes touch
    # these at every event, and a plain slot read beats a property or an
    # attribute chain through ``task``.
    n_seg: int = 0
    buffers: int = 0
    priority: int = 0
    has_zero_loads: bool = False
    loads_issued: int = 0
    loads_done: int = 0
    computes_done: int = 0
    compute_remaining: Optional[int] = None
    load_eligible_since: Optional[int] = None
    finish: Optional[int] = None
    aborted: bool = False
    fault_since: Optional[int] = None

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def complete(self) -> bool:
        return self.computes_done == len(self.segments)

    def load_eligible(self) -> bool:
        """Whether the next load may be issued (buffer available)."""
        j = self.loads_issued
        return j < len(self.segments) and j - self.computes_done < self.task.buffers


@dataclass(slots=True)
class TaskStats:
    """Per-task simulation outcome."""

    name: str
    responses: List[int] = field(default_factory=list)
    misses: int = 0
    unfinished: int = 0
    aborts: int = 0
    skips: int = 0
    degraded_jobs: int = 0
    quarantined_releases: int = 0

    @property
    def jobs(self) -> int:
        """Jobs released (finished + aborted + unfinished).

        Releases suppressed by ``SKIP_NEXT`` (``skips``) never became
        jobs and are not counted here.
        """
        return len(self.responses) + self.aborts + self.unfinished

    @property
    def max_response(self) -> Optional[int]:
        """Worst observed response time, or None if no job finished."""
        return max(self.responses) if self.responses else None


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    stats: Dict[str, TaskStats]
    trace: Optional[Trace]
    cpu_busy: int
    dma_busy: int
    end_time: int
    aborted_on_miss: bool = False
    truncated: bool = False
    dma_retries: int = 0
    fault_events: List[FaultEvent] = field(default_factory=list)
    recovery_latencies: List[int] = field(default_factory=list)
    recovery_counts: Dict[str, int] = field(default_factory=dict)
    quarantined: Tuple[str, ...] = ()
    #: Steady-state folding telemetry, filled only by
    #: :mod:`repro.sched.simcore`: a detected state cycle lets it replay
    #: whole hyperperiods arithmetically.  Every other field of the
    #: result is bit-identical to the unfolded run; these two only
    #: describe how it was obtained (the scalar loop reports zero).
    fold_cycles: int = 0
    fold_jobs_skipped: int = 0

    @property
    def total_misses(self) -> int:
        """Deadline misses plus aborted jobs plus jobs that never finished."""
        return sum(s.misses + s.aborts + s.unfinished for s in self.stats.values())

    @property
    def no_misses(self) -> bool:
        """True iff every released job met its deadline."""
        return self.total_misses == 0 and not self.aborted_on_miss

    def max_response(self, task_name: str) -> Optional[int]:
        """Worst observed response time of ``task_name``."""
        return self.stats[task_name].max_response


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    Attributes:
        policy: CPU scheduling policy.
        dma_arbitration: DMA queue ordering.
        horizon: Jobs are released while ``release < horizon``; released
            jobs then run to completion (subject to ``hard_cap_factor``).
        record_trace: Keep a full :class:`~repro.sched.trace.Trace`
            (memory-heavy for long runs).
        abort_on_miss: Stop at the first deadline miss (fast empirical
            schedulability checks).
        hard_cap_factor: Terminate anyway at ``horizon * factor`` and
            count incomplete jobs as unfinished (guards overload runs).
        dma_channels: Number of independent DMA channels (transfers on
            different channels proceed in parallel; the analyses model
            one channel, which is conservative for more).
        sporadic_slack: When positive, releases are *sporadic*: after
            each job, the next arrives ``period + U(0, slack * period)``
            cycles later (seeded by ``seed``; exactly reproducible).
            The periodic analyses remain valid — ``period`` stays the
            minimum inter-arrival time.
        seed: Random seed for sporadic release draws.
        faults: Optional fault-injection parameters (WCET overrun, DMA
            retries, bus jitter); ``None`` or a null config leaves every
            duration nominal.  Fault draws use the config's own seed,
            independent of ``seed``.
        overrun: Reaction to jobs that overrun their deadline (see
            :class:`~repro.robust.overload.OverrunPolicy`).  The default
            ``CONTINUE`` is the nominal run-to-completion behavior.
        degrade: Fallback-variant parameters; required when ``overrun``
            is ``DEGRADE``, ignored otherwise.
        escalation: Optional persistent-fault / fault-handler parameters
            (bad flash regions, bus degradation, DMA lockup, bounded
            retries with exponential backoff).  ``None`` or a null
            config instantiates no handler and leaves the run
            bit-identical to the nominal engine.  When active it
            supersedes the transfer-side model of ``faults`` (retries
            and bus jitter); compute inflation from ``faults`` still
            applies.
        recovery: Optional recovery ladder reacting to terminal
            transfer faults (REMAP → XIP_FALLBACK → DEGRADE →
            QUARANTINE).  Without it, any terminal fault quarantines
            the task.  Ignored unless a fault source is active.
    """

    policy: CpuPolicy = CpuPolicy.FP_NP
    dma_arbitration: DmaArbitration = DmaArbitration.PRIORITY
    horizon: int = 0
    record_trace: bool = False
    abort_on_miss: bool = False
    hard_cap_factor: float = 4.0
    sporadic_slack: float = 0.0
    seed: int = 0
    dma_channels: int = 1
    faults: Optional[FaultConfig] = None
    overrun: OverrunPolicy = OverrunPolicy.CONTINUE
    degrade: Optional[DegradeConfig] = None
    escalation: Optional[EscalationConfig] = None
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self) -> None:
        if self.sporadic_slack < 0:
            raise ValueError(
                f"sporadic_slack must be >= 0, got {self.sporadic_slack}"
            )
        if self.dma_channels < 1:
            raise ValueError(
                f"dma_channels must be >= 1, got {self.dma_channels}"
            )
        if self.overrun is OverrunPolicy.DEGRADE and self.degrade is None:
            raise ValueError("OverrunPolicy.DEGRADE requires a DegradeConfig")


class Simulator:
    """Event-driven executor for a :class:`~repro.sched.task.TaskSet`."""

    def __init__(self, taskset: TaskSet, config: SimConfig) -> None:
        if config.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {config.horizon}")
        self.taskset = taskset
        self.config = config
        self.trace = Trace() if config.record_trace else None
        self._heap: List[Tuple[int, int, int, object]] = []
        self._seq = itertools.count()
        self._queues: Dict[str, Deque[_Job]] = {t.name: deque() for t in taskset}
        # Hot-loop state, hoisted once: the scheduling passes run at every
        # event and must not re-derive policy flags or queue lookups.
        self._tasks: Tuple[PeriodicTask, ...] = tuple(taskset)
        self._queue_list: List[Deque[_Job]] = [
            self._queues[t.name] for t in self._tasks
        ]
        self._deadline_driven = config.policy.deadline_driven
        self._preemptive = config.policy.preemptive
        self._fifo_dma = config.dma_arbitration is DmaArbitration.FIFO
        self._stats = {t.name: TaskStats(name=t.name) for t in taskset}
        self._cpu_job: Optional[_Job] = None
        self._cpu_start = 0
        self._cpu_token = 0
        self._dma_channels: Dict[int, _Job] = {}
        self._cpu_busy = 0
        self._dma_busy = 0
        self._dma_retries = 0
        self._aborted = False
        self._truncated = False
        self._hard_cap = int(config.horizon * config.hard_cap_factor) + max(
            t.period for t in taskset
        )
        self._arrival_rng = random.Random(config.seed)
        self._faults: Optional[FaultInjector] = (
            FaultInjector(config.faults)
            if config.faults is not None and not config.faults.is_null
            else None
        )
        self._overload = OverloadManager(config.overrun, config.degrade)
        self._skip_next: Dict[str, bool] = {t.name: False for t in taskset}
        # Persistent-fault escalation + recovery ladder.  Null configs
        # instantiate nothing, keeping nominal runs bit-identical.
        self._escalation: Optional[TransferFaultHandler] = (
            TransferFaultHandler(config.escalation, flash_layout(taskset))
            if config.escalation is not None and not config.escalation.is_null
            else None
        )
        self._recovery: Optional[RecoveryManager] = (
            RecoveryManager(config.recovery)
            if config.recovery is not None
            and (self._escalation is not None or self._faults is not None)
            else None
        )
        self._dma_fault_pending: Dict[int, TransferOutcome] = {}
        self._fault_events: List[FaultEvent] = []
        self._recovery_latencies: List[int] = []
        self._recovery_counts: Dict[str, int] = {}
        self._quarantined: set = set()
    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: int, kind: int, payload: object) -> None:
        _heappush(self._heap, (time, next(self._seq), kind, payload))

    def _trace(self, **kwargs) -> None:
        # Call sites guard on `self.trace is not None` themselves: with
        # tracing off (the sweep default), not even the kwargs dict for
        # a would-be TraceEvent is built.
        if self.trace is not None:
            self.trace.add(TraceEvent(**kwargs))

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def _release(
        self, time: int, task: PeriodicTask, task_pos: int, index: int
    ) -> bool:
        """Release one job; True iff a scheduling pass could now act.

        A release into a non-empty queue changes nothing either resource
        scheduler can see (only queue heads are candidates), so the main
        loop skips the post-event scheduling pass for it.
        """
        changed = False
        if task.name in self._quarantined:
            # QUARANTINE: the task is suspended; its releases are
            # sacrificed (counted, so miss-ratio accounting stays honest)
            # but the release cadence keeps ticking.
            self._stats[task.name].quarantined_releases += 1
            next_time = time + task.period
            if next_time < self.config.horizon:
                self._push(next_time, _RELEASE, (task_pos, index + 1))
            return False
        if self._skip_next[task.name]:
            # SKIP_NEXT: a late predecessor sheds this release entirely;
            # the release schedule itself keeps its cadence.
            self._skip_next[task.name] = False
            self._stats[task.name].skips += 1
            if self.trace is not None:
                self._trace(
                    time=time, duration=0, resource="", kind="skip",
                    task=task.name, job=index,
                )
        else:
            segments = self._overload.segments_for(task)
            if self._recovery is not None:
                segments = self._recovery.segments_for(task, segments)
            job = _Job(
                task=task,
                segments=segments,
                task_pos=task_pos,
                index=index,
                release=time,
                abs_deadline=time + task.deadline,
                n_seg=len(segments),
                buffers=task.buffers,
                priority=task.priority,
                has_zero_loads=any(s.load_cycles == 0 for s in segments),
            )
            if segments is not task.segments:
                self._stats[task.name].degraded_jobs += 1
            queue = self._queues[task.name]
            changed = not queue  # a new head is scheduler-visible
            queue.append(job)
            if self.trace is not None:
                self._trace(
                    time=time, duration=0, resource="", kind="release",
                    task=task.name, job=index,
                )
            if self.config.overrun is OverrunPolicy.ABORT_AT_DEADLINE:
                self._push(job.abs_deadline, _DEADLINE, job)
        next_time = time + task.period
        if self.config.sporadic_slack > 0:
            slack = int(task.period * self.config.sporadic_slack)
            if slack > 0:
                next_time += self._arrival_rng.randrange(slack + 1)
        if next_time < self.config.horizon:
            self._push(next_time, _RELEASE, (task_pos, index + 1))
        return changed

    def _complete_job(self, time: int, job: _Job) -> None:
        job.finish = time
        response = time - job.release
        stats = self._stats[job.task.name]
        stats.responses.append(response)
        if job.fault_since is not None:
            # Recovery latency: first terminal fault -> job completion.
            self._recovery_latencies.append(time - job.fault_since)
        missed = time > job.abs_deadline
        if missed:
            stats.misses += 1
            if self.trace is not None:
                self._trace(
                    time=time,
                    duration=0,
                    resource="",
                    kind="miss",
                    task=job.task.name,
                    job=job.index,
                )
            if self.config.abort_on_miss:
                self._aborted = True
            if self.config.overrun is OverrunPolicy.SKIP_NEXT:
                self._skip_next[job.task.name] = True
        if self.trace is not None:
            self._trace(
                time=time,
                duration=0,
                resource="",
                kind="complete",
                task=job.task.name,
                job=job.index,
            )
        queue = self._queues[job.task.name]
        assert queue and queue[0] is job, "completed job must be the task's head job"
        queue.popleft()
        self._mode_transition(time, job, missed)

    def _mode_transition(self, time: int, job: _Job, missed: bool) -> None:
        """Feed a job outcome to the overload manager; trace transitions."""
        transition = self._overload.job_finished(job.task.name, missed)
        if transition is not None and self.trace is not None:
            self._trace(
                time=time,
                duration=0,
                resource="",
                kind=transition,
                task=job.task.name,
                job=job.index,
            )

    def _deadline_abort(self, time: int, job: _Job) -> bool:
        """ABORT_AT_DEADLINE: kill ``job`` the instant its deadline passes."""
        if job.complete or job.aborted:
            return False
        if (
            self._cpu_job is job
            and job.compute_remaining is not None
            and self._cpu_start + job.compute_remaining == time
            and job.computes_done + 1 == job.num_segments
        ):
            return False  # its final burst completes at this very instant: on time
        if self._cpu_job is job:
            self._stop_compute(time, trace_kind=None)
        job.aborted = True
        stats = self._stats[job.task.name]
        stats.aborts += 1
        if self.trace is not None:
            self._trace(
                time=time, duration=0, resource="", kind="abort",
                task=job.task.name, job=job.index,
            )
        queue = self._queues[job.task.name]
        assert queue and queue[0] is job, "aborted job must be the task's head job"
        queue.popleft()
        # An in-flight DMA transfer drains (non-preemptive hardware);
        # _dma_done frees the channel and discards the data.
        self._mode_transition(time, job, missed=True)
        return True

    # ------------------------------------------------------------------
    # DMA scheduling
    # ------------------------------------------------------------------
    def _advance_zero_loads(self) -> None:
        """Complete zero-byte and XIP-mode loads instantly (no DMA).

        A segment a prior fault pushed to XIP_FALLBACK executes in
        place: nothing is staged (the compute-side penalty is charged in
        :meth:`_start_compute`).
        """
        recovery = self._recovery
        if recovery is None:
            # Nominal fast path: only jobs that actually carry a
            # zero-cycle load (flagged at release) need the inner loop.
            for queue in self._queue_list:
                if queue:
                    job = queue[0]
                    if job.has_zero_loads:
                        while (
                            job.loads_issued < job.n_seg
                            and job.loads_issued - job.computes_done < job.buffers
                            and job.segments[job.loads_issued].load_cycles == 0
                        ):
                            job.loads_issued += 1
                            job.loads_done += 1
                            job.load_eligible_since = None
            return
        for queue in self._queue_list:
            if not queue:
                continue
            job = queue[0]
            while job.load_eligible() and (
                job.segments[job.loads_issued].load_cycles == 0
                or recovery.is_xip(job.task.name, job.loads_issued)
            ):
                job.loads_issued += 1
                job.loads_done += 1
                job.load_eligible_since = None

    def _schedule_dma(self, time: int) -> None:
        self._advance_zero_loads()
        channels = self._dma_channels
        n_channels = self.config.dma_channels
        queue_list = self._queue_list
        fifo = self._fifo_dma
        deadline_driven = self._deadline_driven
        while len(channels) < n_channels:
            # Single-channel runs (the common case) never have another
            # transfer in flight once the loop condition holds.
            in_flight = (
                set(id(j) for j in channels.values()) if channels else None
            )
            job: Optional[_Job] = None
            best_key = None
            for queue in queue_list:
                if not queue:
                    continue
                cand = queue[0]
                issued = cand.loads_issued
                if (
                    issued >= cand.n_seg
                    or issued - cand.computes_done >= cand.buffers
                ):
                    continue  # no load pending or staging buffers full
                if in_flight is not None and id(cand) in in_flight:
                    continue  # one outstanding transfer per job
                if cand.load_eligible_since is None:
                    cand.load_eligible_since = time
                if fifo:
                    key = (cand.load_eligible_since, cand.release, cand.task_pos)
                elif deadline_driven:
                    key = (
                        cand.abs_deadline, cand.priority,
                        cand.release, cand.task_pos,
                    )
                else:
                    key = (cand.priority, cand.release, cand.task_pos)
                if best_key is None or key < best_key:
                    job, best_key = cand, key
            if job is None:
                return
            segment = job.segments[job.loads_issued]
            transfer_cycles = segment.load_cycles
            outcome: Optional[TransferOutcome] = None
            if self._escalation is not None:
                source = "primary"
                region_immune = False
                if self._recovery is not None:
                    source = self._recovery.source(job.task.name, job.loads_issued)
                    region_immune = self._recovery.region_immune(job.task.name)
                    if source == "mirror":
                        # REMAP: re-fetch from the mirror copy, paying
                        # the redirect overhead and mirror slowdown.
                        transfer_cycles = self._recovery.config.remap_cycles(
                            transfer_cycles
                        )
                outcome = self._escalation.resolve(
                    time,
                    job.task.name,
                    job.index,
                    job.loads_issued,
                    transfer_cycles,
                    source=source,
                    region_immune=region_immune,
                )
                transfer_cycles = outcome.cycles
                self._dma_retries += outcome.retries
            elif self._faults is not None:
                transfer_cycles, retries, exhausted = self._faults.transfer_cycles(
                    transfer_cycles
                )
                self._dma_retries += retries
                if exhausted:
                    outcome = TransferOutcome(
                        transfer_cycles, retries, False, FaultKind.RETRY_EXHAUSTED
                    )
            # Single-channel runs (and the first transfer of any run)
            # skip the free-channel search entirely.
            channel = 0 if not channels else min(
                c for c in range(n_channels) if c not in channels
            )
            if outcome is not None and not outcome.ok:
                self._dma_fault_pending[channel] = outcome
            self._dma_channels[channel] = job
            job.load_eligible_since = None
            self._dma_busy += transfer_cycles
            if self.trace is not None:
                self._trace(
                    time=time,
                    duration=transfer_cycles,
                    resource="dma" if channel == 0 else f"dma{channel + 1}",
                    kind="load",
                    task=job.task.name,
                    job=job.index,
                    segment=job.loads_issued,
                )
            self._push(time + transfer_cycles, _DMA_DONE, (channel, job))

    def _dma_done(self, time: int, channel: int, job: _Job) -> bool:
        assert self._dma_channels.get(channel) is job, (
            "DMA completion for a job that is not transferring on this channel"
        )
        del self._dma_channels[channel]
        outcome = self._dma_fault_pending.pop(channel, None)
        if job.aborted:
            return True  # the transfer drained; the freed channel can restart
        if outcome is not None and not outcome.ok:
            self._on_transfer_fault(time, job, outcome)
            return True
        job.loads_issued += 1
        job.loads_done += 1
        return True

    def _on_transfer_fault(
        self, time: int, job: _Job, outcome: TransferOutcome
    ) -> None:
        """React to a transfer whose retry budget was exhausted.

        The segment's weights did **not** arrive.  The recovery ladder
        (if configured) picks the next rung; without one the task is
        quarantined — the one thing that never happens is pretending
        the data is there.
        """
        segment = job.loads_issued
        assert outcome.kind is not None
        self._fault_events.append(
            FaultEvent(
                time=time,
                task=job.task.name,
                job=job.index,
                segment=segment,
                kind=outcome.kind,
                attempts=outcome.retries + 1,
                lost_cycles=outcome.cycles,
            )
        )
        if job.fault_since is None:
            job.fault_since = time
        if self.trace is not None:
            self._trace(
                time=time, duration=0, resource="", kind="fault",
                task=job.task.name, job=job.index, segment=segment,
            )
        if self._recovery is not None:
            action = self._recovery.on_fault(job.task.name, segment, outcome.kind)
        else:
            action = "quarantine"
        self._recovery_counts[action] = self._recovery_counts.get(action, 0) + 1
        if action == "remap":
            # Leave the load un-issued: the next DMA pass re-fetches the
            # segment, now reading from the mirror copy.
            if self.trace is not None:
                self._trace(
                    time=time, duration=0, resource="", kind="remap",
                    task=job.task.name, job=job.index, segment=segment,
                )
        elif action == "xip-fallback":
            # The segment executes in place from now on: no staging;
            # _start_compute charges the XIP penalty instead.
            job.loads_issued += 1
            job.loads_done += 1
            if self.trace is not None:
                self._trace(
                    time=time, duration=0, resource="", kind="xip-fallback",
                    task=job.task.name, job=job.index, segment=segment,
                )
        elif action == "degrade":
            # Abandon this job; future releases run the fallback
            # variant (assumed to fit in healthy/internal memory).
            self._abandon_job(time, job, kind="degrade")
        else:
            self._quarantine(time, job)

    def _quarantine(self, time: int, job: _Job) -> None:
        """Suspend ``job``'s task: abandon it and all queued backlog."""
        name = job.task.name
        self._quarantined.add(name)
        self._abandon_job(time, job, kind="quarantine")
        queue = self._queues[name]
        while queue:
            backlog = queue.popleft()
            backlog.aborted = True
            self._stats[name].aborts += 1

    def _abandon_job(self, time: int, job: _Job, kind: str) -> None:
        """Kill ``job`` after an unrecoverable fault (counts as an abort)."""
        if self._cpu_job is job:
            self._stop_compute(time, trace_kind=None)
        job.aborted = True
        self._stats[job.task.name].aborts += 1
        if self.trace is not None:
            self._trace(
                time=time, duration=0, resource="", kind=kind,
                task=job.task.name, job=job.index,
            )
        queue = self._queues[job.task.name]
        assert queue and queue[0] is job, "abandoned job must be the task's head job"
        queue.popleft()
        self._mode_transition(time, job, missed=True)

    # ------------------------------------------------------------------
    # CPU scheduling
    # ------------------------------------------------------------------
    def _start_compute(self, time: int, job: _Job) -> None:
        segment = job.segments[job.computes_done]
        if job.compute_remaining is None:
            burst = segment.compute_cycles
            if self._recovery is not None and self._recovery.is_xip(
                job.task.name, job.computes_done
            ):
                # XIP_FALLBACK: the CPU fetches this segment's weights
                # in place while computing, at XIP timing.
                burst += self._recovery.config.xip_penalty(segment)
            if self._faults is not None:
                burst = self._faults.compute_cycles(burst)
            job.compute_remaining = burst
        self._cpu_job = job
        self._cpu_start = time
        self._cpu_token += 1
        self._push(time + job.compute_remaining, _CPU_DONE, (self._cpu_token, job))

    def _stop_compute(self, time: int, trace_kind: Optional[str] = "preempt") -> None:
        """Stop the running segment (preemption or abort), banking progress."""
        job = self._cpu_job
        assert job is not None and job.compute_remaining is not None
        elapsed = time - self._cpu_start
        if elapsed > 0:
            self._cpu_busy += elapsed
            if self.trace is not None:
                self._trace(
                    time=self._cpu_start,
                    duration=elapsed,
                    resource="cpu",
                    kind="compute",
                    task=job.task.name,
                    job=job.index,
                    segment=job.computes_done,
                )
        job.compute_remaining -= elapsed
        if trace_kind is not None and self.trace is not None:
            self._trace(
                time=time, duration=0, resource="", kind=trace_kind,
                task=job.task.name, job=job.index,
            )
        self._cpu_job = None
        self._cpu_token += 1  # invalidate the in-flight CPU_DONE event

    def _schedule_cpu(self, time: int) -> None:
        cpu_job = self._cpu_job
        if cpu_job is not None and not self._preemptive:
            return  # non-preemptive: nothing to decide until the burst ends
        deadline_driven = self._deadline_driven
        best: Optional[_Job] = None
        best_key = None
        for queue in self._queue_list:
            if queue:
                job = queue[0]
                # Next segment's weights staged (and implicitly not
                # complete: a complete job has computes_done == n_seg >=
                # loads_done).
                if job.computes_done < job.loads_done:
                    if deadline_driven:
                        key = (
                            job.abs_deadline, job.priority,
                            job.release, job.task_pos,
                        )
                    else:
                        key = (job.priority, job.release, job.task_pos)
                    if best_key is None or key < best_key:
                        best, best_key = job, key
        if best is None:
            return
        if cpu_job is None:
            self._start_compute(time, best)
            return
        if best is cpu_job:
            return  # the running job already outranks every other candidate
        if deadline_driven:
            run_key = (
                cpu_job.abs_deadline, cpu_job.priority,
                cpu_job.release, cpu_job.task_pos,
            )
        else:
            run_key = (cpu_job.priority, cpu_job.release, cpu_job.task_pos)
        if best_key < run_key:
            self._stop_compute(time)
            self._start_compute(time, best)

    def _cpu_done(self, time: int, token: int, job: _Job) -> bool:
        if token != self._cpu_token or self._cpu_job is not job:
            return False  # stale completion from a preempted burst
        duration = time - self._cpu_start
        self._cpu_busy += duration
        if self.trace is not None:
            self._trace(
                time=self._cpu_start,
                duration=duration,
                resource="cpu",
                kind="compute",
                task=job.task.name,
                job=job.index,
                segment=job.computes_done,
            )
        self._cpu_job = None
        self._cpu_token += 1
        job.compute_remaining = None
        job.computes_done += 1
        if job.computes_done == job.n_seg:
            self._complete_job(time, job)
        return True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _dispatch(self, time: int, kind: int, payload: object) -> bool:
        """Process one event; True iff scheduler-visible state changed.

        Releases into backlogged queues and stale completions mutate
        nothing a scheduling pass could act on, and the passes are
        idempotent, so the main loop skips the pass for such batches.
        """
        if kind == _RELEASE:
            pos, index = payload  # type: ignore[misc]
            return self._release(time, self.taskset[pos], pos, index)
        if kind == _DMA_DONE:
            channel, job = payload  # type: ignore[misc]
            return self._dma_done(time, channel, job)
        if kind == _CPU_DONE:
            token, job = payload  # type: ignore[misc]
            return self._cpu_done(time, token, job)
        return self._deadline_abort(time, payload)  # type: ignore[arg-type]

    def run(self) -> SimResult:
        """Execute the simulation and return aggregated results."""
        for pos, task in enumerate(self.taskset):
            if task.phase < self.config.horizon:
                self._push(task.phase, _RELEASE, (pos, 0))
        heap = self._heap
        pop = heapq.heappop
        dispatch = self._dispatch
        # Per-event costs hoisted out of the dispatch loop: the
        # scheduling passes are bound methods looked up once, not per
        # changed-batch.
        schedule_dma = self._schedule_dma
        schedule_cpu = self._schedule_cpu
        hard_cap = self._hard_cap
        time = 0
        while heap and not self._aborted:
            time, _, kind, payload = pop(heap)
            if time > hard_cap:
                self._truncated = True
                break
            changed = dispatch(time, kind, payload)
            # Drain simultaneous events before making scheduling decisions.
            while heap and heap[0][0] == time and not self._aborted:
                _, _, kind, payload = pop(heap)
                if dispatch(time, kind, payload):
                    changed = True
            if changed and not self._aborted:
                schedule_dma(time)
                schedule_cpu(time)
        for task in self.taskset:
            self._stats[task.name].unfinished += len(self._queues[task.name])
        _fold_counters["runs"] += 1
        return SimResult(
            stats=self._stats,
            trace=self.trace,
            cpu_busy=self._cpu_busy,
            dma_busy=self._dma_busy,
            end_time=time,
            aborted_on_miss=self._aborted,
            truncated=self._truncated,
            dma_retries=self._dma_retries,
            fault_events=self._fault_events,
            recovery_latencies=self._recovery_latencies,
            recovery_counts=self._recovery_counts,
            quarantined=tuple(sorted(self._quarantined)),
        )


_simcore = None


def simulate(
    taskset: TaskSet,
    config: SimConfig,
    arena: Optional[object] = None,
) -> SimResult:
    """Run one simulation, preferring the struct-of-arrays core.

    Dispatches to :mod:`repro.sched.simcore` when the config is within
    its modeled feature set (results are bit-identical up to fold
    telemetry), and falls back to the scalar :class:`Simulator`
    otherwise.  ``arena`` only reaches simcore: an
    :class:`~repro.sched.simcore.Arena` reused across runs (see
    :func:`repro.eval.parallel.simulate_batch`).
    """
    global _simcore
    if _simcore is None:
        from repro.sched import simcore

        _simcore = simcore
    result = _simcore.try_simulate(taskset, config, arena)
    if result is not None:
        return result
    return Simulator(taskset, config).run()
