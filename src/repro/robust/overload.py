"""Overload-management policies: what to do when a job runs late.

The nominal simulator implements ``CONTINUE`` semantics: a job that
misses its deadline keeps running, pushing every successor later — a
transient overload snowballs into a queue that never drains.  Real
systems shed load instead.  :class:`OverrunPolicy` names the strategies
the simulator implements, and :class:`OverloadManager` keeps the
per-task mode state for the ``DEGRADE`` policy:

* ``CONTINUE`` — run every job to completion (baseline; the pre-existing
  simulator behavior, bit-identical).
* ``ABORT_AT_DEADLINE`` — kill a job the instant its absolute deadline
  passes: in-flight compute is cancelled (an RTOS can kill the thread);
  an in-flight DMA transfer drains (hardware streams are
  non-preemptive) but its result is discarded.  The freed CPU/DMA time
  goes to the next jobs.
* ``SKIP_NEXT`` — a job that completes after its deadline suppresses
  the task's *next* release (firm ``(m, k)``-style load shedding with
  ``m = k - 1``); the release schedule itself is unchanged.
* ``DEGRADE`` — after ``miss_threshold`` consecutive misses the task
  switches to a registered fallback segment list (a smaller / more
  aggressively quantized model variant) and recovers to the full model
  after ``recover_after`` consecutive clean jobs.

The manager is pure bookkeeping — it owns no randomness, so overload
handling never perturbs determinism.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.sched.task import PeriodicTask, Segment, TaskSet

if TYPE_CHECKING:  # pragma: no cover - the simulator imports this package
    from repro.robust.faults import FaultConfig
    from repro.sched.simulator import SimResult


class OverrunPolicy(enum.Enum):
    """Simulator reaction to jobs that overrun their deadline."""

    CONTINUE = "continue"
    ABORT_AT_DEADLINE = "abort"
    SKIP_NEXT = "skip-next"
    DEGRADE = "degrade"


@dataclass(frozen=True)
class DegradeConfig:
    """Parameters of the ``DEGRADE`` policy.

    Attributes:
        fallbacks: Per-task fallback segment lists (task name → segment
            tuple).  Tasks without an entry never degrade.
        miss_threshold: Consecutive deadline misses before switching to
            the fallback variant.
        recover_after: Consecutive clean (on-time) jobs in degraded mode
            before switching back to the full model.
    """

    fallbacks: Mapping[str, Tuple[Segment, ...]]
    miss_threshold: int = 2
    recover_after: int = 3

    def __post_init__(self) -> None:
        if self.miss_threshold < 1:
            raise ValueError(
                f"miss_threshold must be >= 1, got {self.miss_threshold}"
            )
        if self.recover_after < 1:
            raise ValueError(
                f"recover_after must be >= 1, got {self.recover_after}"
            )
        for name, segments in self.fallbacks.items():
            if not segments:
                raise ValueError(f"fallback for {name!r} must be non-empty")


def degraded_variant(task: PeriodicTask, factor: float = 0.5) -> Tuple[Segment, ...]:
    """A scaled-down fallback segment list for ``task``.

    Stands in for a smaller or more aggressively quantized model
    variant: every segment's compute and load shrink by ``factor``
    (compute stays >= 1 cycle; loads may reach 0).  Useful for
    experiments; deployments register real variant segmentations.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"factor must be in (0, 1], got {factor}")
    return tuple(
        Segment(
            name=f"{s.name}~",
            load_cycles=int(s.load_cycles * factor),
            compute_cycles=max(1, math.ceil(s.compute_cycles * factor)),
            load_bytes=int(s.load_bytes * factor),
            xip_bytes=int(s.xip_bytes * factor),
        )
        for s in task.segments
    )


def variant_fallbacks(taskset: TaskSet, factor: float) -> DegradeConfig:
    """``DEGRADE`` every task to its :func:`degraded_variant` at ``factor``."""
    return DegradeConfig(
        fallbacks={t.name: degraded_variant(t, factor) for t in taskset}
    )


def simulate_policies(
    taskset: TaskSet,
    horizon: int,
    faults: "FaultConfig",
    degrade: DegradeConfig,
) -> Dict[OverrunPolicy, "SimResult"]:
    """Simulate ``taskset`` under ``faults`` once per overrun policy.

    Every run uses fixed-priority non-preemptive scheduling over
    ``horizon`` cycles; only the ``DEGRADE`` run gets ``degrade``.
    """
    from repro.sched.policies import CpuPolicy
    from repro.sched.simulator import SimConfig, simulate

    return {
        policy: simulate(taskset, SimConfig(
            policy=CpuPolicy.FP_NP,
            horizon=horizon,
            faults=faults,
            overrun=policy,
            degrade=degrade if policy is OverrunPolicy.DEGRADE else None,
        ))
        for policy in OverrunPolicy
    }


@dataclass
class _TaskMode:
    """Per-task DEGRADE bookkeeping."""

    degraded: bool = False
    consecutive_misses: int = 0
    clean_jobs: int = 0


class OverloadManager:
    """Tracks per-task overload state and decides mode transitions.

    The simulator calls :meth:`segments_for` at every release and
    :meth:`job_finished` at every completion/abort; the returned
    transition (``"degrade"`` / ``"recover"`` / None) is traced.
    """

    def __init__(
        self, policy: OverrunPolicy, degrade: Optional[DegradeConfig] = None
    ) -> None:
        if policy is OverrunPolicy.DEGRADE and degrade is None:
            raise ValueError("OverrunPolicy.DEGRADE needs a DegradeConfig")
        self.policy = policy
        self.degrade = degrade
        self._modes: Dict[str, _TaskMode] = {}

    def _mode(self, task_name: str) -> _TaskMode:
        return self._modes.setdefault(task_name, _TaskMode())

    def is_degraded(self, task_name: str) -> bool:
        """Whether ``task_name`` currently releases fallback jobs."""
        return self._mode(task_name).degraded

    def segments_for(self, task: PeriodicTask) -> Tuple[Segment, ...]:
        """The segment list a job of ``task`` released now executes."""
        if (
            self.policy is OverrunPolicy.DEGRADE
            and self.degrade is not None
            and self._mode(task.name).degraded
        ):
            fallback = self.degrade.fallbacks.get(task.name)
            if fallback is not None:
                return tuple(fallback)
        return task.segments

    def job_finished(self, task_name: str, missed: bool) -> Optional[str]:
        """Record one job outcome; returns a mode transition, if any.

        ``missed`` covers both late completions and aborted jobs.
        """
        if self.policy is not OverrunPolicy.DEGRADE or self.degrade is None:
            return None
        if task_name not in self.degrade.fallbacks:
            return None
        mode = self._mode(task_name)
        if missed:
            mode.consecutive_misses += 1
            mode.clean_jobs = 0
            if (
                not mode.degraded
                and mode.consecutive_misses >= self.degrade.miss_threshold
            ):
                mode.degraded = True
                mode.consecutive_misses = 0
                return "degrade"
        else:
            mode.clean_jobs += 1
            mode.consecutive_misses = 0
            if mode.degraded and mode.clean_jobs >= self.degrade.recover_after:
                mode.degraded = False
                mode.clean_jobs = 0
                return "recover"
        return None
