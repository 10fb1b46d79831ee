"""Task-set, hyperperiod and EDF demand helpers.

:class:`RtaTask` is an analysis-level task on one resource (``priority``
lower = higher); :func:`utilization` sums its demand density; the
guarded :func:`hyperperiod` / :func:`try_hyperperiod` bound LCM blowup;
and :func:`edf_demand_schedulable` is the processor-demand test that
:mod:`repro.core.edf` builds on.  The fixed-priority response-time
analyses are :mod:`repro.core.analysis` (scalar) and
:mod:`repro.sched.vecrta` (vectorized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class RtaTask:
    """Analysis-level task description.

    Attributes:
        name: For error messages and reports.
        exec_cycles: Worst-case demand per job on the analysed resource.
        period: Minimum inter-arrival time.
        deadline: Relative deadline (constrained: ``<= period``).
        priority: Fixed priority; lower number = higher priority.
        jitter: Release jitter on this resource (for holistic analysis).
        blocking: Maximum blocking from lower-priority non-preemptive
            sections, computed by the caller.
    """

    name: str
    exec_cycles: int
    period: int
    deadline: int
    priority: int
    jitter: int = 0
    blocking: int = 0

    def __post_init__(self) -> None:
        if self.exec_cycles < 0:
            raise ValueError(f"{self.name}: exec_cycles must be >= 0")
        if self.period <= 0:
            raise ValueError(f"{self.name}: period must be > 0")
        if not 0 < self.deadline <= self.period:
            raise ValueError(f"{self.name}: deadline must be in (0, period]")
        if self.jitter < 0 or self.blocking < 0:
            raise ValueError(f"{self.name}: jitter and blocking must be >= 0")

    @property
    def utilization(self) -> float:
        """Demand density on this resource."""
        return self.exec_cycles / self.period


def utilization(tasks: Sequence[RtaTask]) -> float:
    """Total utilization of ``tasks`` on the analysed resource."""
    return sum(t.utilization for t in tasks)


class HyperperiodError(ValueError):
    """The LCM of the periods exceeds the tractability cap.

    Co-prime periods make the hyperperiod grow multiplicatively — five
    random ~1e7-cycle periods easily exceed 1e30.  Any algorithm that
    iterates over a hyperperiod (demand-bound checkpoints, exhaustive
    phasing search, simulation horizons) silently degenerates on such
    inputs, so :func:`hyperperiod` fails loudly instead.
    """


#: Default hyperperiod cap: generous (~4.6e18 cycles is ~680 years at
#: 216 MHz) yet far below where big-int LCMs start costing real time.
HYPERPERIOD_CAP = 1 << 62


def hyperperiod(periods: Sequence[int], cap: Optional[int] = HYPERPERIOD_CAP) -> int:
    """Least common multiple of ``periods``, guarded against blowup.

    Args:
        periods: Positive periods in cycles.
        cap: Raise :class:`HyperperiodError` once the running LCM
            exceeds this bound (the fold short-circuits, so pathological
            inputs fail fast instead of allocating huge integers).
            ``None`` disables the guard.

    Raises:
        ValueError: Empty or non-positive periods.
        HyperperiodError: The LCM exceeds ``cap``.
    """
    if not periods:
        raise ValueError("periods must be non-empty")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    result = 1
    for period in periods:
        if period <= 0:
            raise ValueError(f"periods must be positive, got {period}")
        result = math.lcm(result, period)
        if cap is not None and result > cap:
            raise HyperperiodError(
                f"hyperperiod of {len(periods)} periods exceeds the cap: "
                f"partial LCM {result} > {cap}; pass cap=None to force, or "
                f"use try_hyperperiod() for a fallible lookup"
            )
    return result


def try_hyperperiod(
    periods: Sequence[int], cap: Optional[int] = HYPERPERIOD_CAP
) -> Optional[int]:
    """:func:`hyperperiod`, but ``None`` instead of raising on blowup.

    For callers with a natural fallback (e.g. simulation horizons capped
    at N jobs of the slowest task) that should degrade gracefully on
    co-prime period sets rather than abort.
    """
    try:
        return hyperperiod(periods, cap=cap)
    except HyperperiodError:
        return None


def edf_demand_schedulable(tasks: Sequence[RtaTask]) -> bool:
    """Processor-demand test for preemptive EDF (jitter/blocking ignored).

    Checks ``dbf(t) <= t`` at all deadlines up to the busy-period bound
    ``L*``; sufficient and necessary for independent preemptive tasks.
    """
    total_util = utilization(tasks)
    if total_util > 1.0:
        return False
    if total_util == 0.0:
        return True
    if total_util < 1.0:
        numerator = sum(
            max(0, t.period - t.deadline) * t.utilization for t in tasks
        )
        l_star = numerator / (1.0 - total_util)
    else:
        l_star = float(hyperperiod([t.period for t in tasks]))
    limit = max(int(math.ceil(l_star)), max(t.deadline for t in tasks))
    checkpoints = sorted(
        {
            t.deadline + k * t.period
            for t in tasks
            for k in range(0, (limit - t.deadline) // t.period + 1)
        }
    )
    for point in checkpoints:
        demand = sum(
            ((point - t.deadline) // t.period + 1) * t.exec_cycles
            for t in tasks
            if point >= t.deadline
        )
        if demand > point:
            return False
    return True
