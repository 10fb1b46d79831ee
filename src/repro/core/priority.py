"""Priority assignment: DM/RM heuristics and Audsley's algorithm.

Priorities are integers; **lower number = higher priority**.  The
heuristics are deterministic (ties broken by name).  Audsley's optimal
priority assignment (OPA) is run against any of the analyses in
:mod:`repro.core.analysis`; note that jitter-chained interference makes
those analyses only *approximately* OPA-compatible, so Audsley here is a
powerful heuristic rather than provably optimal — the standard situation
for holistic analyses (documented in DESIGN.md).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.analysis import analyze
from repro.sched.task import TaskSet


def deadline_monotonic(taskset: TaskSet) -> TaskSet:
    """Assign priorities by ascending relative deadline (DM)."""
    order = sorted(taskset, key=lambda t: (t.deadline, t.period, t.name))
    mapping = {task.name: prio for prio, task in enumerate(order)}
    return TaskSet.of(t.with_priority(mapping[t.name]) for t in taskset)


def rate_monotonic(taskset: TaskSet) -> TaskSet:
    """Assign priorities by ascending period (RM)."""
    order = sorted(taskset, key=lambda t: (t.period, t.deadline, t.name))
    mapping = {task.name: prio for prio, task in enumerate(order)}
    return TaskSet.of(t.with_priority(mapping[t.name]) for t in taskset)


def audsley(taskset: TaskSet, method: str = "rtmdm") -> Optional[TaskSet]:
    """Audsley's priority assignment against a chosen analysis.

    Starting from the lowest priority level, find any task that is
    schedulable at that level assuming all still-unassigned tasks are
    above it; repeat upward.  Returns the prioritized task set, or None
    when no assignment makes every task schedulable under ``method``.
    """
    names = [t.name for t in taskset]
    unassigned = list(names)
    assigned: dict = {}
    for level in range(len(names) - 1, -1, -1):
        placed = None
        for candidate in sorted(unassigned):
            trial = {}
            next_high = 0
            for name in names:
                if name == candidate:
                    trial[name] = level
                elif name in assigned:
                    trial[name] = assigned[name]
                else:
                    trial[name] = next_high
                    next_high += 1
            trial_set = TaskSet.of(
                t.with_priority(trial[t.name]) for t in taskset
            )
            result = analyze(trial_set, method)
            bound = result.wcrt[candidate]
            if bound is not None and bound <= trial_set.by_name(candidate).deadline:
                placed = candidate
                break
        if placed is None:
            return None
        assigned[placed] = level
        unassigned.remove(placed)
    final = TaskSet.of(t.with_priority(assigned[t.name]) for t in taskset)
    if not analyze(final, method).schedulable:
        # Jitter chaining can break OPA monotonicity in corner cases; the
        # final verdict is always re-checked on the complete assignment.
        return None
    return final


def assign_priorities(
    taskset: TaskSet, strategy: str = "dm+audsley", method: str = "rtmdm"
) -> Optional[TaskSet]:
    """Priority assignment pipeline used by the framework.

    ``"dm"``/``"rm"`` apply the heuristic unconditionally.
    ``"dm+audsley"`` tries DM first; if the analysis rejects the DM
    assignment, falls back to Audsley's search.  Returns None only when
    no tried assignment is schedulable (callers may still use the DM
    assignment for reporting).
    """
    if strategy == "dm":
        return deadline_monotonic(taskset)
    if strategy == "rm":
        return rate_monotonic(taskset)
    if strategy == "dm+audsley":
        dm = deadline_monotonic(taskset)
        if analyze(dm, method).schedulable:
            return dm
        return audsley(taskset, method)
    raise ValueError(f"unknown priority strategy {strategy!r}")


def priority_levels(taskset: TaskSet) -> List[str]:
    """Task names ordered highest priority first (report helper)."""
    return [t.name for t in taskset.sorted_by_priority()]
