"""Property tests: the vectorized RTA engine equals the scalar oracle.

The tentpole contract of :mod:`repro.sched.vecrta`: for every family of
problems the engine accepts, batched array iteration returns WCRTs (and
``None`` verdicts) *bit-identical* to the scalar recurrences in
:mod:`repro.sched.rta` and :mod:`repro.core.analysis` — preemptive,
non-preemptive, fault-aware inflated, and the full segmented analysis
matrix.  Problems the engine cannot prove exact for stand down to the
scalar path, so equality must hold unconditionally.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_taskset
from repro.core.analysis import METHODS, analyze
from repro.sched import vecrta
from repro.sched.rta import (
    RtaTask,
    fault_aware_wcrt,
    fp_nonpreemptive_wcrt,
    fp_preemptive_wcrt,
)

seeds = st.integers(0, 10_000)


def _rta_tasks(rng: random.Random, extra: int = 0):
    """A random classic-RTA set; ``extra`` applies fault inflation."""
    n = rng.randint(2, 5)
    tasks = []
    for i in range(n):
        period = rng.randint(200, 4000)
        compute = max(1, int(period * rng.uniform(0.08, 0.30)))
        tasks.append(
            RtaTask(
                name=f"t{i}",
                exec_cycles=compute + extra,
                period=period,
                deadline=rng.randint(max(2, period // 2), period),
                priority=i,
                jitter=rng.choice([0, rng.randint(0, period // 4)]),
                blocking=rng.choice([0, rng.randint(0, compute)]) + extra,
            )
        )
    return tasks


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_fp_batch_matches_scalar(seed, preemptive):
    rng = random.Random(seed)
    scalar_fn = fp_preemptive_wcrt if preemptive else fp_nonpreemptive_wcrt
    problems = []
    for _ in range(rng.randint(1, 4)):
        tasks = _rta_tasks(rng)
        problems.extend((tasks, task) for task in tasks)
    expected = [scalar_fn(tasks, task) for tasks, task in problems]
    got = vecrta.fp_wcrt_batch(problems, preemptive=preemptive)
    assert got == expected
    assert all(b is None or isinstance(b, int) for b in got)


@given(seeds, st.integers(0, 3), st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_fp_batch_matches_fault_aware_inflation(seed, k_faults, fault_cost):
    """The fault-inflated family solved batched == scalar fault_aware_wcrt."""
    rng = random.Random(seed)
    tasks = _rta_tasks(rng, extra=k_faults * fault_cost)
    expected = [
        fault_aware_wcrt(
            [
                RtaTask(
                    name=t.name,
                    exec_cycles=t.exec_cycles - k_faults * fault_cost,
                    period=t.period,
                    deadline=t.deadline,
                    priority=t.priority,
                    jitter=t.jitter,
                    blocking=t.blocking - k_faults * fault_cost,
                )
                for t in tasks
            ],
            RtaTask(
                name=task.name,
                exec_cycles=task.exec_cycles - k_faults * fault_cost,
                period=task.period,
                deadline=task.deadline,
                priority=task.priority,
                jitter=task.jitter,
                blocking=task.blocking - k_faults * fault_cost,
            ),
            k_faults,
            fault_cost,
        )
        for task in tasks
    ]
    got = vecrta.fp_wcrt_batch([(tasks, task) for task in tasks], preemptive=False)
    assert got == expected


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_analysis_batch_matches_scalar(seed):
    """Full segmented analysis matrix: batch == per-case scalar analyze."""
    rng = random.Random(seed)
    cases = []
    for _ in range(rng.randint(1, 3)):
        ts = random_taskset(
            rng, n_tasks=rng.randint(2, 4), util_target=rng.uniform(0.3, 0.9)
        )
        cases.extend((ts, method) for method in METHODS)
    expected = [analyze(ts, method) for ts, method in cases]
    got = vecrta.analyze_taskset_batch(cases)
    for want, have in zip(expected, got):
        assert have.wcrt == want.wcrt
        assert have.schedulable == want.schedulable
        assert all(
            bound is None or type(bound) is int
            for bound in have.wcrt.values()
        )


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_huge_values_stand_down_and_match(seed):
    """Near-overflow problems stand down to scalar, still matching."""
    rng = random.Random(seed)
    big = 1 << rng.choice([50, 52, 55])
    tasks = [
        RtaTask(
            name=f"t{i}",
            exec_cycles=big + rng.randint(0, 7),
            period=4 * big + rng.randint(0, 7),
            deadline=4 * big,
            priority=i,
        )
        for i in range(3)
    ]
    expected = [fp_preemptive_wcrt(tasks, task) for task in tasks]
    got = vecrta.fp_wcrt_batch([(tasks, task) for task in tasks])
    assert got == expected
