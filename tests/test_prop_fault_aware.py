"""Property tests for the fault-aware schedulability analysis.

The soundness contract: a set admitted by
:func:`repro.core.analysis.fault_aware_analysis` with a retry budget of
``k`` keeps every deadline in any simulation where each job suffers at
most ``k`` transient transfer faults of bounded cost — and the per-task
WCRT bounds dominate every observed response.  The fault injection uses
``max_faults_per_job=k`` with ``max_retries=k`` so no transfer can
exhaust its budget (at most ``k`` failed attempts per job, ``k + 1``
attempts available per transfer): every fault is transient, exactly the
regime the analysis covers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_task, random_taskset
from repro.core.analysis import analyze, fault_aware_analysis
from repro.hw.presets import get_platform
from repro.online.admission import AdmissionController
from repro.robust.escalation import EscalationConfig, fault_overhead_cycles
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate
from repro.sched.task import TaskSet, inflate_loads


@st.composite
def fault_scenarios(draw):
    n = draw(st.integers(1, 3))
    tasks = []
    for i in range(n):
        m = draw(st.integers(1, 3))
        pairs = [
            (draw(st.integers(0, 200)), draw(st.integers(100, 400)))
            for _ in range(m)
        ]
        demand = sum(l + c for l, c in pairs)
        period = demand * draw(st.integers(5, 10))
        deadline = draw(st.integers(max(1, (2 * period) // 3), period))
        buffers = draw(st.integers(1, 2))
        tasks.append(make_task(f"t{i}", pairs, period, deadline, i, buffers))
    k = draw(st.integers(1, 2))
    p = draw(st.floats(0.1, 0.6))
    seed = draw(st.integers(0, 10_000))
    return TaskSet.of(tasks), k, p, seed


@given(fault_scenarios())
@settings(max_examples=40, deadline=None)
def test_fault_aware_bound_dominates_faulty_simulation(scenario):
    ts, k, p, seed = scenario
    escalation = EscalationConfig(
        crc_fault_prob=p,
        max_retries=k,
        max_faults_per_job=k,
        crc_overhead_cycles=13,
        backoff_slot_cycles=5,
        seed=seed,
    )
    cost = fault_overhead_cycles(ts, escalation)
    fa = fault_aware_analysis(ts, k, cost)
    assume(fa.schedulable)
    horizon = 20 * max(t.period for t in ts)
    sim = simulate(
        ts,
        SimConfig(policy=CpuPolicy.FP_NP, horizon=horizon, escalation=escalation),
    )
    # The per-job cap guarantees no terminal exhaustion: all faults are
    # transient and within the analysed budget.
    assert sim.fault_events == []
    assert sim.quarantined == ()
    assert sim.no_misses, (
        f"fault-aware analysis admitted (k={k}, cost={cost}) but the "
        f"faulty run missed deadlines"
    )
    for task in ts:
        observed = sim.max_response(task.name)
        bound = fa.wcrt[task.name]
        if observed is not None:
            assert bound is not None and observed <= bound, (
                f"task {task.name}: observed {observed} > bound {bound} "
                f"under k={k} faults/job"
            )


@given(fault_scenarios())
@settings(max_examples=30, deadline=None)
def test_fault_aware_admission_never_optimistic_vs_nominal(scenario):
    """Tolerating faults can only shrink the admitted region: a set the
    fault-aware analysis admits is also nominally admitted."""
    ts, k, _, _ = scenario
    cost = fault_overhead_cycles(
        ts, EscalationConfig(max_retries=k, crc_overhead_cycles=13)
    )
    fa = fault_aware_analysis(ts, k, cost)
    assume(fa.schedulable)
    assert analyze(ts, "rtmdm").schedulable


@pytest.mark.parametrize("seed", range(12))
def test_inflate_loads_charges_first_and_largest_segments(seed):
    """The budget lands on the serial first load (latency term) and on
    the largest load (blocking term) — once when they coincide."""
    rng = random.Random(100 + seed)
    taskset = random_taskset(rng, n_tasks=3, util_target=0.4)
    inflated = inflate_loads(taskset, 2, 150)
    for before, after in zip(taskset, inflated):
        if before.total_load == 0:
            assert after.segments == before.segments
            continue
        loads = [s.load_cycles for s in before.segments]
        largest = loads.index(max(loads))
        targets = {0, largest}
        assert after.total_load == before.total_load + 300 * len(targets)
        for i, (b, a) in enumerate(zip(before.segments, after.segments)):
            expected = b.load_cycles + (300 if i in targets else 0)
            assert a.load_cycles == expected
            assert a.compute_cycles == b.compute_cycles
        # The latency and blocking analysis terms both absorb >= the
        # full budget.
        assert max(s.load_cycles for s in after.segments) >= max(loads) + 300
        assert after.segments[0].load_cycles >= loads[0] + 300


# ----------------------------------------------------------------------
# Admission screen monotonicity
# ----------------------------------------------------------------------
PLATFORM = get_platform("f746-qspi")


@pytest.mark.parametrize("seed", range(10))
def test_full_admission_with_budget_never_less_pessimistic(seed):
    rng = random.Random(4000 + seed)
    taskset = random_taskset(rng, n_tasks=3, util_target=0.35)
    tasks = list(taskset)
    plain = AdmissionController(PLATFORM)
    budgeted = AdmissionController(
        PLATFORM, retry_budget=2, fault_overhead_cycles=400
    )
    ok_budgeted, _ = budgeted._schedulable(tasks)
    ok_plain, _ = plain._schedulable(tasks)
    if ok_budgeted:
        assert ok_plain
