"""The repository's central invariant: every analysis is SAFE.

If an analysis produces a WCRT bound for a task set, then no simulated
release phasing may observe a response time above that bound, and sets
admitted by the analysis must never miss a deadline in simulation.

These tests drive randomly generated segmented task sets through all
analysis methods and the discrete-event simulator under the execution
model the analyses assume (segment-level non-preemptive FP on the CPU,
priority-arbitrated DMA).
"""

from __future__ import annotations

import random

import pytest

from conftest import admitted_by_doubling, random_taskset
from repro.core.analysis import METHODS, analyze
from repro.hw.dma import DmaArbitration
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate


def _simulate(taskset, phases, horizon_jobs=25):
    max_period = max(t.period for t in taskset)
    shifted = taskset.with_phases(phases)
    return simulate(
        shifted,
        SimConfig(
            policy=CpuPolicy.FP_NP,
            dma_arbitration=DmaArbitration.PRIORITY,
            horizon=horizon_jobs * max_period,
        ),
    )


def _phasings(taskset, rng, count):
    yield [0 for _ in taskset]  # synchronous release
    for _ in range(count):
        yield [rng.randrange(t.period) for t in taskset]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(30))
def test_bounds_dominate_simulation(method, seed):
    """Simulated response times never exceed analytic bounds.  A set the
    method rejects is stretched (periods and deadlines doubled) until
    the method admits it, so every seed checks a set."""
    rng = random.Random(seed)
    taskset = random_taskset(rng, n_tasks=rng.randint(2, 4),
                             util_target=rng.choice([0.3, 0.5, 0.7]))
    taskset = admitted_by_doubling(
        taskset, lambda ts: analyze(ts, method).schedulable
    )
    result = analyze(taskset, method)
    for phases in _phasings(taskset, rng, count=3):
        sim = _simulate(taskset, phases)
        assert sim.no_misses, (
            f"{method} admitted the set but phases={phases} missed deadlines"
        )
        for task in taskset:
            observed = sim.max_response(task.name)
            bound = result.wcrt[task.name]
            assert observed is not None and bound is not None
            assert observed <= bound, (
                f"{method}: task {task.name} observed {observed} > bound {bound} "
                f"with phases={phases}"
            )


@pytest.mark.parametrize("seed", range(20))
def test_rtmdm_bound_is_min_of_safe_bounds(seed):
    """The combined bound equals the per-task minimum of its components."""
    rng = random.Random(1000 + seed)
    taskset = random_taskset(rng, n_tasks=3, util_target=0.4)
    overlap = analyze(taskset, "overlap").wcrt
    holistic = analyze(taskset, "holistic").wcrt
    combined = analyze(taskset, "rtmdm").wcrt
    for name in combined:
        parts = [b for b in (overlap[name], holistic[name]) if b is not None]
        expected = min(parts) if parts else None
        assert combined[name] == expected


@pytest.mark.parametrize("seed", range(20))
def test_overlap_never_looser_than_oblivious(seed):
    """Crediting overlap can only shrink the job's own demand term."""
    rng = random.Random(2000 + seed)
    taskset = random_taskset(rng, n_tasks=3, util_target=0.4)
    oblivious = analyze(taskset, "oblivious").wcrt
    overlap = analyze(taskset, "overlap").wcrt
    for name in oblivious:
        if oblivious[name] is not None and overlap[name] is not None:
            assert overlap[name] <= oblivious[name]


def test_analysis_requires_unique_priorities():
    rng = random.Random(3)
    taskset = random_taskset(rng, n_tasks=3)
    clashed = taskset.with_priorities([0, 0, 1])
    with pytest.raises(ValueError, match="unique"):
        analyze(clashed, "rtmdm")


def test_unknown_method_rejected():
    rng = random.Random(4)
    taskset = random_taskset(rng, n_tasks=2)
    with pytest.raises(ValueError, match="unknown analysis method"):
        analyze(taskset, "magic")
