"""Adversarial safety search: stress the analyses where they almost broke.

The naive two-stage (DMA then CPU) decomposition is UNSOUND for tasks
with fewer staging buffers than segments: buffer gating makes a load wait
for a compute, whose CPU-side delays the DMA stage never counts.  The
repository's holistic analysis therefore applies the stage-sum only to
fully-buffered tasks (see ``_analyze_holistic``); this file is the
regression suite that found the original violation and keeps the repair
honest.

The generator is deliberately adversarial: a heavy pure-compute
high-priority task plus a many-segment, load-gated victim — the coupling
pattern that broke the naive decomposition.
"""

from __future__ import annotations

import random

import pytest

from conftest import admitted_by_doubling
from repro.core.analysis import METHODS, analyze
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate
from repro.sched.task import PeriodicTask, Segment, TaskSet


def _mk(name, segs, period, deadline, priority, buffers):
    segments = tuple(
        Segment(f"{name}{i}", load, comp) for i, (load, comp) in enumerate(segs)
    )
    return PeriodicTask(
        name,
        segments,
        period=period,
        deadline=deadline,
        priority=priority,
        buffers=buffers,
    )


def _adversarial_set(seed: int) -> TaskSet:
    r = random.Random(seed)
    n_hp = r.randint(1, 2)
    tasks = []
    for k in range(n_hp):
        compute = r.randint(20, 60)
        period = r.randint(int(compute * 1.2), compute * 4)
        load = 0 if r.random() < 0.7 else r.randint(1, 20)
        tasks.append(_mk(f"hp{k}", [(load, compute)], period, period, k, 1))
    m = r.randint(2, 8)
    segs = [(r.randint(0, 30), r.randint(5, 40)) for _ in range(m)]
    total = sum(l + c for l, c in segs)
    period = r.randint(total * 2, total * 12)
    deadline = r.randint(int(period * 0.7), period)
    buffers = r.choice([1, 2, m])  # include full buffering (stage-sum path)
    tasks.append(_mk("vic", segs, period, deadline, n_hp, buffers))
    return TaskSet.of(tasks)


@pytest.mark.parametrize("seed", range(120))
def test_no_analysis_underestimates_worst_response(seed):
    # A set no method admits is stretched until one does, so every seed
    # checks a set.
    taskset = admitted_by_doubling(
        _adversarial_set(seed),
        lambda ts: any(analyze(ts, m).schedulable for m in METHODS),
    )
    results = {m: analyze(taskset, m) for m in METHODS}
    r = random.Random(seed ^ 0xBEEF)
    horizon = 25 * max(t.period for t in taskset)
    sims = []
    for trial in range(4):
        phases = (
            [0] * len(taskset)
            if trial == 0
            else [r.randrange(t.period) for t in taskset]
        )
        sims.append(
            simulate(
                taskset.with_phases(phases),
                SimConfig(policy=CpuPolicy.FP_NP, horizon=horizon),
            )
        )
    for method, result in results.items():
        if not result.schedulable:
            continue
        for sim in sims:
            assert sim.no_misses, f"{method} admitted a set that missed deadlines"
            for task in taskset:
                observed = sim.max_response(task.name)
                bound = result.wcrt[task.name]
                if observed is not None and bound is not None:
                    assert observed <= bound, (
                        f"{method}: {task.name} observed {observed} > bound {bound}"
                    )


def test_naive_stage_sum_would_be_unsound_documented_case():
    """The concrete gating pattern that broke the naive decomposition.

    A single-buffer victim whose second load waits for its first compute:
    CPU interference on that compute delays the load beyond any pure-DMA
    stage bound.  The repaired holistic analysis must fall back to the
    overlap bound for this task (buffers < segments), and that bound must
    dominate simulation.
    """
    hp = _mk("hp", [(0, 36)], 129, 129, 0, 1)
    vic = _mk("vic", [(28, 25), (19, 15)], 201, 166, 1, 1)
    taskset = TaskSet.of([hp, vic]).with_phases([19, 26])
    result = analyze(TaskSet.of([hp, vic]), "holistic")
    sim = simulate(
        taskset, SimConfig(policy=CpuPolicy.FP_NP, horizon=30 * 201)
    )
    for task in ("hp", "vic"):
        bound = result.wcrt[task]
        observed = sim.max_response(task)
        assert bound is not None and observed is not None
        assert observed <= bound
