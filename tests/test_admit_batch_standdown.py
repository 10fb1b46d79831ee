"""``admit_batch``'s stand-down path equals per-case scalar ``admit``.

The fused packer hands every system's columns to
:func:`repro.sched.vecrta.plan_chains`, whose one screen per column set
stands a case down to the scalar path whenever a chain could leave
int64 range.  These hand-built cases sit in one ``admit_batch`` call
next to ordinary generated cases: a stand-down must neither change a
verdict nor leak into its neighbours, and an error the scalar analysis
raises must come out of the batch unchanged.  The screen itself is
checked against the scalar recurrences: whenever it lets a set through,
no iterate the engine would compute may reach its int64 headroom limit.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task
from repro import obs
from repro.core import analysis
from repro.eval.systems import SYSTEMS, admit, admit_batch
from repro.hw.presets import get_platform
from repro.sched import vecrta
from repro.sched.task import TaskSet
from repro.workload.taskset import GeneratedCase, generate_case

BIG = 1 << 60


def _ordinary(n: int = 3):
    rng = random.Random(4242)
    platform = get_platform("f746-qspi")
    cases = []
    while len(cases) < n:
        case = generate_case(platform, rng.uniform(0.3, 0.7), rng, n_tasks=3)
        if case.feasible:
            cases.append(case)
    return cases


def _with_tasks(template: GeneratedCase, tasks) -> GeneratedCase:
    """A feasible case on ``template``'s models and platform (XIP reads
    the refined models by task name) with hand-built ``tasks``."""
    return replace(template, taskset=TaskSet.of(tasks))


def _stand_downs(before) -> int:
    delta = obs.delta_since(before)["rta.fixpoint"]
    return dict(zip(obs.TABLE["rta.fixpoint"], delta))["vec_stand_downs"]


def _check(cases):
    expected = [tuple(admit(s, case) for s in SYSTEMS) for case in cases]
    before = obs.snapshot()
    got = admit_batch(cases, SYSTEMS)
    assert got == expected
    return expected, _stand_downs(before)


def test_duplicate_priorities_raise_the_scalar_error():
    ordinary = _ordinary()
    template = ordinary[0]
    dup = _with_tasks(template, [replace(t, priority=0) for t in template.taskset])
    with pytest.raises(ValueError) as scalar:
        admit("rtmdm", dup)
    with pytest.raises(ValueError) as batched:
        admit_batch([ordinary[1], dup, ordinary[2]], SYSTEMS)
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize("scale", [1, 2, 3])
def test_huge_segments_stand_down_and_match(scale):
    ordinary = _ordinary()
    template = ordinary[0]
    names = [t.name for t in template.taskset.sorted_by_priority()]
    huge = _with_tasks(template, [
        make_task(
            name, [(BIG + i, scale * BIG // 4 + i)] * (1 + i % 2),
            period=3 * BIG, deadline=3 * BIG - i, priority=i,
        )
        for i, name in enumerate(names)
    ])
    # The top task alone fits its deadline; lower ones are blocked out.
    light = _with_tasks(template, [
        make_task(name, [(0 if i == 0 else BIG, BIG // 8)], period=3 * BIG, priority=i)
        for i, name in enumerate(names)
    ])
    expected, stand_downs = _check([ordinary[1], huge, ordinary[2], light])
    assert stand_downs >= 2
    # Mixed verdicts: XIP never stages, so the huge loads cannot block it.
    assert any(expected[1]) and not all(expected[1])


@pytest.mark.parametrize("load_bits", [40, 58, 60])
def test_no_load_task_above_a_huge_load_matches(load_bits):
    """Tasks with no loads above a loaded one: their holistic DMA stage
    is blocked by the lower task's load, not by their own segments."""
    ordinary = _ordinary()
    template = ordinary[0]
    names = [t.name for t in template.taskset.sorted_by_priority()]
    load = 1 << load_bits

    def tasks(top_load, top_period):
        return [
            make_task(names[0], [(top_load, 20_000)] * 2, period=top_period, priority=0),
            make_task(names[1], [(0, 30_000)] * 4, period=2 * load, priority=1),
            make_task(names[2], [(load, 50_000), (7, 9)], period=4 * load, priority=2),
        ]

    # Short top period: the load blocks the top task's DMA stage past its
    # deadline.  Long top period: the holistic chain survives level 0, so
    # the no-load task's DMA stage is solved at level 1 from the load.
    expected, stand_downs = _check([
        ordinary[1],
        _with_tasks(template, tasks(0, 200_000)),
        ordinary[2],
        _with_tasks(template, tasks(1000, 3 * load)),
    ])
    assert any(expected[1]) and not all(expected[1])
    assert any(expected[3]) and not all(expected[3])
    if load_bits <= 40:
        assert stand_downs == 0  # the vector engine answered these


def test_ordinary_cases_never_stand_down():
    _, stand_downs = _check(_ordinary(4))
    assert stand_downs == 0


def _peak_iterate(taskset, monkeypatch) -> int:
    """Largest value the scalar analyses' fixpoint iterations reach
    (iterate plus jitter, every partial demand): the recurrences the
    vector engine runs in int64."""
    peak = 0

    def fixpoint(own, blocking, interferers, cap):
        # analysis._fixpoint, recording every value it computes.
        nonlocal peak
        response = own + blocking
        peak = max(peak, response)
        while True:
            demand = own + blocking
            for interference, period, jitter in interferers:
                peak = max(peak, response + jitter)
                demand += -((response + jitter) // -period) * interference
                peak = max(peak, demand)
            if demand > cap:
                return None
            if demand == response:
                return response
            response = demand

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_fixpoint", fixpoint)
        for method in ("oblivious", "overlap", "holistic"):
            analysis.analyze(taskset, method)
    return peak


def _screen_passes(taskset) -> bool:
    cols = vecrta.cols_from_views(analysis._views_by_priority(taskset))
    try:
        vecrta.plan_chains(vecrta.ChainBatch(), cols, "rtmdm")
        vecrta.plan_chains(vecrta.ChainBatch(), cols, "oblivious")
    except vecrta.StandDown:
        return False
    return True


def test_screen_covers_a_first_iterate_above_its_cap(monkeypatch):
    """A well-pipelined top task (serial demand 1.5x its period) above a
    task whose blocking alone is 3660 lower-priority sections: that
    task's first overlap iterate starts far above its cap, and the next
    demand passes 2^63.  A screen that assumed iterates start at or
    below their cap let this set through."""
    c = 10**15
    taskset = TaskSet.of([
        make_task("t0", [(38 * c // 10, 38 * c // 10)] * 20, period=100 * c, priority=0),
        make_task("t1", [(0, 1)] * 3660, period=2 * c, priority=1),
        make_task("t2", [(0, c)], period=2 * c, priority=2),
    ])
    assert _peak_iterate(taskset, monkeypatch) >= 1 << 63
    assert not _screen_passes(taskset)


@given(st.integers(0, 10_000), st.integers(30, 61))
@settings(max_examples=60, deadline=None)
def test_screened_sets_stay_inside_int64(seed, bits):
    rng = random.Random(seed)
    scale = 1 << bits
    tasks = []
    for i in range(rng.randint(1, 4)):
        segs = [
            (rng.choice((0, rng.randint(1, scale))), rng.randint(1, scale))
            for _ in range(rng.randint(1, 6))
        ]
        period = rng.randint(1, 8 * scale)
        tasks.append(make_task(
            f"t{i}", segs, period=period, deadline=rng.randint(1, period),
            priority=i, buffers=rng.randint(1, 3),
        ))
    taskset = TaskSet.of(tasks)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if _screen_passes(taskset):
            # The screen's promise: every value stays below its limit.
            assert _peak_iterate(taskset, monkeypatch) < vecrta._INT64_LIMIT
