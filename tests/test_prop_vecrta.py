"""Property tests: the vectorized RTA engine equals the scalar oracle.

The contract of :mod:`repro.sched.vecrta`: over the full segmented
analysis matrix, batched array iteration returns WCRTs (and ``None``
verdicts) *bit-identical* to the scalar recurrences in
:mod:`repro.core.analysis`.  Problems the engine cannot prove exact for
stand down to the scalar path, so equality must hold unconditionally.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task, random_taskset
from repro import obs
from repro.core.analysis import METHODS, analyze
from repro.sched import vecrta
from repro.sched.task import TaskSet

seeds = st.integers(0, 10_000)


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


@pytest.mark.parametrize("seed", range(6))
def test_int64_overflow_risk_stands_down_and_matches(seed):
    """Sets whose demand could pass int64 stand down to scalar, still matching."""
    rng = random.Random(seed)
    big = 1 << rng.choice([58, 60, 61])
    taskset = TaskSet.of([
        make_task(
            f"t{i}", [(big + rng.randint(0, 7), big + rng.randint(0, 7))],
            period=8 * big, deadline=8 * big - rng.randint(0, 7), priority=i,
        )
        for i in range(3)
    ])
    cases = [(taskset, method) for method in METHODS]
    before = obs.snapshot()
    got = vecrta.analyze_taskset_batch(cases)
    delta = dict(zip(obs.TABLE["rta.fixpoint"], obs.delta_since(before)["rta.fixpoint"]))
    assert delta["vec_stand_downs"] > 0
    for (ts, method), have in zip(cases, got):
        want = analyze(ts, method)
        assert have.wcrt == want.wcrt
        assert have.schedulable == want.schedulable
