"""Identity tests for the sensitivity-margin searches.

:func:`repro.core.analysis.sensitivity_margin` binary-searches the
largest uniform compute inflation a set's admission survives, one scalar
``analyze`` per probe; :func:`sensitivity_margin_batch` runs every set's
search in lock-step through the vectorized batch analysis.  Both must
return the same margin for every set, and every finite margin must be a
factor the analysis actually admits.  The branches covered:

* the nominal set is rejected (``None``);
* the set is admitted even at ``upper`` (margin ``upper``);
* ``tolerance >= upper - 1``, so the search never probes between 1 and
  ``upper`` (margin ``1.0``);
* an ordinary binary search in between;
* all of these mixed in one batch;
* probe rows the vector engine stands down on, answered by the scalar
  analysis inside an otherwise vectorized batch.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from conftest import make_task, random_taskset
from repro import obs
from repro.core import analysis
from repro.core.analysis import (
    METHODS,
    analyze,
    sensitivity_margin,
    sensitivity_margin_batch,
)
from repro.core.priority import deadline_monotonic
from repro.sched import vecrta
from repro.sched.task import TaskSet, inflate_compute

seeds = st.integers(0, 10_000)

#: ``(upper, tolerance)`` pairs: the default search, a coarse one, and
#: three where ``tolerance >= upper - 1`` skips the bisection entirely.
SEARCHES = ((16.0, 1e-3), (2.0, 0.05), (1.5, 0.5), (1.2, 1.0), (1.0, 1e-3))


def _dm_set(rng: random.Random, n_tasks: int, util: float):
    """A random segmented set under deadline-monotonic priorities."""
    return deadline_monotonic(random_taskset(rng, n_tasks=n_tasks, util_target=util))


def _draw_sets(rng: random.Random):
    """Two to four sets spanning light (admitted at any probe) to heavy."""
    return [
        _dm_set(rng, rng.randint(1, 4), rng.choice([0.02, rng.uniform(0.05, 0.8)]))
        for _ in range(rng.randint(2, 4))
    ]


def _check_margins(sets, method, upper, tolerance):
    scalar = [
        sensitivity_margin(ts, method, upper=upper, tolerance=tolerance)
        for ts in sets
    ]
    batched = sensitivity_margin_batch(
        sets, method, upper=upper, tolerance=tolerance
    )
    assert batched == scalar
    for ts, margin in zip(sets, scalar):
        if margin is None:
            assert not analyze(ts, method).schedulable
            continue
        assert 1.0 <= margin <= upper
        assert analyze(inflate_compute(ts, margin), method).schedulable
        if margin < upper:
            # The search probed ``upper`` first and saw it rejected.
            assert not analyze(inflate_compute(ts, upper), method).schedulable
        if margin < upper and tolerance >= upper - 1.0:
            assert margin == 1.0
    return scalar


@given(seeds, st.sampled_from(METHODS), st.sampled_from(SEARCHES))
@settings(max_examples=40, deadline=None)
def test_batch_margins_match_scalar(seed, method, search):
    upper, tolerance = search
    _check_margins(_draw_sets(random.Random(seed)), method, upper, tolerance)


def _classify(margin, upper):
    if margin is None:
        return "rejected"
    return "upper" if margin == upper else "inside"


def test_mixed_batch_covers_every_branch():
    """One batch holding a rejected set, a set admitted at ``upper`` and
    a set whose margin is 1.0 because ``tolerance >= upper - 1``."""
    upper, tolerance = 1.5, 0.5
    rng = random.Random(20240)
    wanted = {}
    for _ in range(400):
        ts = _dm_set(rng, rng.randint(2, 3), rng.uniform(0.05, 0.8))
        kind = _classify(
            sensitivity_margin(ts, "rtmdm", upper=upper, tolerance=tolerance),
            upper,
        )
        wanted.setdefault(kind, ts)
        if len(wanted) == 3:
            break
    assert sorted(wanted) == ["inside", "rejected", "upper"]
    sets = [wanted["inside"], wanted["rejected"], wanted["upper"], wanted["inside"]]
    margins = _check_margins(sets, "rtmdm", upper, tolerance)
    assert margins == [1.0, None, upper, 1.0]


def test_bisected_margins_match_in_one_batch():
    """Default search: the bisection branch and its neighbours together."""
    rng = random.Random(7)
    sets = [_dm_set(rng, 3, u) for u in (0.05, 0.1, 0.2, 0.3, 0.45, 1.4, 0.02)]
    margins = _check_margins(sets, "rtmdm", 16.0, 1e-3)
    kinds = [_classify(m, 16.0) for m in margins]
    assert {"inside", "rejected", "upper"} <= set(kinds)
    assert kinds.count("inside") >= 3


def _vec_counts(before):
    return dict(zip(obs.TABLE["rta.fixpoint"], obs.delta_since(before)["rta.fixpoint"]))


#: One compute of 2**58 cycles: the nominal set packs (its demand
#: ceiling is about 4 * 2**58), but every probe at ``f >= 4`` lifts the
#: ceiling to 2**62 or more, where the engine stands down.
_HUGE = 1 << 58


@pytest.mark.parametrize("method", METHODS)
def test_probe_rows_that_stand_down_match_scalar(method):
    huge = TaskSet.of([
        make_task("h0", [(0, _HUGE)], period=6 * _HUGE, priority=0),
        make_task("h1", [(5, 3)], period=48 * _HUGE, priority=1),
    ])
    rng = random.Random(11)
    sets = [_dm_set(rng, 3, 0.1), huge, _dm_set(rng, 2, 0.3)]
    before = obs.snapshot()
    margins = _check_margins(sets, method, 16.0, 1e-3)
    counts = _vec_counts(before)
    assert counts["vec_stand_downs"] > 0
    assert counts["vec_batches"] > 0
    assert 1.0 < margins[1] < 16.0



def test_unknown_method_raises_like_scalar():
    ts = _dm_set(random.Random(3), 2, 0.3)
    with pytest.raises(ValueError, match="unknown analysis method"):
        sensitivity_margin(ts, "nope")
    with pytest.raises(ValueError, match="unknown analysis method"):
        sensitivity_margin_batch([ts], "nope")


@pytest.mark.parametrize("factor", [1.0, 1.25, 3.0])
def test_inflated_columns_match_the_inflated_set(factor):
    """A probe's columns equal those of ``inflate_compute(ts, f)``'s own
    views; at 1.0 they are the nominal columns themselves."""
    ts = _dm_set(random.Random(5), 3, 0.4)
    columns = analysis._InflatedCols(ts)
    inflated = analysis._views_by_priority(inflate_compute(ts, factor))
    assert columns.at(factor) == vecrta.cols_from_views(inflated)
    if factor == 1.0:
        assert columns.at(factor) is columns.nominal


def test_batch_builds_each_sets_views_once(monkeypatch):
    """The nominal verdicts and every probe read one set of columns per
    task set: no set's views are built a second time."""
    sets = _draw_sets(random.Random(11))
    built = []
    real = analysis._views_by_priority

    def counting(taskset):
        built.append(taskset)
        return real(taskset)

    monkeypatch.setattr(analysis, "_views_by_priority", counting)
    margins = sensitivity_margin_batch(sets, "rtmdm")
    assert [id(ts) for ts in built] == [id(ts) for ts in sets]
    monkeypatch.undo()
    assert margins == [sensitivity_margin(ts, "rtmdm") for ts in sets]
