"""Property tests for the admission screen shared by controller and fleet.

:func:`repro.online.admission.oblivious_screen` lets an admission skip
the full analysis, so with no fault budget it must never be optimistic
against it: a pass implies the ``oblivious``, ``overlap`` and ``rtmdm``
analyses admit the set too.  The ``holistic`` analysis alone is not
dominated (it adds DMA-stage and CPU-stage blocking, the screen counts
each blocking section once), which a pinned case records.
:func:`~repro.online.admission.mass_screen` is the fleet's list form and
must return one verdict per list, in order.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task, random_taskset
from repro.core.analysis import METHODS, analyze
from repro.online.admission import mass_screen, oblivious_screen
from repro.sched.task import TaskSet

seeds = st.integers(0, 10_000)

#: The analyses a nominal screen pass must imply.
DOMINATED = tuple(m for m in METHODS if m != "holistic")


@given(seeds, st.integers(1, 5), st.integers(1, 6), st.floats(0.05, 0.95))
@settings(max_examples=150, deadline=None)
def test_nominal_screen_pass_implies_analysis_passes(seed, n_tasks, max_seg, util):
    taskset = random_taskset(
        random.Random(seed), n_tasks=n_tasks, max_segments=max_seg, util_target=util
    )
    if oblivious_screen(list(taskset)):
        for method in DOMINATED:
            assert analyze(taskset, method).schedulable, method


def test_holistic_alone_is_not_dominated():
    """t0 fits the screen (287 + 775 blocking <= 1179) but holistic adds
    the lower-priority load (145) as DMA-stage blocking on top."""
    taskset = TaskSet.of([
        make_task("t0", [(0, 287)], period=1806, deadline=1179, priority=0),
        make_task(
            "t1", [(101, 775), (0, 653), (145, 481)],
            period=14120, deadline=8618, priority=1,
        ),
    ])
    assert oblivious_screen(list(taskset))
    assert all(analyze(taskset, m).schedulable for m in DOMINATED)
    assert not analyze(taskset, "holistic").schedulable


def test_screen_passes_are_common_enough_to_check():
    """The dominance property above is not vacuous on these draws."""
    rng = random.Random(2024)
    passes = sum(
        oblivious_screen(list(random_taskset(rng, n_tasks=3, util_target=0.4)))
        for _ in range(100)
    )
    assert passes >= 20


@given(st.lists(st.tuples(seeds, st.integers(0, 4)), max_size=6))
@settings(max_examples=60, deadline=None)
def test_mass_screen_is_one_verdict_per_list_in_order(draws):
    task_lists = [
        list(random_taskset(random.Random(seed), n_tasks=n)) if n else []
        for seed, n in draws
    ]
    verdicts = mass_screen(task_lists)
    assert verdicts == [oblivious_screen(tasks) for tasks in task_lists]


def test_empty_list_passes():
    assert oblivious_screen([])
    assert mass_screen([[]]) == [True]
    assert mass_screen([]) == []
