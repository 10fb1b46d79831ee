"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter

import pytest

from repro.hw.presets import get_platform
from repro.sched.task import PeriodicTask, Segment, TaskSet


@pytest.fixture
def platform():
    """The default evaluation platform (STM32F746 + QSPI NOR)."""
    return get_platform("f746-qspi")


@pytest.fixture
def fast_platform():
    """A high-bandwidth platform (H743 + octal PSRAM)."""
    return get_platform("h743-octal")


def make_task(
    name: str,
    segs,
    period: int,
    deadline: int = 0,
    priority: int = 0,
    buffers: int = 2,
    phase: int = 0,
) -> PeriodicTask:
    """Build a task from ``(load, compute)`` cycle pairs."""
    segments = tuple(
        Segment(name=f"{name}.s{i}", load_cycles=load, compute_cycles=comp)
        for i, (load, comp) in enumerate(segs)
    )
    return PeriodicTask(
        name=name,
        segments=segments,
        period=period,
        deadline=deadline or period,
        priority=priority,
        buffers=buffers,
        phase=phase,
    )


def random_taskset(
    rng: random.Random,
    n_tasks: int = 3,
    max_segments: int = 5,
    util_target: float = 0.5,
) -> TaskSet:
    """A random small segmented task set around a CPU utilization target."""
    tasks = []
    shares = [rng.uniform(0.5, 1.5) for _ in range(n_tasks)]
    total = sum(shares)
    for i in range(n_tasks):
        n_seg = rng.randint(1, max_segments)
        segs = [
            (rng.choice([0, rng.randint(10, 300)]), rng.randint(50, 800))
            for _ in range(n_seg)
        ]
        compute = sum(c for _, c in segs)
        util = util_target * shares[i] / total
        period = max(compute + 1, round(compute / util))
        deadline = rng.randint((period + 1) // 2 + 1, period)
        tasks.append(
            make_task(
                f"t{i}",
                segs,
                period=period,
                deadline=deadline,
                priority=i,
                buffers=rng.randint(1, 3),
            )
        )
    return TaskSet.of(tasks)


#: Doublings :func:`admitted_by_doubling` may apply before it fails.
MAX_DOUBLINGS = 6


def admitted_by_doubling(taskset: TaskSet, admits) -> TaskSet:
    """``taskset`` with every period and deadline doubled until
    ``admits(taskset)`` holds, so a soundness test checks an admitted
    set for every seed instead of skipping the rejected ones.  A set
    admitted as drawn is returned unchanged.  Fails if
    :data:`MAX_DOUBLINGS` doublings are not enough.
    """
    for _ in range(MAX_DOUBLINGS):
        if admits(taskset):
            return taskset
        taskset = TaskSet.of(
            dataclasses.replace(t, period=2 * t.period, deadline=2 * t.deadline)
            for t in taskset
        )
    assert admits(taskset), f"not admitted after {MAX_DOUBLINGS} doublings"
    return taskset


def sim_essence(result) -> dict:
    """Every SimResult field except the folding telemetry.

    ``fold_cycles``/``fold_jobs_skipped`` describe how simcore obtained
    a result; an unfolded run (the scalar loop, or simcore with
    ``fold=False``) legitimately reports zero.
    """
    d = dataclasses.asdict(result)
    d.pop("fold_cycles")
    d.pop("fold_jobs_skipped")
    return d


def journal_lines_canonical(path: str) -> Counter:
    """Assert every line of a journal is in its on-disk canonical form.

    Each line must re-encode to itself under ``canonical_json`` (sorted
    keys, no whitespace) and carry a CRC that verifies.  Returns the
    count of records per type, so callers can check what was covered.
    """
    from repro.online.durable import _crc, canonical_json

    seen: Counter = Counter()
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert text.endswith("\n"), path
    for line in text.splitlines():
        record = json.loads(line)
        assert line == canonical_json(record), line[:120]
        assert record["crc"] == _crc(record), line[:120]
        seen[record["type"]] += 1
    return seen
