"""Property tests for the admission screen shared by controller and fleet.

:func:`repro.online.admission.oblivious_screen` lets an admission skip
the full analysis, so with no fault budget it must never be optimistic
against it: a pass implies the ``oblivious``, ``overlap`` and ``rtmdm``
analyses (``SCREEN_DOMINATED``) admit the set too.  The screen is the
``oblivious`` analysis itself; a frozen copy of the busy-period screen
it replaced checks that every verdict stayed the same.  The ``holistic``
analysis alone is not dominated (it adds DMA-stage and CPU-stage
blocking, the screen counts each blocking section once), which a pinned
case records.  So the controller's and the fleet's *decisions* are
checked directly: for every method and fault budget, no admitted union
is one the method rejects on the fault-inflated set.
:func:`~repro.online.admission.mass_screen` is the fleet's list form and
must return one verdict per list, in order.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_task, random_taskset
from repro.core.analysis import METHODS, analyze
from repro.eval import fleet
from repro.online import admission
from repro.online.admission import (
    SCREEN_DOMINATED,
    AdmissionController,
    mass_screen,
    oblivious_screen,
    screen_decides,
)
from repro.online.events import Request, RequestKind
from repro.sched.rta import RtaTask
from repro.sched.task import Segment, TaskSet, inflate_loads

seeds = st.integers(0, 10_000)

#: The analyses a nominal screen pass must imply.
DOMINATED = SCREEN_DOMINATED


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


# ----------------------------------------------------------------------
# Frozen oracle: the busy-period screen the ``oblivious`` analysis replaced
# ----------------------------------------------------------------------
def _frozen_busy_period_wcrt(tasks, task):
    """Preemptive fixed-priority WCRT with jitter and blocking, by the
    busy-period formulation ``R = max_q (w(q) - q T)`` (frozen copy)."""
    key = (task.priority, task.name)
    higher = [t for t in tasks if (t.priority, t.name) < key]
    total = task.exec_cycles + task.blocking + sum(t.exec_cycles for t in higher)
    cap = 64 * (total + max(t.period for t in [task, *higher])) + 64 * task.period
    busy = max(1, task.blocking + task.exec_cycles)
    while True:
        demand = task.blocking + sum(
            math.ceil((busy + t.jitter) / t.period) * t.exec_cycles
            for t in [task, *higher]
        )
        if demand <= busy:
            break
        if demand > cap:
            return None
        busy = demand
    worst = 0
    for q in range(math.ceil((busy + task.jitter) / task.period)):
        w = (q + 1) * task.exec_cycles + task.blocking
        while True:
            demand = (q + 1) * task.exec_cycles + task.blocking + sum(
                math.ceil((w + t.jitter) / t.period) * t.exec_cycles for t in higher
            )
            if demand == w:
                break
            if demand > cap:
                return None
            w = demand
        worst = max(worst, w - q * task.period)
    return worst


def _frozen_bounds(tasks):
    """The budget-0 screen's per-task bounds in priority order, as it
    computed them: serialized demand, segment-granular blocking, a float
    utilization pre-check, then the busy-period RTA with jitter ``R - E``
    chained in priority order.  None on overload or an unbounded task."""
    ordered = sorted(tasks, key=lambda t: t.priority)
    serialized = [t.total_compute + t.total_load for t in ordered]
    if sum(e / t.period for e, t in zip(serialized, ordered)) > 1.0:
        return None
    screened = []
    for index, task in enumerate(ordered):
        lower = ordered[index + 1:]
        max_lp_c = max((t.max_segment_compute for t in lower), default=0)
        max_lp_l = max((s.load_cycles for t in lower for s in t.segments), default=0)
        n_load = sum(1 for s in task.segments if s.load_cycles > 0)
        candidate = RtaTask(
            name=task.name, exec_cycles=serialized[index], period=task.period,
            deadline=task.deadline, priority=task.priority,
            blocking=task.num_segments * max_lp_c + n_load * max_lp_l,
        )
        wcrt = _frozen_busy_period_wcrt([*screened, candidate], candidate)
        if wcrt is None:
            return None
        screened.append(replace(candidate, jitter=max(0, wcrt - candidate.exec_cycles)))
    return {t.name: c.jitter + c.exec_cycles for t, c in zip(ordered, screened)}


def _frozen_screen(tasks):
    """The budget-0 screen's verdict: every bound within its deadline.
    (A bound never depends on a deadline, so stopping at the first miss,
    as the screen did, gives the same verdict.)"""
    bounds = _frozen_bounds(tasks)
    return bounds is not None and all(bounds[t.name] <= t.deadline for t in tasks)


_bodies = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(1, 300)), st.integers(1, 800)),
    min_size=1, max_size=4,
)


@st.composite
def _screen_sets(draw):
    """1-6 tasks in a random priority order, buffers 1-3, zero-load
    segments, in one of three shapes:

    * ``boundary``: every deadline equals the task's frozen bound, one
      cycle short for at most one task, so a bound that moves either
      way flips the verdict;
    * ``random``: constrained deadlines between demand and period;
    * ``harmonic``: implicit deadlines at serialized utilization exactly
      1 (the last, longest-period task takes the remainder).
    """
    n = draw(st.integers(1, 6))
    bodies = [draw(_bodies) for _ in range(n - 1)]
    priorities = draw(st.permutations(range(n)))
    buffers = [draw(st.integers(1, 3)) for _ in range(n)]
    shape = draw(st.sampled_from(("boundary", "random", "harmonic")))
    if shape == "harmonic":
        shifts = sorted(draw(st.integers(0, 2)) for _ in range(n - 1))
        top = max(shifts, default=0)
        floor = sum(sum(map(sum, b)) / 2 ** k for b, k in zip(bodies, shifts))
        base = draw(st.integers(math.floor(floor) + 1, 2 * math.floor(floor) + 2))
        rest = base * 2 ** top - sum(
            sum(map(sum, b)) * 2 ** (top - k) for b, k in zip(bodies, shifts)
        )
        load = draw(st.integers(0, rest - 1))
        bodies.append([(load, rest - load)])
        periods = [base * 2 ** k for k in [*shifts, top]]
        return _tasks(bodies, periods, periods, priorities, buffers)
    bodies.append(draw(_bodies))
    util = draw(st.floats(0.05, 1.05))
    demands = [sum(map(sum, b)) for b in bodies]
    periods = [max(e, round(n * e / util)) for e in demands]
    if shape == "random":
        deadlines = [draw(st.integers(e, p)) for e, p in zip(demands, periods)]
        return _tasks(bodies, periods, deadlines, priorities, buffers)
    bounds = _frozen_bounds(_tasks(bodies, periods, periods, priorities, buffers))
    if bounds is None:
        return _tasks(bodies, periods, periods, priorities, buffers)
    short = draw(st.integers(-1, n - 1))
    deadlines = [
        max(1, min(p, bounds[f"t{i}"] - (i == short))) for i, p in enumerate(periods)
    ]
    return _tasks(bodies, periods, deadlines, priorities, buffers)


def _tasks(bodies, periods, deadlines, priorities, buffers):
    return [
        make_task(f"t{i}", body, period=p, deadline=d, priority=r, buffers=b)
        for i, (body, p, d, r, b) in enumerate(
            zip(bodies, periods, deadlines, priorities, buffers)
        )
    ]


@given(_screen_sets())
# Utilization exactly 1: one task fits its period exactly; with two or
# more, the top task's blocking becomes jitter and neither screen admits.
@example([make_task("a", [(3, 7)], period=10)])
@example([
    make_task("a", [(0, 3)], period=10, priority=0),
    make_task("b", [(5, 9)], period=20, priority=1),
])
@settings(max_examples=400, deadline=None)
def test_screen_equals_frozen_busy_period_screen(tasks):
    assert oblivious_screen(tasks) == _frozen_screen(tasks)


# ----------------------------------------------------------------------
# Decisions: no admit the configured analysis (plus budget) rejects
# ----------------------------------------------------------------------
#: Fault budgets ``(retry_budget, fault_overhead_cycles)``.
BUDGETS = ((0, 0), (1, 400), (2, 400))

#: Implicit deadlines (the fleet's shape), ``(segments, period)`` in
#: admission order: ``hi`` passes the screen over ``lo`` (144 + 304
#: blocking <= 516) and ``rtmdm``, but ``holistic`` charges ``lo``'s
#: 163-cycle load as DMA-stage blocking on top (163 + 144 + 304 > 516).
PINNED_IMPLICIT = ((((163, 304),), 1019), (((0, 144),), 516))


def _segments(name, body):
    return tuple(
        Segment(name=f"{name}.s{i}", load_cycles=load, compute_cycles=comp)
        for i, (load, comp) in enumerate(body)
    )


def _stub_planner(monkeypatch, module, bodies):
    """Make ``module.plan_segments`` return body ``k`` for model ``m<k>``."""
    plans = {f"m{k}": _segments(f"m{k}", body) for k, (body, *_) in enumerate(bodies)}
    monkeypatch.setattr(
        module, "plan_segments",
        lambda platform, model, deadline, budget, **kw: (plans[model], 1024),
    )


def _admissible(tasks, method, retry_budget, fault_overhead):
    taskset = inflate_loads(TaskSet.of(tasks), retry_budget, fault_overhead)
    return analyze(taskset, method).schedulable


def _controller_unions(monkeypatch, bodies, method, retry_budget, fault_overhead):
    """Admit ``(body, period, deadline)`` draws one by one through a
    controller; yield ``(decision, admitted union)`` per admit."""
    _stub_planner(monkeypatch, admission, bodies)
    controller = AdmissionController(
        fleet.DEFAULT_COHORTS[0].platform(), method=method,
        retry_budget=retry_budget, fault_overhead_cycles=fault_overhead,
    )
    clock = controller.platform.mcu.clock_hz
    for k, (_, period, deadline) in enumerate(bodies):
        decision = controller.handle(Request(
            time_s=0.0, kind=RequestKind.ADMIT, task=f"t{k}", model=f"m{k}",
            period_s=period / clock, deadline_s=deadline / clock,
        ))
        if decision.outcome == "admitted":
            ranked = sorted(
                controller.resident.values(), key=lambda i: (i.deadline, i.instance)
            )
            yield decision, [i.to_periodic(priority=r) for r, i in enumerate(ranked)]


def _fleet_unions(monkeypatch, bodies, method):
    """Serve admits of ``(body, period)`` draws on one fleet device;
    yield ``(decision, admitted union)`` per full-service admit."""
    _stub_planner(monkeypatch, fleet, bodies)
    cohort = fleet.DEFAULT_COHORTS[0]
    mcu = cohort.platform().mcu
    requests = tuple(
        fleet.FleetRequest(
            seq=k, time_s=k * 1e-3, device="d0000000", kind=RequestKind.ADMIT,
            task=f"t{k}", model=f"m{k}", period_s=period / mcu.clock_hz,
        )
        for k, (_, period, *_) in enumerate(bodies)
    )
    trace = fleet.FleetTrace(
        requests=requests, duration_s=1.0, n_devices=1, cohorts=(cohort,),
        arrival="poisson",
    )
    config = fleet.FleetConfig(n_shards=1, method=method)
    report = fleet.FleetService((cohort,), config).run(trace)
    union = []
    for decision in report.decisions:
        if decision.outcome != "admitted":
            continue
        assert decision.mode == "full"
        k = int(decision.task[1:])
        period = max(1, mcu.seconds_to_cycles(requests[k].period_s))
        union.append((period, decision.task, _segments(f"m{k}", bodies[k][0])))
        ranked = sorted(union)
        yield decision, [
            make_task(task, [(s.load_cycles, s.compute_cycles) for s in segs],
                      period=p, priority=r, buffers=config.buffers)
            for r, (p, task, segs) in enumerate(ranked)
        ]


def _draw_bodies(seed, n_tasks, implicit):
    taskset = random_taskset(random.Random(seed), n_tasks=n_tasks, util_target=0.6)
    return [
        (
            tuple((s.load_cycles, s.compute_cycles) for s in t.segments),
            t.period,
            t.period if implicit else t.deadline,
        )
        for t in taskset
    ]


def test_screen_decides_only_where_dominance_is_proven():
    for method in METHODS:
        assert screen_decides(method) == (method != "holistic")
        for retry_budget, fault_overhead in BUDGETS[1:]:
            assert not screen_decides(method, retry_budget, fault_overhead)
        assert screen_decides(method, 2, 0) == screen_decides(method)


def test_pinned_implicit_case_is_not_dominated():
    hi, lo = (
        make_task(name, body, period=p, priority=r)
        for r, (name, (body, p)) in enumerate(zip(("hi", "lo"), PINNED_IMPLICIT[::-1]))
    )
    assert oblivious_screen([hi, lo])
    assert analyze(TaskSet.of([hi, lo]), "rtmdm").schedulable
    assert not analyze(TaskSet.of([hi, lo]), "holistic").schedulable


def test_controller_runs_holistic_on_the_pinned_case(monkeypatch):
    """The screen alone would admit ``hi`` at full rate; the holistic
    analysis admits it only at a stretched rate."""
    bodies = [(body, p, p) for body, p in PINNED_IMPLICIT]
    admitted = list(_controller_unions(monkeypatch, bodies, "holistic", 0, 0))
    for decision, union in admitted:
        assert _admissible(union, "holistic", 0, 0), decision
    assert [(d.mode, d.reason) for d, _ in admitted] == [
        ("full", "analysis"), ("rate/1.25", "analysis"),
    ]


def test_fleet_runs_holistic_on_the_pinned_case(monkeypatch):
    bodies = [(body, p, p) for body, p in PINNED_IMPLICIT]
    admitted = list(_fleet_unions(monkeypatch, bodies, "holistic"))
    for decision, union in admitted:
        assert _admissible(union, "holistic", 0, 0), decision
    assert [(d.task, d.reason) for d, _ in admitted] == [("t0", "analysis")]


@given(seeds, st.integers(2, 4), st.sampled_from(METHODS), st.sampled_from(BUDGETS))
@settings(max_examples=60, deadline=None)
def test_controller_never_admits_what_the_analysis_rejects(seed, n_tasks, method, budget):
    bodies = _draw_bodies(seed, n_tasks, implicit=False)
    with pytest.MonkeyPatch.context() as mp:
        for decision, union in _controller_unions(mp, bodies, method, *budget):
            assert _admissible(union, method, *budget), decision


@given(seeds, st.integers(2, 4), st.sampled_from(METHODS))
@settings(max_examples=40, deadline=None)
def test_fleet_never_admits_what_the_analysis_rejects(seed, n_tasks, method):
    bodies = _draw_bodies(seed, n_tasks, implicit=True)
    with pytest.MonkeyPatch.context() as mp:
        for decision, union in _fleet_unions(mp, bodies, method):
            assert _admissible(union, method, 0, 0), decision
