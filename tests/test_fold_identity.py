"""Bit-identity regression matrix for steady-state folding and batching.

Folding replays whole hyperperiods arithmetically once simcore (the
only engine that folds) sees a repeated boundary state; batching shares
one arena of buffers and input-derived segment columns across runs.
Neither is allowed to change a single field of any
:class:`~repro.sched.simulator.SimResult`.  This module pins that down
as a matrix: simcore's folded run against the scalar oracle
``Simulator(taskset, config).run()`` (which never folds), and shared-arena
batches against fresh-arena runs with folding on and off
(``try_simulate(..., fold=False)``), x every CPU policy x both DMA
arbitrations, over random harmonic task sets and the scenario zoo's
planned deployments.

``fold_cycles``/``fold_jobs_skipped`` are telemetry about *how* the
result was obtained and are excluded from the folded-vs-oracle
comparison (an unfolded run legitimately reports zero); every other
field must match exactly.  Batch-vs-fresh comparisons include them —
the shared arena must not even change how folding proceeds.

Folding may only engage for fully deterministic, state-free
configurations: every nondeterministic or stateful :class:`SimConfig`
hook (traces, abort-on-miss, sporadic releases, fault injection,
escalation, recovery, DEGRADE overload state) must make simcore stand
down to the scalar loop, which never folds, and such runs must report
zero folding telemetry.  The online path's ``simulate_dynamic`` folds
on simcore only when no task has a stop cycle.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_taskset, sim_essence
from repro import obs
from repro.core.framework import RtMdm
from repro.hw.dma import DmaArbitration
from repro.hw.presets import get_platform
from repro.robust.escalation import EscalationConfig
from repro.robust.faults import FaultConfig
from repro.robust.overload import DegradeConfig, OverrunPolicy
from repro.online.sim import DynamicSimulator, simulate_dynamic
from repro.robust.recovery import RecoveryConfig
from repro.sched.policies import CpuPolicy
from repro.sched import simcore
from repro.sched.rta import try_hyperperiod
from repro.sched.simulator import SimConfig, Simulator, simulate
from repro.sched.task import TaskSet
from repro.eval.parallel import simulate_batch
from repro.workload.scenarios import get_scenario

MATRIX = sorted(
    itertools.product(CpuPolicy, DmaArbitration),
    key=lambda pair: (pair[0].value, pair[1].value),
)

#: Planned scenario deployments exercised alongside random sets.  Two
#: suffice for coverage (distinct platforms / task counts) while keeping
#: the matrix quick; the zoo's remaining scenarios share the same code
#: paths.
ZOO = ("doorbell", "wearable")


def _harmonic(taskset: TaskSet) -> TaskSet:
    """Round every period up to ``base * 2**k`` (base = min period).

    Constrained deadlines stay constrained because periods only grow,
    and the hyperperiod collapses to the maximum period — small enough
    that a test horizon spans many of them, which is what arms folding.
    """
    base = min(t.period for t in taskset)
    tasks = []
    for t in taskset:
        exponent = max(0, math.ceil(math.log2(t.period / base)))
        tasks.append(dataclasses.replace(t, period=base << exponent))
    return TaskSet.of(tasks)


def _zoo_taskset(key: str) -> TaskSet:
    scenario = get_scenario(key)
    rt = RtMdm(get_platform(scenario.platform_key))
    for spec in scenario.specs():
        rt.add_task(spec.name, spec.model, spec.period_s, spec.deadline_s)
    config = rt.configure()
    assert config.feasible and config.taskset is not None
    return _harmonic(config.taskset)


def _random_harmonic(seed: int) -> TaskSet:
    rng = random.Random(seed)
    return _harmonic(
        random_taskset(rng, n_tasks=rng.randint(2, 4), util_target=0.6)
    )


def _config(taskset: TaskSet, policy: CpuPolicy, arb: DmaArbitration) -> SimConfig:
    hyper = max(t.period for t in taskset)
    return SimConfig(
        policy=policy, dma_arbitration=arb, horizon=16 * hyper
    )


def _soa(taskset: TaskSet, config: SimConfig, arena=None, fold=True):
    """simcore's result for a config it must run (no stand-down)."""
    result = simcore.try_simulate(taskset, config, arena, fold=fold)
    assert result is not None
    return result


@pytest.mark.parametrize("policy,arb", MATRIX)
def test_fold_identical_to_unfolded_random_sets(policy, arb):
    for seed in (1, 2, 3):
        taskset = _random_harmonic(seed)
        config = _config(taskset, policy, arb)
        unfolded = Simulator(taskset, config).run()
        folded = _soa(taskset, config)
        assert sim_essence(folded) == sim_essence(unfolded)
        assert unfolded.fold_cycles == 0


@pytest.mark.parametrize("key", ZOO)
def test_fold_identical_to_unfolded_scenario_zoo(key):
    taskset = _zoo_taskset(key)
    for policy, arb in MATRIX:
        config = _config(taskset, policy, arb)
        unfolded = Simulator(taskset, config).run()
        folded = _soa(taskset, config)
        assert sim_essence(folded) == sim_essence(unfolded)


@pytest.mark.parametrize("fold", [True, False], ids=["fold-on", "fold-off"])
def test_batch_identical_to_scalar(fold):
    """Runs sharing one arena equal fresh-arena runs under both fold
    settings, including the telemetry fields (the shared arena must not
    perturb folding), across the full policy/arbitration matrix; and
    :func:`simulate_batch` is exactly the folded shared-arena batch."""
    tasksets = [_random_harmonic(s) for s in (4, 5)] + [
        _zoo_taskset(ZOO[0])
    ]
    cases = [
        (ts, _config(ts, policy, arb))
        for ts in tasksets
        for policy, arb in MATRIX
    ]
    arena = simcore.Arena()
    batched = [
        dataclasses.asdict(_soa(ts, cfg, arena, fold)) for ts, cfg in cases
    ]
    fresh = [
        dataclasses.asdict(_soa(ts, cfg, simcore.Arena(), fold))
        for ts, cfg in cases
    ]
    assert batched == fresh
    if fold:
        assert [dataclasses.asdict(r) for r in simulate_batch(cases)] == batched


def test_batch_with_stand_downs_matches_scalar():
    """:func:`simulate_batch` always builds its arena, and a case simcore
    stands down on runs the scalar loop inside the batch: every result
    equals the scalar oracle's, and only the supported cases fold."""
    cases = []
    for seed, overrides in (
        (1, {}),
        (2, dict(record_trace=True)),
        (3, dict(faults=FaultConfig(dma_fault_prob=0.1))),
        (4, {}),
    ):
        taskset = _random_harmonic(seed)
        config = _config(taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY)
        cases.append((taskset, dataclasses.replace(config, **overrides)))
    before = obs.snapshot()
    batched = simulate_batch(cases)
    runs, _, stand_downs = _soa_delta(before)
    assert (runs, stand_downs) == (2, 2)
    for (taskset, config), result in zip(cases, batched):
        assert sim_essence(result) == sim_essence(Simulator(taskset, config).run())
    assert batched[1].fold_cycles == batched[2].fold_cycles == 0


def test_folding_engages_on_harmonic_sets():
    """The matrix above is only meaningful if folding actually fires;
    pin that a deterministic harmonic set folds and skips real work."""
    engaged = 0
    for seed in (1, 2, 3):
        taskset = _random_harmonic(seed)
        result = simulate(
            taskset, _config(taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY)
        )
        if result.fold_cycles:
            assert result.fold_jobs_skipped > 0
            engaged += 1
    assert engaged > 0


def test_fold_off_reports_zero_telemetry():
    taskset = _random_harmonic(1)
    result = _soa(
        taskset,
        _config(taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY),
        fold=False,
    )
    assert result.fold_cycles == 0 and result.fold_jobs_skipped == 0


seeds = st.integers(0, 10_000)


def _nondeterministic_hooks():
    """One SimConfig override per hook that must disable folding."""
    return [
        dict(record_trace=True),
        dict(abort_on_miss=True),
        dict(sporadic_slack=0.25),
        dict(faults=FaultConfig(dma_fault_prob=0.1)),
        dict(escalation=EscalationConfig(crc_fault_prob=0.1)),
        dict(
            faults=FaultConfig(dma_fault_prob=0.1),
            recovery=RecoveryConfig(),
        ),
        dict(overrun=OverrunPolicy.DEGRADE, degrade=None),  # filled per-set
    ]


HOOK_INDEX = st.integers(0, len(_nondeterministic_hooks()) - 1)


def _soa_delta(before) -> tuple:
    """``sim.soa`` (runs, events, stand-downs) since ``before``."""
    return obs.delta_since(before)["sim.soa"]


@given(seeds, HOOK_INDEX)
@settings(max_examples=60, deadline=None)
def test_fold_disabled_under_nondeterministic_hooks(seed, hook_index):
    rng = random.Random(seed)
    ts = _harmonic(
        random_taskset(rng, n_tasks=rng.randint(2, 3), util_target=0.5)
    )
    overrides = _nondeterministic_hooks()[hook_index]
    if "degrade" in overrides:
        overrides["degrade"] = DegradeConfig(
            fallbacks={t.name: t.segments[:1] for t in ts}
        )
    horizon = 8 * max(t.period for t in ts)
    # Vacuity guard: the same set minus the hook runs on simcore with
    # folding armed (two hyperperiods fit in the horizon).
    hyperperiod = try_hyperperiod([t.period for t in ts])
    assert hyperperiod is not None
    assert 2 * hyperperiod <= horizon
    before = obs.snapshot()
    simulate(ts, SimConfig(horizon=horizon))
    runs, _, stand_downs = _soa_delta(before)
    assert (runs, stand_downs) == (1, 0)
    # Under the hook simcore stands down to the scalar loop, which
    # never folds.
    before = obs.snapshot()
    result = simulate(ts, SimConfig(horizon=horizon, **overrides))
    assert _soa_delta(before) == (0, 0, 1)
    assert result.fold_cycles == 0
    assert result.fold_jobs_skipped == 0


def test_simulate_dynamic_without_stops_folds_on_simcore():
    """With no stop cycles the online path runs on simcore and folds;
    the result equals the scalar ``DynamicSimulator`` run in every
    field but the fold telemetry."""
    taskset = _random_harmonic(1)
    config = _config(taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY)
    before = obs.snapshot()
    folded = simulate_dynamic(taskset, config)
    runs, _, stand_downs = _soa_delta(before)
    assert (runs, stand_downs) == (1, 0)
    assert folded.fold_cycles > 0 and folded.fold_jobs_skipped > 0
    reference = DynamicSimulator(taskset, config).run()
    assert reference.fold_cycles == 0 and reference.fold_jobs_skipped == 0
    assert sim_essence(folded) == sim_essence(reference)


def test_simulate_dynamic_with_stops_runs_unfolded_scalar_loop():
    taskset = _random_harmonic(1)
    config = _config(taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY)
    stops = {taskset[0].name: config.horizon // 2}
    before = obs.snapshot()
    result = simulate_dynamic(taskset, config, stops)
    assert _soa_delta(before) == (0, 0, 0)
    assert result.fold_cycles == 0 and result.fold_jobs_skipped == 0
    assert dataclasses.asdict(result) == dataclasses.asdict(
        DynamicSimulator(taskset, config, stops).run()
    )
    unstopped = simulate_dynamic(taskset, config)
    name = taskset[0].name
    assert result.stats[name].jobs < unstopped.stats[name].jobs
