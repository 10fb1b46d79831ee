"""Bit-identity regression matrix for the SoA simulator core.

:mod:`repro.sched.simcore` replays the scalar event loop on flat
arrays — fused scheduling passes, heap-tuple events, lone/dominant-task
fast-forward, steady-state folding — and is not allowed to change a
single field of any :class:`~repro.sched.simulator.SimResult`.  This
module pins that down as a matrix: :func:`~repro.sched.simcore.try_simulate`
against the scalar oracle ``Simulator(taskset, config).run()`` x every
CPU policy x both DMA arbitrations x fold on/off, over random segmented
sets and the scenario zoo's planned deployments, plus the overrun-policy
family.  The scalar loop never folds, so with folding on simcore is
checked against an unfolded reference run; only the two fold telemetry
fields are left out of that comparison.

Unsupported configurations must *stand down*: the dispatcher falls back
to the scalar path (results trivially identical) while the telemetry
records the fallback and no SoA run.  A hypothesis property test sweeps
random unsupported-feature combinations to pin that contract.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_taskset, sim_essence
from repro import obs
from repro.core.framework import RtMdm
from repro.hw.dma import DmaArbitration
from repro.hw.presets import get_platform
from repro.robust.overload import DegradeConfig, OverrunPolicy
from repro.sched import simcore
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, Simulator, simulate
from repro.sched.task import TaskSet
from repro.workload.scenarios import get_scenario

MATRIX = sorted(
    itertools.product(CpuPolicy, DmaArbitration),
    key=lambda pair: (pair[0].value, pair[1].value),
)

#: Deterministic overrun policies (DEGRADE needs a degrade config and
#: stands the SoA core down; it is covered by the stand-down tests).
OVERRUNS = (
    OverrunPolicy.CONTINUE,
    OverrunPolicy.ABORT_AT_DEADLINE,
    OverrunPolicy.SKIP_NEXT,
)

ZOO = ("doorbell", "wearable")


def _zoo_taskset(key: str) -> TaskSet:
    scenario = get_scenario(key)
    rt = RtMdm(get_platform(scenario.platform_key))
    for spec in scenario.specs():
        rt.add_task(spec.name, spec.model, spec.period_s, spec.deadline_s)
    config = rt.configure()
    assert config.feasible and config.taskset is not None
    return config.taskset


def _random_set(seed: int) -> TaskSet:
    rng = random.Random(seed)
    return random_taskset(
        rng, n_tasks=rng.randint(2, 4), util_target=rng.choice((0.5, 0.8))
    )


def _config(taskset: TaskSet, policy, arb, overrun=OverrunPolicy.CONTINUE):
    hyper = max(t.period for t in taskset)
    return SimConfig(
        policy=policy, dma_arbitration=arb, horizon=8 * hyper, overrun=overrun
    )


def _soa(taskset, config, fold=True):
    """simcore's result for a config it must run (no stand-down)."""
    result = simcore.try_simulate(taskset, config, fold=fold)
    assert result is not None
    return result


def _both(taskset, config):
    """(soa, scalar oracle) results for one case, as dicts."""
    soa = _soa(taskset, config)
    scalar = Simulator(taskset, config).run()
    return dataclasses.asdict(soa), dataclasses.asdict(scalar)


@pytest.mark.parametrize("policy,arb", MATRIX)
def test_soa_identical_random_sets(policy, arb):
    for seed in (11, 12, 13):
        taskset = _random_set(seed)
        soa, scalar = _both(taskset, _config(taskset, policy, arb))
        assert soa == scalar


@pytest.mark.parametrize("fold", [True, False], ids=["fold-on", "fold-off"])
@pytest.mark.parametrize("key", ZOO)
def test_soa_identical_scenario_zoo(key, fold):
    """Planned deployments, with and without steady-state folding on
    simcore.  Fold off compares every field; fold on compares simcore's
    folded run against the unfolded scalar loop in every field but the
    fold telemetry, which the scalar loop reports as zero."""
    taskset = _zoo_taskset(key)
    folded = 0
    for policy, arb in MATRIX:
        config = _config(taskset, policy, arb)
        soa = _soa(taskset, config, fold=fold)
        scalar = Simulator(taskset, config).run()
        assert scalar.fold_cycles == 0 and scalar.fold_jobs_skipped == 0
        if fold:
            assert sim_essence(soa) == sim_essence(scalar)
        else:
            assert dataclasses.asdict(soa) == dataclasses.asdict(scalar)
        folded += soa.fold_cycles > 0
    # Fold on is vacuous unless simcore actually folds somewhere.
    assert (folded > 0) == fold


@pytest.mark.parametrize("overrun", OVERRUNS)
def test_soa_identical_overrun_policies(overrun):
    for seed in (21, 22):
        taskset = _random_set(seed)
        config = _config(
            taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY, overrun
        )
        soa, scalar = _both(taskset, config)
        assert soa == scalar


def test_soa_engine_engages():
    """The dispatcher must run supported configs on the SoA core and
    process real events there, not silently take the scalar path."""
    taskset = _random_set(11)
    before = obs.snapshot()
    simulate(taskset, _config(taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY))
    runs, events, stand_downs = obs.delta_since(before)["sim.soa"]
    assert runs == 1
    assert events > 0
    assert stand_downs == 0


#: One strategy per unsupported feature: a SimConfig kwarg override that
#: must force a stand-down regardless of the rest of the config.
_UNSUPPORTED = st.sampled_from([
    {"record_trace": True},
    {"abort_on_miss": True},
    {"sporadic_slack": 0.2},
    {"dma_channels": 2},
    {"overrun": OverrunPolicy.DEGRADE,
     "degrade": DegradeConfig(fallbacks={})},
])


@settings(max_examples=40, deadline=None)
@given(
    overrides=st.lists(_UNSUPPORTED, min_size=1, max_size=3),
    seed=st.integers(min_value=1, max_value=50),
    policy=st.sampled_from(list(CpuPolicy)),
)
def test_unsupported_configs_stand_down(overrides, seed, policy):
    """Any config with at least one unsupported feature stands down:
    ``try_simulate`` returns ``None``, the stand-down is counted, and
    the run/event telemetry stays untouched."""
    taskset = _random_set(seed)
    kwargs = {}
    for override in overrides:
        kwargs.update(override)
    config = SimConfig(
        policy=policy, horizon=4 * max(t.period for t in taskset), **kwargs
    )
    before = obs.snapshot()
    assert simcore.try_simulate(taskset, config) is None
    runs, events, stand_downs = obs.delta_since(before)["sim.soa"]
    assert (runs, events) == (0, 0)
    assert stand_downs == 1
