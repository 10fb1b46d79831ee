"""Unit tests for the seeded fault models (repro.robust.faults)."""

import math

import pytest

from repro.robust import FaultConfig, FaultInjector, InflationModel
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate
from repro.sched.task import PeriodicTask, Segment, TaskSet


# ----------------------------------------------------------------------
# FaultConfig validation & null detection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"inflation_factor": 0.5},
    {"inflation_factor": math.inf},
    {"inflation_factor": math.nan},
    {"spike_prob": -0.1},
    {"spike_prob": 1.5},
    {"dma_fault_prob": 2.0},
    {"dma_max_retries": -1},
    {"dma_crc_overhead": -5},
    {"jitter_cycles": -1},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FaultConfig(**kwargs)


@pytest.mark.parametrize("cfg,null", [
    (FaultConfig(), True),
    (FaultConfig(inflation=InflationModel.FIXED, inflation_factor=1.0), True),
    (FaultConfig(inflation=InflationModel.SPIKE, inflation_factor=3.0,
                 spike_prob=0.0), True),
    # A zero retry budget no longer makes faults null: the single
    # attempt can fail and must surface as a budget exhaustion.
    (FaultConfig(dma_fault_prob=0.5, dma_max_retries=0), False),
    (FaultConfig(inflation=InflationModel.FIXED, inflation_factor=1.5), False),
    (FaultConfig(dma_fault_prob=0.01), False),
    (FaultConfig(jitter_cycles=1), False),
])
def test_is_null(cfg, null):
    assert cfg.is_null is null


# ----------------------------------------------------------------------
# Compute inflation
# ----------------------------------------------------------------------
def test_none_model_never_inflates():
    inj = FaultInjector(FaultConfig(seed=1))
    assert [inj.compute_cycles(c) for c in (1, 7, 1000)] == [1, 7, 1000]
    assert inj.overruns == 0


def test_fixed_inflation_is_exact_ceiling():
    inj = FaultInjector(
        FaultConfig(inflation=InflationModel.FIXED, inflation_factor=1.3)
    )
    assert inj.compute_cycles(100) == 130
    assert inj.compute_cycles(7) == math.ceil(7 * 1.3)
    assert inj.overruns == 2


def test_uniform_inflation_is_bounded():
    inj = FaultInjector(
        FaultConfig(inflation=InflationModel.UNIFORM, inflation_factor=2.0,
                    seed=11)
    )
    for _ in range(200):
        actual = inj.compute_cycles(100)
        assert 100 <= actual <= 200


def test_spike_inflation_is_nominal_or_full():
    inj = FaultInjector(
        FaultConfig(inflation=InflationModel.SPIKE, inflation_factor=4.0,
                    spike_prob=0.5, seed=5)
    )
    values = {inj.compute_cycles(50) for _ in range(300)}
    assert values == {50, 200}  # nothing in between
    assert 0 < inj.overruns < 300


def test_inflation_never_shrinks_work():
    inj = FaultInjector(
        FaultConfig(inflation=InflationModel.UNIFORM, inflation_factor=1.01,
                    seed=3)
    )
    assert all(inj.compute_cycles(1) >= 1 for _ in range(50))


# ----------------------------------------------------------------------
# Transfer faults
# ----------------------------------------------------------------------
def test_zero_byte_transfer_untouched():
    inj = FaultInjector(FaultConfig(dma_fault_prob=1.0, jitter_cycles=100))
    assert inj.transfer_cycles(0) == (0, 0, False)
    assert inj.transfers == 0


def test_certain_faults_exhaust_retry_budget():
    inj = FaultInjector(
        FaultConfig(dma_fault_prob=1.0, dma_max_retries=3, dma_crc_overhead=4)
    )
    total, retries, exhausted = inj.transfer_cycles(100)
    assert retries == 3
    assert total == 100 + 3 * (100 + 4)
    assert exhausted  # the final attempt failed too: no silent success
    assert inj.transfers == 1
    assert inj.retries == 3


def test_fault_free_transfer_is_never_exhausted():
    inj = FaultInjector(FaultConfig(dma_fault_prob=0.0, seed=3))
    for _ in range(50):
        assert inj.transfer_cycles(100) == (100, 0, False)


def test_jitter_is_bounded_and_additive():
    inj = FaultInjector(FaultConfig(jitter_cycles=10, seed=2))
    seen = set()
    for _ in range(400):
        total, retries, exhausted = inj.transfer_cycles(50)
        assert retries == 0
        assert not exhausted
        assert 50 <= total <= 60
        seen.add(total - 50)
    assert seen == set(range(11))  # whole support reached


def test_injector_sequences_are_seed_deterministic():
    cfg = FaultConfig(inflation=InflationModel.UNIFORM, inflation_factor=2.0,
                      dma_fault_prob=0.3, dma_crc_overhead=7,
                      jitter_cycles=9, seed=42)
    a, b = FaultInjector(cfg), FaultInjector(cfg)
    for _ in range(100):
        assert a.compute_cycles(64) == b.compute_cycles(64)
        assert a.transfer_cycles(128) == b.transfer_cycles(128)
    assert (a.transfers, a.retries, a.overruns) == (
        b.transfers, b.retries, b.overruns
    )


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------
def _taskset():
    return TaskSet.of([
        PeriodicTask(
            "t0",
            (Segment("t0a", 50, 200), Segment("t0b", 80, 150)),
            period=1000, deadline=1000, priority=0, buffers=2,
        ),
    ])


def test_simulation_with_faults_is_reproducible():
    cfg = SimConfig(
        policy=CpuPolicy.FP_NP,
        horizon=20000,
        faults=FaultConfig(inflation=InflationModel.UNIFORM,
                           inflation_factor=1.8, dma_fault_prob=0.2,
                           dma_crc_overhead=10, jitter_cycles=25, seed=9),
    )
    a = simulate(_taskset(), cfg)
    b = simulate(_taskset(), cfg)
    assert a.stats["t0"].responses == b.stats["t0"].responses
    assert (a.cpu_busy, a.dma_busy, a.dma_retries) == (
        b.cpu_busy, b.dma_busy, b.dma_retries
    )


def test_simulation_counts_dma_retries():
    result = simulate(
        _taskset(),
        SimConfig(horizon=20000,
                  faults=FaultConfig(dma_fault_prob=1.0, dma_max_retries=2)),
    )
    # Certain faults exhaust the very first transfer's budget; with no
    # recovery configured the exhaustion is terminal and the task is
    # quarantined — it must NOT silently complete as if the last retry
    # had worked.
    stats = result.stats["t0"]
    assert stats.responses == []
    assert stats.aborts == 1
    assert result.dma_retries == 2
    assert result.quarantined == ("t0",)
    assert len(result.fault_events) == 1
    # All 19 later releases were suppressed by the quarantine and are
    # accounted as sacrificed, not dropped on the floor.
    assert stats.quarantined_releases == 19


def test_faulty_run_is_never_faster_than_nominal():
    # Seed 17 exhausts one retry budget near the end of the horizon and
    # quarantines t0 there; every job completed before that point must
    # still be pairwise no faster than its nominal counterpart.
    nominal = simulate(_taskset(), SimConfig(horizon=20000))
    faulty = simulate(
        _taskset(),
        SimConfig(horizon=20000,
                  faults=FaultConfig(inflation=InflationModel.FIXED,
                                     inflation_factor=1.5,
                                     dma_fault_prob=0.3, dma_crc_overhead=12,
                                     jitter_cycles=40, seed=17)),
    )
    for slow, fast in zip(faulty.stats["t0"].responses,
                          nominal.stats["t0"].responses):
        assert slow >= fast
    assert faulty.cpu_busy >= nominal.cpu_busy
    assert faulty.dma_busy >= nominal.dma_busy
