"""Unit tests for the evaluation harness (systems, metrics, reporting)."""

import random

import pytest

from conftest import make_task
from repro.eval.metrics import (
    quantiles,
    schedulability_ratio,
    speedup,
    tightness_ratios,
)
from repro.eval.reporting import ExperimentResult, render
from repro.eval.systems import LABELS, SYSTEMS, admit, derive_taskset
from repro.hw.presets import get_platform
from repro.robust.metrics import miss_ratio
from repro.sched.simulator import SimConfig, simulate
from repro.sched.task import TaskSet
from repro.workload.taskset import generate_case

PLATFORM = get_platform("f746-qspi")


def _case(seed=7, util=0.4):
    return generate_case(PLATFORM, util, random.Random(seed), n_tasks=3)


class TestSystems:
    def test_every_system_derives_a_taskset(self):
        case = _case()
        assert case.feasible
        for system in SYSTEMS:
            taskset, method = derive_taskset(system, case)
            assert len(taskset) == len(case.taskset)
            assert method in ("rtmdm", "oblivious")
            assert system in LABELS

    def test_rtmdm_is_identity(self):
        case = _case()
        taskset, _ = derive_taskset("rtmdm", case)
        assert taskset is case.taskset

    def test_sequential_has_no_dma_traffic(self):
        case = _case()
        taskset, _ = derive_taskset("sequential", case)
        assert all(t.total_load == 0 for t in taskset)

    def test_npwhole_is_single_segment(self):
        case = _case()
        taskset, _ = derive_taskset("np-whole", case)
        assert all(t.num_segments == 1 for t in taskset)

    def test_xip_matches_refined_layers(self):
        case = _case()
        taskset, _ = derive_taskset("xip", case)
        for task in taskset:
            assert task.num_segments == case.refined[task.name].num_layers

    def test_unknown_system(self):
        with pytest.raises(ValueError, match="unknown system"):
            derive_taskset("quantum", _case())

    def test_infeasible_case_rejected_by_all(self):
        tiny = PLATFORM.with_sram_bytes(20 * 1024)
        case = generate_case(
            tiny, 0.5, random.Random(2), model_pool=("mobilenet-v1-0.25",), n_tasks=3
        )
        assert not case.feasible
        for system in SYSTEMS:
            assert not admit(system, case)

    def test_admit_consistency_with_simulation(self):
        case = _case()
        if admit("rtmdm", case):
            result = simulate(
                case.taskset,
                SimConfig(horizon=20 * max(t.period for t in case.taskset)),
            )
            assert result.no_misses


class TestMetrics:
    def test_schedulability_ratio(self):
        assert schedulability_ratio([True, False, True, True]) == 0.75
        with pytest.raises(ValueError):
            schedulability_ratio([])

    def test_miss_ratio(self):
        task = make_task("t", [(0, 150)], period=100)
        result = simulate(TaskSet.of([task]), SimConfig(horizon=1000))
        assert 0 < miss_ratio(result) <= 1.0

    def test_miss_ratio_zero_for_idle(self):
        task = make_task("t", [(0, 10)], period=100, phase=5000)
        result = simulate(TaskSet.of([task]), SimConfig(horizon=1000))
        assert miss_ratio(result) == 0.0

    def test_tightness_ratios(self):
        task = make_task("t", [(0, 100)], period=1000)
        result = simulate(TaskSet.of([task]), SimConfig(horizon=5000))
        ratios = tightness_ratios(result, {"t": 200})
        assert ratios == [0.5]
        assert tightness_ratios(result, {"t": None}) == []

    def test_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert quantiles(values, (0.0, 0.5, 1.0)) == [1.0, 3.0, 5.0]
        assert quantiles([], (0.5,)) == [None]
        with pytest.raises(ValueError):
            quantiles(values, (1.5,))

    def test_speedup(self):
        assert speedup(10.0, 5.0) == 2.0
        with pytest.raises(ValueError):
            speedup(10.0, 0.0)


class TestReporting:
    def _result(self):
        return ExperimentResult(
            exp_id="EXP-X",
            title="demo",
            columns=("name", "value", "flag"),
            rows=(("alpha", 1.5, True), ("beta", None, False)),
            notes="a note",
        )

    def test_render_contains_all_cells(self):
        text = render(self._result())
        assert "EXP-X" in text and "demo" in text
        assert "alpha" in text and "1.500" in text and "yes" in text
        assert "-" in text and "no" in text
        assert "note: a note" in text

    def test_column_extraction(self):
        result = self._result()
        assert result.column("name") == ["alpha", "beta"]
        with pytest.raises(ValueError):
            result.column("missing")

    def test_large_numbers_formatted(self):
        result = ExperimentResult(
            "E", "t", ("n",), ((1_234_567,), (1234.5,)),
        )
        text = render(result)
        assert "1,234,567" in text and "1,234" in text
