"""Unit tests for workload generation and scenarios."""

import random

import pytest

from repro.core import segcache
from repro.dnn.models import refine_model
from repro.dnn.quantization import FLOAT32, INT8
from repro.dnn.zoo import build_model, list_models
from repro.hw.presets import get_platform
from repro.workload.scenarios import SCENARIOS, get_scenario
from repro.workload.taskset import generate_case, uunifast

PLATFORM = get_platform("f746-qspi")


class TestBudgetInputs:
    @pytest.mark.parametrize("quant", [INT8, FLOAT32], ids=lambda q: q.name)
    def test_model_costs_hold_the_budget_walks(self, quant):
        """The SRAM split reads the memoized per-model costs; over the
        zoo (as built and refined) they equal the three layer walks
        they replace."""
        for name in list_models():
            model = build_model(name)
            for candidate in (model, refine_model(model, quant, 4096)):
                costs = segcache.model_costs(candidate, PLATFORM, quant)
                assert costs.max_weight == max(
                    layer.param_bytes(quant) for layer in candidate.layers
                ), name
                assert costs.activation_bytes == (
                    candidate.peak_activation_bytes(quant)
                ), name
                assert costs.prefix_w[-1] == candidate.total_param_bytes(quant), name


class TestUUniFast:
    @pytest.mark.parametrize("n,total", [(1, 0.5), (3, 0.7), (8, 0.95), (5, 2.0)])
    def test_sums_to_target(self, n, total):
        utils = uunifast(n, total, random.Random(1))
        assert sum(utils) == pytest.approx(total)
        assert len(utils) == n
        assert all(u > 0 for u in utils)

    def test_reproducible(self):
        a = uunifast(5, 0.6, random.Random(42))
        b = uunifast(5, 0.6, random.Random(42))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            uunifast(0, 0.5, random.Random(1))
        with pytest.raises(ValueError):
            uunifast(3, 0.0, random.Random(1))


class TestGenerateCase:
    def test_utilization_matches_target(self):
        case = generate_case(PLATFORM, 0.5, random.Random(7), n_tasks=3)
        assert case.feasible
        assert case.taskset.cpu_utilization == pytest.approx(0.5, rel=0.05)

    def test_reproducible(self):
        a = generate_case(PLATFORM, 0.4, random.Random(3))
        b = generate_case(PLATFORM, 0.4, random.Random(3))
        assert a.feasible == b.feasible
        if a.feasible:
            for ta, tb in zip(a.taskset, b.taskset):
                assert ta.period == tb.period
                assert ta.segments == tb.segments

    def test_dm_priorities_unique(self):
        case = generate_case(PLATFORM, 0.4, random.Random(11))
        if case.feasible:
            prios = sorted(t.priority for t in case.taskset)
            assert prios == list(range(len(case.taskset)))

    def test_constrained_deadlines(self):
        case = generate_case(
            PLATFORM, 0.4, random.Random(5), deadline_ratio=(0.6, 0.8)
        )
        if case.feasible:
            for task in case.taskset:
                assert task.deadline <= task.period
                assert task.deadline >= int(task.period * 0.55)

    def test_model_pool_respected(self):
        case = generate_case(
            PLATFORM, 0.3, random.Random(9), model_pool=("tinyconv",), n_tasks=2
        )
        assert case.feasible
        for model in case.refined.values():
            assert model.name == "tinyconv"

    def test_infeasible_on_tiny_sram(self):
        tiny = PLATFORM.with_sram_bytes(20 * 1024)
        case = generate_case(
            tiny, 0.5, random.Random(2), model_pool=("mobilenet-v1-0.25",), n_tasks=3
        )
        assert not case.feasible
        assert case.taskset is None

    def test_segments_respect_np_cap_estimate(self):
        case = generate_case(PLATFORM, 0.5, random.Random(13), n_tasks=3)
        if not case.feasible:
            pytest.skip("draw was infeasible")
        min_d = min(t.deadline for t in case.taskset)
        for task in case.taskset:
            refined_floor = max(
                PLATFORM.compute_cycles(l, 1.0)
                for l in case.refined[task.name].layers
            )
            assert task.max_segment_compute <= max(min_d, refined_floor) * 2


class TestScenarios:
    def test_all_scenarios_materialize(self):
        for name in SCENARIOS:
            scenario = get_scenario(name)
            specs = scenario.specs()
            assert len(specs) >= 2
            assert all(spec.period_s > 0 for spec in specs)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="available"):
            get_scenario("mars-rover")

    def test_platform_keys_valid(self):
        for scenario in SCENARIOS.values():
            get_platform(scenario.platform_key)

    def test_models_exist_in_zoo(self):
        zoo = set(list_models())
        for scenario in SCENARIOS.values():
            for _, model_name, _, _ in scenario.tasks:
                assert model_name in zoo, (
                    f"{scenario.name}: unknown model {model_name!r}"
                )

    def test_deadlines_constrained(self):
        # 0 means implicit (= period); explicit deadlines must fit the period.
        for scenario in SCENARIOS.values():
            for task_name, _, period_s, deadline_s in scenario.tasks:
                assert period_s > 0, f"{scenario.name}/{task_name}"
                assert 0 <= deadline_s <= period_s, (
                    f"{scenario.name}/{task_name}: deadline {deadline_s} "
                    f"outside (0, {period_s}]"
                )

    def test_task_names_unique(self):
        for scenario in SCENARIOS.values():
            names = [t[0] for t in scenario.tasks]
            assert len(set(names)) == len(names), scenario.name

    def test_specs_resolve_implicit_deadlines(self):
        for scenario in SCENARIOS.values():
            for spec, raw in zip(scenario.specs(), scenario.tasks):
                assert spec.model.num_layers > 0
                if raw[3] > 0:
                    assert spec.deadline_s == raw[3]
                else:
                    assert spec.deadline_s is None
