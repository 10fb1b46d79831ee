"""Unit tests for the extension features: energy, placement, EDF."""

import random

import pytest

from conftest import make_task
from repro.core.edf import edf_schedulable, edf_utilization_bound
from repro.core.framework import RtMdm
from repro.core.placement import (
    choose_flash_residents,
    resident_segmentation,
)
from repro.dnn.quantization import INT8
from repro.dnn.zoo import build_model
from repro.hw.energy import (
    EnergyBreakdown,
    PowerModel,
    energy_of_run,
    energy_per_inference_mj,
    power_model_for,
)
from repro.hw.presets import get_platform
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate
from repro.sched.task import TaskSet

PLATFORM = get_platform("f746-qspi")


class TestEnergy:
    def _run(self, segs, period=10_000):
        task = make_task("t", segs, period=period)
        taskset = TaskSet.of([task])
        result = simulate(taskset, SimConfig(horizon=5 * period))
        return result, taskset

    def test_breakdown_components_sum(self):
        result, taskset = self._run([(100, 500)])
        breakdown = energy_of_run(result, taskset, PLATFORM)
        assert breakdown.total_mj == pytest.approx(
            breakdown.cpu_mj + breakdown.dma_mj + breakdown.ext_mj + breakdown.idle_mj
        )
        assert breakdown.cpu_mj > 0 and breakdown.idle_mj > 0

    def test_no_loads_means_no_ext_energy(self):
        result, taskset = self._run([(0, 500)])
        breakdown = energy_of_run(result, taskset, PLATFORM)
        assert breakdown.ext_mj == 0.0
        assert breakdown.dma_mj == 0.0

    def test_ext_energy_scales_with_bytes(self):
        # Same cycles, different declared bytes.
        from repro.sched.task import PeriodicTask, Segment

        small = PeriodicTask(
            "t", (Segment("s", 100, 500, load_bytes=1000),), 10_000, 10_000
        )
        big = PeriodicTask(
            "t", (Segment("s", 100, 500, load_bytes=4000),), 10_000, 10_000
        )
        ts_small, ts_big = TaskSet.of([small]), TaskSet.of([big])
        r_small = simulate(ts_small, SimConfig(horizon=50_000))
        r_big = simulate(ts_big, SimConfig(horizon=50_000))
        e_small = energy_of_run(r_small, ts_small, PLATFORM).ext_mj
        e_big = energy_of_run(r_big, ts_big, PLATFORM).ext_mj
        assert e_big == pytest.approx(4 * e_small)

    def test_xip_bytes_counted(self):
        from repro.sched.task import PeriodicTask, Segment

        xip = PeriodicTask(
            "t", (Segment("s", 0, 500, xip_bytes=2000),), 10_000, 10_000
        )
        ts = TaskSet.of([xip])
        result = simulate(ts, SimConfig(horizon=50_000))
        assert energy_of_run(result, ts, PLATFORM).ext_mj > 0

    def test_energy_per_inference_requires_jobs(self):
        task = make_task("t", [(0, 10)], period=100, phase=10**9)
        ts = TaskSet.of([task])
        result = simulate(ts, SimConfig(horizon=1000))
        with pytest.raises(ValueError, match="no completed jobs"):
            energy_per_inference_mj(result, ts, PLATFORM)

    def test_power_model_lookup(self):
        assert power_model_for(PLATFORM.mcu).cpu_active_mw == 100.0
        from repro.hw.mcu import McuSpec

        unknown = McuSpec(name="XYZ", clock_hz=10**8, sram_bytes=1024 * 64,
                          flash_bytes=0)
        assert power_model_for(unknown) == PowerModel()

    def test_invalid_power_model(self):
        with pytest.raises(ValueError):
            PowerModel(cpu_active_mw=-1)

    def test_average_power(self):
        breakdown = EnergyBreakdown(
            cpu_mj=5.0, dma_mj=1.0, ext_mj=1.0, idle_mj=3.0, duration_s=2.0
        )
        assert breakdown.average_mw == pytest.approx(5.0)


class TestPlacement:
    def test_knapsack_prefers_high_rate_models(self):
        small_hot = ("hot", build_model("ds-cnn"), 0.05)  # ~24 KiB / 50 ms
        big_cold = ("cold", build_model("autoencoder"), 10.0)  # 264 KiB / 10 s
        budget = 100 * 1024  # only the small one fits
        placement = choose_flash_residents([small_hot, big_cold], budget)
        assert placement.resident == ("hot",)
        assert placement.flash_used <= budget

    def test_everything_fits_everything_resident(self):
        candidates = [
            ("a", build_model("tinyconv"), 0.1),
            ("b", build_model("lenet5"), 0.1),
        ]
        placement = choose_flash_residents(candidates, 10**7)
        assert set(placement.resident) == {"a", "b"}

    def test_zero_budget(self):
        placement = choose_flash_residents(
            [("a", build_model("tinyconv"), 0.1)], 0
        )
        assert placement.resident == ()
        assert not placement.is_resident("a")

    def test_resident_segmentation_zero_loads(self):
        seg = resident_segmentation(build_model("ds-cnn"), PLATFORM)
        assert seg.resident
        segments = seg.segments()
        assert all(s.load_cycles == 0 and s.load_bytes == 0 for s in segments)
        assert seg.sram_need_bytes() == seg.model.peak_activation_bytes(INT8)

    def test_resident_segmentation_respects_cap(self):
        model = build_model("resnet8")
        cap = 2_000_000
        seg = resident_segmentation(model, PLATFORM, max_segment_compute=cap)
        floor = max(PLATFORM.compute_cycles(l, 1.0) for l in model.layers)
        assert max(s.compute_cycles for s in seg.segments()) <= max(cap, floor)
        assert seg.num_segments > 1

    def test_framework_flash_path_end_to_end(self):
        rt = RtMdm(PLATFORM, use_internal_flash=True)
        rt.add_task("kws", build_model("ds-cnn"), period_s=0.200)
        rt.add_task("anomaly", build_model("autoencoder"), period_s=0.500)
        config = rt.configure()
        assert config.feasible
        assert config.placement is not None
        assert config.placement.resident  # something got placed
        for name in config.placement.resident:
            assert config.segmented[name].resident
            plan = config.sram_plan.plan_for(name)
            assert plan.slots == ()
        result = config.simulate()
        assert result.no_misses

    def test_flash_never_hurts_admission(self):
        for use_flash in (False, True):
            rt = RtMdm(PLATFORM, use_internal_flash=use_flash)
            rt.add_task("kws", build_model("ds-cnn"), period_s=0.200)
            rt.add_task("vww", build_model("mobilenet-v1-0.25"), period_s=1.000)
            config = rt.configure()
            assert config.admitted

    def test_code_reserve_validation(self):
        with pytest.raises(ValueError):
            RtMdm(PLATFORM, code_reserve_bytes=-1)


class TestEdf:
    def _easy(self):
        return TaskSet.of([
            make_task("a", [(10, 100)], period=2000, priority=0),
            make_task("b", [(20, 200)], period=4000, priority=1),
        ])

    def test_easy_set_admitted(self):
        assert edf_schedulable(self._easy())

    def test_overload_rejected(self):
        heavy = TaskSet.of([
            make_task("a", [(0, 900)], period=1000, priority=0),
            make_task("b", [(0, 900)], period=1000, priority=1),
        ])
        assert not edf_schedulable(heavy)

    def test_utilization_bound_reflects_inflation(self):
        ts = self._easy()
        raw = ts.cpu_utilization + ts.dma_utilization
        assert edf_utilization_bound(ts) >= raw

    @pytest.mark.parametrize("seed", range(12))
    def test_admitted_sets_never_miss_under_edf(self, seed):
        rng = random.Random(seed)
        from conftest import admitted_by_doubling, random_taskset

        ts = admitted_by_doubling(
            random_taskset(rng, n_tasks=3, util_target=0.35), edf_schedulable
        )
        result = simulate(
            ts,
            SimConfig(policy=CpuPolicy.EDF_NP,
                      horizon=20 * max(t.period for t in ts)),
        )
        assert result.no_misses
