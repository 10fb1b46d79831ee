"""Tests for multi-channel DMA and dispatch-overhead accounting."""

import random

import pytest

from conftest import admitted_by_doubling, make_task, random_taskset
from repro.core.analysis import analyze
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate
from repro.sched.task import TaskSet, with_dispatch_overhead


class TestMultiChannelDma:
    def test_two_transfers_proceed_in_parallel(self):
        a = make_task("a", [(100, 10)], period=1000, priority=0)
        b = make_task("b", [(100, 10)], period=1000, priority=1)
        one = simulate(TaskSet.of([a, b]), SimConfig(horizon=2000, dma_channels=1))
        two = simulate(TaskSet.of([a, b]), SimConfig(horizon=2000, dma_channels=2))
        assert one.max_response("b") == 210  # serialized behind a's transfer
        assert two.max_response("b") == 120  # parallel transfer + blocked compute

    def test_one_outstanding_transfer_per_job(self):
        # A job's loads issue in order even with free channels.
        t = make_task("t", [(100, 10), (100, 10), (100, 10)], period=5000,
                      buffers=3)
        result = simulate(
            TaskSet.of([t]), SimConfig(horizon=5000, dma_channels=2,
                                       record_trace=True)
        )
        loads = sorted(
            [e for e in result.trace.events if e.kind == "load"],
            key=lambda e: e.time,
        )
        for first, second in zip(loads, loads[1:]):
            assert second.time >= first.end  # never two own transfers at once

    def test_channel_lanes_never_overlap(self):
        tasks = [
            make_task(f"t{i}", [(80, 40), (60, 30)], period=2000 + 100 * i,
                      priority=i)
            for i in range(3)
        ]
        result = simulate(
            TaskSet.of(tasks),
            SimConfig(horizon=20_000, dma_channels=2, record_trace=True),
        )
        for lane in ("dma", "dma2"):
            intervals = result.trace.intervals(lane)
            last_end = 0
            for event in intervals:
                assert event.time >= last_end
                last_end = event.end

    @pytest.mark.parametrize("seed", range(8))
    def test_single_channel_bounds_hold_for_two_channels(self, seed):
        """The 1-channel analysis is conservative for 2 channels."""
        rng = random.Random(400 + seed)
        ts = admitted_by_doubling(
            random_taskset(rng, n_tasks=3, util_target=0.4),
            lambda t: analyze(t, "rtmdm").schedulable,
        )
        result = analyze(ts, "rtmdm")
        sim = simulate(
            ts,
            SimConfig(policy=CpuPolicy.FP_NP,
                      horizon=20 * max(t.period for t in ts),
                      dma_channels=2),
        )
        assert sim.no_misses
        for task in ts:
            observed = sim.max_response(task.name)
            if observed is not None:
                assert observed <= result.wcrt[task.name]

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError, match="dma_channels"):
            SimConfig(horizon=100, dma_channels=0)


class TestDispatchOverhead:
    def _ts(self):
        return TaskSet.of([
            make_task("a", [(10, 100), (20, 200)], period=2000, priority=0),
            make_task("b", [(0, 300)], period=3000, priority=1),
        ])

    def test_inflates_every_segment(self):
        inflated = with_dispatch_overhead(self._ts(), 50)
        assert inflated.by_name("a").total_compute == 300 + 2 * 50
        assert inflated.by_name("b").total_compute == 300 + 50
        # Loads, periods, priorities untouched.
        assert inflated.by_name("a").total_load == 30
        assert inflated.by_name("a").priority == 0

    def test_zero_overhead_is_identity(self):
        ts = self._ts()
        assert with_dispatch_overhead(ts, 0) is ts

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            with_dispatch_overhead(self._ts(), -1)

    def test_analysis_on_inflated_set_dominates_inflated_simulation(self):
        inflated = with_dispatch_overhead(self._ts(), 75)
        result = analyze(inflated, "rtmdm")
        assert result.schedulable
        sim = simulate(
            inflated, SimConfig(horizon=20 * 3000)
        )
        assert sim.no_misses
        for task in inflated:
            assert sim.max_response(task.name) <= result.wcrt[task.name]
