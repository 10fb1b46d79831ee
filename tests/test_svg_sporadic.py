"""Unit tests for SVG trace export and sporadic releases."""

import random

import pytest

from conftest import admitted_by_doubling, make_task, random_taskset
from repro.core.analysis import analyze
from repro.hw.presets import get_platform
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate
from repro.sched.svg import trace_to_svg, write_svg
from repro.sched.task import TaskSet


def _traced(tasks, horizon, **kw):
    return simulate(TaskSet.of(tasks), SimConfig(horizon=horizon,
                                                 record_trace=True, **kw))


class TestSvg:
    def test_renders_lanes_and_intervals(self):
        result = _traced(
            [
                make_task("alpha", [(50, 100)], period=1000, priority=0),
                make_task("beta", [(30, 200)], period=1500, priority=1),
            ],
            horizon=5000,
        )
        svg = trace_to_svg(result.trace, mcu=get_platform().mcu)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "alpha/cpu" in svg and "beta/dma" in svg
        assert "<rect" in svg
        assert "ms</text>" in svg  # millisecond axis

    def test_cycles_axis_without_mcu(self):
        result = _traced([make_task("t", [(0, 100)], period=1000)], horizon=3000)
        svg = trace_to_svg(result.trace)
        assert "ms</text>" not in svg

    def test_misses_rendered(self):
        result = _traced([make_task("t", [(0, 1500)], period=1000)], horizon=3000)
        svg = trace_to_svg(result.trace)
        assert "deadline miss" in svg

    def test_empty_trace(self):
        from repro.sched.trace import Trace

        assert "(empty trace)" in trace_to_svg(Trace())

    def test_title_and_escaping(self):
        result = _traced([make_task("t", [(0, 100)], period=1000)], horizon=2000)
        svg = trace_to_svg(result.trace, title="a < b & c")
        assert "a &lt; b &amp; c" in svg

    def test_write_svg(self, tmp_path):
        result = _traced([make_task("t", [(0, 100)], period=1000)], horizon=2000)
        path = tmp_path / "trace.svg"
        write_svg(result.trace, str(path), title="x")
        assert path.read_text().startswith("<svg")


class TestSporadic:
    def test_inter_arrival_at_least_period(self):
        task = make_task("t", [(0, 10)], period=100)
        result = _traced([task], horizon=5000, sporadic_slack=0.5, seed=7)
        releases = [e.time for e in result.trace.points("release")]
        gaps = [b - a for a, b in zip(releases, releases[1:])]
        assert all(gap >= 100 for gap in gaps)
        assert any(gap > 100 for gap in gaps)  # some slack actually drawn

    def test_reproducible(self):
        task = make_task("t", [(0, 10)], period=100)
        a = _traced([task], horizon=5000, sporadic_slack=0.5, seed=3)
        b = _traced([task], horizon=5000, sporadic_slack=0.5, seed=3)
        ra = [e.time for e in a.trace.points("release")]
        rb = [e.time for e in b.trace.points("release")]
        assert ra == rb

    def test_different_seeds_differ(self):
        task = make_task("t", [(0, 10)], period=100)
        a = _traced([task], horizon=5000, sporadic_slack=0.9, seed=1)
        b = _traced([task], horizon=5000, sporadic_slack=0.9, seed=2)
        assert [e.time for e in a.trace.points("release")] != [
            e.time for e in b.trace.points("release")
        ]

    def test_zero_slack_is_periodic(self):
        task = make_task("t", [(0, 10)], period=100)
        result = _traced([task], horizon=1000, sporadic_slack=0.0)
        releases = [e.time for e in result.trace.points("release")]
        assert releases == list(range(0, 1000, 100))

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError, match="sporadic_slack"):
            SimConfig(horizon=100, sporadic_slack=-0.1)

    @pytest.mark.parametrize("seed", range(10))
    def test_analysis_bounds_hold_under_sporadic_arrivals(self, seed):
        """Periods are minimum inter-arrivals: the periodic analysis must
        still dominate sporadic simulations."""
        rng = random.Random(900 + seed)
        ts = admitted_by_doubling(
            random_taskset(rng, n_tasks=3, util_target=0.4),
            lambda t: analyze(t, "rtmdm").schedulable,
        )
        result = analyze(ts, "rtmdm")
        sim = simulate(
            ts,
            SimConfig(
                policy=CpuPolicy.FP_NP,
                horizon=25 * max(t.period for t in ts),
                sporadic_slack=0.7,
                seed=seed,
            ),
        )
        assert sim.no_misses
        for task in ts:
            observed = sim.max_response(task.name)
            if observed is not None:
                assert observed <= result.wcrt[task.name]
