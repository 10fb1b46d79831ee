"""Hand-computed unit tests for the schedulability analyses.

The adversarial/property suites check safety against the simulator; this
file pins exact bound values on small examples so refactors that change
the math are caught immediately.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_task
from repro.core import analysis
from repro.core.analysis import AnalysisResult, analyze
from repro.online.admission import mass_screen, oblivious_screen
from repro.sched.task import TaskSet


class TestSingleTask:
    def test_pure_compute(self):
        ts = TaskSet.of([make_task("t", [(0, 100)], period=1000)])
        for method in ("oblivious", "overlap", "holistic", "rtmdm"):
            result = analyze(ts, method)
            assert result.wcrt["t"] == 100, method

    def test_oblivious_counts_serialized_work(self):
        ts = TaskSet.of([make_task("t", [(50, 100), (60, 110)], period=1000)])
        assert analyze(ts, "oblivious").wcrt["t"] == 320

    def test_overlap_counts_pipelined_latency(self):
        # b=2: L1(50), C1 from 50..150; L2(60) from 50..110 -> C2 150..260.
        ts = TaskSet.of([make_task("t", [(50, 100), (60, 110)], period=1000)])
        assert analyze(ts, "overlap").wcrt["t"] == 260

    def test_holistic_stage_sum_for_fully_buffered(self):
        # buffers=2 covers both segments: RL = 110, RC = 210 -> 320?  No:
        # stage-sum = total loads + total computes when alone.
        ts = TaskSet.of(
            [make_task("t", [(50, 100), (60, 110)], period=1000, buffers=2)]
        )
        assert analyze(ts, "holistic").wcrt["t"] == 110 + 210

    def test_rtmdm_takes_minimum(self):
        ts = TaskSet.of([make_task("t", [(50, 100), (60, 110)], period=1000)])
        assert analyze(ts, "rtmdm").wcrt["t"] == 260


class TestTwoTasks:
    def _ts(self):
        hi = make_task("hi", [(0, 100)], period=1000, priority=0)
        lo = make_task("lo", [(0, 200)], period=2000, priority=1)
        return TaskSet.of([hi, lo])

    def test_blocking_for_highest(self):
        # hi: own 100 + one lo section 200 (single segment -> n_seg=1).
        result = analyze(self._ts(), "overlap")
        assert result.wcrt["hi"] == 300

    def test_interference_for_lowest(self):
        # lo: own 200 + ceil((R + J_hi)/1000) * 100 with J_hi = 300 - 100.
        result = analyze(self._ts(), "overlap")
        # R = 200 + ceil((R + 200)/1000)*100 -> R = 300 (ceil(500/1000)=1).
        assert result.wcrt["lo"] == 300

    def test_multi_segment_blocking_scales(self):
        hi = make_task("hi", [(10, 50), (10, 50)], period=5000, priority=0)
        lo = make_task("lo", [(0, 300)], period=5000, priority=1)
        result = analyze(TaskSet.of([hi, lo]), "oblivious")
        # blocking = n_seg(2) * 300 + n_load(2) * 0 = 600; own = 120.
        assert result.wcrt["hi"] == 720

    def test_dma_blocking_counted(self):
        hi = make_task("hi", [(100, 50)], period=5000, priority=0)
        lo = make_task("lo", [(400, 50)], period=5000, priority=1)
        result = analyze(TaskSet.of([hi, lo]), "oblivious")
        # own 150 + cpu blocking 50 + dma blocking 400 = 600.
        assert result.wcrt["hi"] == 600

    def test_unschedulable_returns_none_and_cascades(self):
        hi = make_task("hi", [(0, 900)], period=1000, priority=0)
        lo = make_task("lo", [(0, 500)], period=1000, priority=1)
        result = analyze(TaskSet.of([hi, lo]), "overlap")
        # hi fits (900 + 500 blocking > 1000 -> None), lo cascades.
        assert result.wcrt["hi"] is None
        assert result.wcrt["lo"] is None
        assert not result.schedulable


class TestAnalysisResult:
    def test_margin(self):
        ts = TaskSet.of([make_task("t", [(0, 100)], period=1000)])
        result = analyze(ts, "rtmdm")
        assert result.margin("t") == 900

    def test_margin_none_when_unbounded(self):
        hi = make_task("hi", [(0, 900)], period=1000, priority=0)
        lo = make_task("lo", [(0, 500)], period=1000, priority=1)
        result = analyze(TaskSet.of([hi, lo]), "overlap")
        assert result.margin("hi") is None

    def test_schedulable_requires_all_tasks(self):
        result = AnalysisResult(
            method="x", wcrt={"a": 10, "b": None}, deadlines={"a": 20, "b": 20}
        )
        assert not result.schedulable


class TestLatencyIsReadOnlyWhereNeeded:
    """The pipeline recurrence runs only for analyses that read it."""

    def _tasks(self):
        # Two segments at depth 1 (gated): holistic falls back to the
        # pipelined latency for "hi", overlap reads it for both.
        hi = make_task("hi", [(50, 100), (60, 110)], period=5000, priority=0,
                       buffers=1)
        lo = make_task("lo", [(40, 200)], period=8000, priority=1)
        return [hi, lo]

    @pytest.fixture
    def no_latency(self, monkeypatch):
        def boom(segments, buffers=2):
            raise AssertionError("isolated_latency called")

        monkeypatch.setattr(analysis, "isolated_latency", boom)

    def test_oblivious_and_the_screen_run_no_recurrence(self, no_latency):
        tasks = self._tasks()
        assert analyze(TaskSet.of(tasks), "oblivious").schedulable
        assert oblivious_screen(tasks)
        assert mass_screen([tasks, tasks[:1]]) == [True, True]

    @pytest.mark.parametrize("method", ["overlap", "holistic", "rtmdm"])
    def test_latency_readers_still_run_it(self, no_latency, method):
        with pytest.raises(AssertionError, match="isolated_latency called"):
            analyze(TaskSet.of(self._tasks()), method)


class TestViewAggregates:
    """``_View.of`` reads every aggregate in one loop over the segments;
    each must equal its :class:`~repro.sched.task.PeriodicTask` form."""

    @settings(max_examples=300, deadline=None)
    @given(
        segs=st.lists(
            st.tuples(
                st.one_of(st.just(0), st.integers(0, 5_000)),
                st.integers(1, 5_000),
            ),
            min_size=1,
            max_size=12,
        ),
        buffers=st.integers(1, 4),
    )
    @example(segs=[(0, 7)], buffers=2)
    @example(segs=[(0, 3), (0, 9)], buffers=1)
    @example(segs=[(5, 2)], buffers=2)
    def test_single_pass_equals_property_aggregates(self, segs, buffers):
        task = make_task("t", segs, period=10**9, buffers=buffers)
        view = analysis._View.of(task)
        assert view.task is task
        assert (view.total_c, view.total_l, view.n_seg, view.n_load,
                view.max_c, view.max_l) == (
            task.total_compute,
            task.total_load,
            task.num_segments,
            sum(1 for s in task.segments if s.load_cycles > 0),
            task.max_segment_compute,
            max((s.load_cycles for s in task.segments), default=0),
        )
