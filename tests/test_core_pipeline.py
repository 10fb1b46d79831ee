"""Unit tests for the double-buffer pipeline model."""

import pytest

from repro.core.pipeline import (
    SegmentedModel,
    isolated_latency,
    pipeline_finish_times,
    sequential_latency,
)
from repro.dnn.quantization import INT8
from repro.dnn.zoo import build_model
from repro.hw.presets import get_platform
from repro.sched.task import Segment


def _segs(pairs):
    return [Segment(f"s{i}", l, c) for i, (l, c) in enumerate(pairs)]


class TestRecurrence:
    def test_single_segment(self):
        segs = _segs([(10, 20)])
        assert isolated_latency(segs) == 30

    def test_perfect_overlap(self):
        # Loads fully hidden behind long computes after the first.
        segs = _segs([(10, 100), (10, 100), (10, 100)])
        assert isolated_latency(segs, buffers=2) == 10 + 300

    def test_load_bound_chain(self):
        # Computes hidden behind long loads: latency = sum loads + last C.
        segs = _segs([(100, 10), (100, 10), (100, 10)])
        assert isolated_latency(segs, buffers=2) == 300 + 10

    def test_single_buffer_equals_sequential(self):
        segs = _segs([(30, 70), (50, 20), (10, 40)])
        assert isolated_latency(segs, buffers=1) == sequential_latency(segs)

    def test_buffer_three_no_worse_than_two(self):
        segs = _segs([(50, 20), (60, 30), (40, 80), (70, 10)])
        assert isolated_latency(segs, buffers=3) <= isolated_latency(segs, buffers=2)

    def test_lower_bound_max_of_resources(self):
        segs = _segs([(50, 20), (60, 30), (40, 80)])
        total_l, total_c = 150, 130
        latency = isolated_latency(segs, buffers=2)
        assert latency >= max(total_l, total_c)
        assert latency <= sequential_latency(segs)

    def test_finish_times_monotone(self):
        segs = _segs([(30, 70), (50, 20), (10, 40)])
        finish = pipeline_finish_times(segs, buffers=2)
        loads = [f[0] for f in finish]
        comps = [f[1] for f in finish]
        assert loads == sorted(loads)
        assert comps == sorted(comps)
        assert all(l <= c for l, c in finish)

    def test_buffer_gating_exact(self):
        # b=1: load j waits for compute j-1.
        segs = _segs([(10, 50), (10, 50)])
        # L1(10) C1(50) then L2 starts at 60, C2 at 70 -> 120.
        assert isolated_latency(segs, buffers=1) == 120
        # b=2: L2 overlaps C1 -> C2 starts at 60 -> 110.
        assert isolated_latency(segs, buffers=2) == 110

    def test_validation(self):
        with pytest.raises(ValueError):
            isolated_latency([], buffers=2)
        with pytest.raises(ValueError):
            pipeline_finish_times(_segs([(1, 1)]), buffers=0)


class TestSegmentedModel:
    def _segmented(self, boundaries=None):
        model = build_model("ds-cnn")
        platform = get_platform("f746-qspi")
        bounds = boundaries or [(0, 4), (4, 9), (9, model.num_layers)]
        return SegmentedModel(
            model=model, platform=platform, quant=INT8,
            boundaries=tuple(bounds), buffers=2,
        )

    def test_segments_cover_model(self):
        seg = self._segmented()
        segments = seg.segments()
        assert len(segments) == 3
        total_load_bytes = sum(s.load_bytes for s in segments)
        assert total_load_bytes == seg.model.total_param_bytes(INT8)

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError):
            self._segmented([(0, 4), (5, 13)])  # gap
        with pytest.raises(ValueError):
            self._segmented([(0, 4), (4, 4), (4, 13)])  # empty
        with pytest.raises(ValueError):
            self._segmented([(0, 5)])  # does not cover

    def test_sram_need(self):
        seg = self._segmented()
        expected = 2 * seg.max_segment_weight_bytes + seg.model.peak_activation_bytes(INT8)
        assert seg.sram_need_bytes() == expected

    def test_to_task_roundtrip(self):
        seg = self._segmented()
        task = seg.to_task(period=1_000_000, priority=3, name="kws")
        assert task.name == "kws"
        assert task.num_segments == seg.num_segments
        assert task.deadline == task.period
        assert task.priority == 3
        assert task.total_load > 0

    def test_isolated_latency_consistent_with_free_function(self):
        seg = self._segmented()
        assert seg.isolated_latency() == isolated_latency(seg.segments(), 2)

    def test_latencies_ordering(self):
        seg = self._segmented()
        assert seg.isolated_latency() <= seg.sequential_latency()
