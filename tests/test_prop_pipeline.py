"""Property-based tests (hypothesis) for the pipeline recurrence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import (
    isolated_latency,
    pipeline_finish_times,
    pipelined_latency,
    sequential_latency,
)
from repro.sched.task import Segment

segments_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 500)),
    min_size=1,
    max_size=12,
).map(lambda pairs: [Segment(f"s{i}", l, c) for i, (l, c) in enumerate(pairs)])

buffers_strategy = st.integers(1, 5)


@given(segments_strategy, buffers_strategy)
def test_latency_bounded_by_sequential_and_resources(segs, buffers):
    latency = isolated_latency(segs, buffers)
    total_l = sum(s.load_cycles for s in segs)
    total_c = sum(s.compute_cycles for s in segs)
    assert max(total_l, total_c) <= latency <= sequential_latency(segs)


@given(segments_strategy, buffers_strategy)
def test_more_buffers_never_hurt(segs, buffers):
    assert isolated_latency(segs, buffers + 1) <= isolated_latency(segs, buffers)


@given(segments_strategy)
def test_single_buffer_is_fully_serial(segs):
    assert isolated_latency(segs, 1) == sequential_latency(segs)


@given(segments_strategy, buffers_strategy)
def test_finish_times_are_causal(segs, buffers):
    finish = pipeline_finish_times(segs, buffers)
    prev_load = prev_comp = 0
    for (load_f, comp_f), seg in zip(finish, segs):
        assert load_f >= prev_load + seg.load_cycles
        assert comp_f >= max(prev_comp, load_f) + seg.compute_cycles - 1 + 1
        prev_load, prev_comp = load_f, comp_f


@given(segments_strategy, buffers_strategy, st.integers(1, 400))
def test_scaling_all_durations_scales_latency(segs, buffers, factor):
    scaled = [
        Segment(s.name, s.load_cycles * factor, s.compute_cycles * factor)
        for s in segs
    ]
    assert isolated_latency(scaled, buffers) == factor * isolated_latency(segs, buffers)


@given(segments_strategy, buffers_strategy)
@settings(max_examples=50)
def test_full_buffering_matches_infinite(segs, buffers):
    """Buffer depth >= segment count behaves like unlimited buffers."""
    m = len(segs)
    assert isolated_latency(segs, m) == isolated_latency(segs, m + 3)


# Loads are zero about half the time: flash-resident and XIP-style
# segments have no DMA leg, and runs of them exercise the max() terms.
_load_or_zero = st.one_of(st.just(0), st.integers(0, 500))


@given(
    st.lists(st.tuples(_load_or_zero, st.integers(1, 500)), min_size=1, max_size=24),
    st.integers(1, 4),
    st.booleans(),
)
def test_latency_forms_agree(pairs, buffers, as_tuple):
    """The three forms of the recurrence's ``f_comp(m)`` are one value:
    every analysis reads ``isolated_latency``, the finish-time list is
    the reference, and the margin probes read ``pipelined_latency``."""
    segs = [Segment(f"s{i}", l, c) for i, (l, c) in enumerate(pairs)]
    if as_tuple:
        segs = tuple(segs)
    expected = pipeline_finish_times(segs, buffers)[-1][1]
    assert isolated_latency(segs, buffers) == expected
    loads = [s.load_cycles for s in segs]
    computes = [s.compute_cycles for s in segs]
    assert pipelined_latency(loads, computes, buffers) == expected
