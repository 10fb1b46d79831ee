"""Bit-identity of the segmentation planner against a frozen oracle.

The oracle below is a frozen copy of the planner's earlier quadratic
algorithms: an unbracketed binary search and list-scan padding in the
min-max partition, and hill climbing that evaluates every candidate
shift's full latency, driven by the same search loop.  The planner in
``repro.core.segmentation`` brackets the search and tightens the
bracket after every probe, pads with a heap and rejects shifts by
dominance; both must return the same boundaries or the same
``SegmentationError`` text.  ``_Planner``'s set-up (costs,
caps, unit costs, feasibility and its own errors) is shared.
"""

from __future__ import annotations

import itertools
import random
from itertools import accumulate
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import segcache
from repro.core.segmentation import (
    LayerCosts,
    SegmentationError,
    _Planner,
    coarsest_feasible_segments,
    min_max_weight_partition,
    search_segmentation,
)
from repro.dnn.models import refine_model
from repro.dnn.quantization import INT8
from repro.dnn.zoo import build_model, list_models
from repro.hw.presets import get_platform

Boundaries = List[Tuple[int, int]]
_SCALE = 1_000_000


# ----------------------------------------------------------------------
# Frozen oracle
# ----------------------------------------------------------------------
def _oracle_parts_needed(weights: Sequence[int], cap: int) -> Optional[int]:
    parts = 1
    current = 0
    for weight in weights:
        if weight > cap:
            return None
        if current + weight > cap:
            parts += 1
            current = weight
        else:
            current += weight
    return parts


def oracle_partition(weights: Sequence[int], k: int) -> Boundaries:
    n = len(weights)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    lo, hi = max(weights), sum(weights)
    while lo < hi:
        mid = (lo + hi) // 2
        needed = _oracle_parts_needed(weights, mid)
        if needed is not None and needed <= k:
            hi = mid
        else:
            lo = mid + 1
    boundaries: Boundaries = []
    start = 0
    current = 0
    for i, weight in enumerate(weights):
        if current + weight > lo and current > 0:
            boundaries.append((start, i))
            start, current = i, weight
        else:
            current += weight
    boundaries.append((start, n))
    while len(boundaries) < k:
        idx = max(range(len(boundaries)), key=lambda i: boundaries[i][1] - boundaries[i][0])
        s, e = boundaries[idx]
        if e - s == 1:
            raise AssertionError("cannot split further")
        mid = (s + e) // 2
        boundaries[idx: idx + 1] = [(s, mid), (mid, e)]
        boundaries.sort()
    return boundaries


def _oracle_state(planner: _Planner, boundaries: Boundaries) -> Tuple[List[int], List[int]]:
    load_cache = planner._load_cache
    load_cycles = planner.platform.load_cycles
    prefix_w = planner.prefix_w
    prefix_c = planner.prefix_c
    b = planner.buffers
    f_load: List[int] = []
    f_comp: List[int] = []
    prev_load = 0
    prev_comp = 0
    for j, (s, e) in enumerate(boundaries):
        w = prefix_w[e] - prefix_w[s]
        cycles = load_cache.get(w)
        if cycles is None:
            cycles = load_cycles(w)
            load_cache[w] = cycles
        freed = f_comp[j - b] if j >= b else 0
        if freed > prev_load:
            prev_load = freed + cycles
        else:
            prev_load += cycles
        f_load.append(prev_load)
        comp = prefix_c[e] - prefix_c[s]
        if prev_load > prev_comp:
            prev_comp = prev_load + comp
        else:
            prev_comp += comp
        f_comp.append(prev_comp)
    return f_load, f_comp


def _oracle_suffix(
    planner: _Planner,
    boundaries: Boundaries,
    start: int,
    f_comp_prefix: List[int],
    f_load_state: List[int],
) -> Tuple[int, List[int]]:
    load_cache = planner._load_cache
    load_cycles = planner.platform.load_cycles
    prefix_w = planner.prefix_w
    prefix_c = planner.prefix_c
    b = planner.buffers
    f_comp = f_comp_prefix[:start]
    append = f_comp.append
    prev_comp = f_comp[start - 1] if start else 0
    prev_load = f_load_state[start - 1] if start else 0
    for j in range(start, len(boundaries)):
        s, e = boundaries[j]
        w = prefix_w[e] - prefix_w[s]
        cycles = load_cache.get(w)
        if cycles is None:
            cycles = load_cycles(w)
            load_cache[w] = cycles
        freed = f_comp[j - b] if j >= b else 0
        if freed > prev_load:
            prev_load = freed + cycles
        else:
            prev_load += cycles
        comp = prefix_c[e] - prefix_c[s]
        if prev_load > prev_comp:
            prev_comp = prev_load + comp
        else:
            prev_comp += comp
        append(prev_comp)
    return prev_comp, f_comp


def oracle_hill_climb(planner: _Planner, boundaries: Boundaries, max_passes: int = 4) -> Boundaries:
    best = list(boundaries)
    f_load_state, f_comp_state = _oracle_state(planner, best)
    best_latency = f_comp_state[-1] if f_comp_state else 0
    slot_cap = planner.slot_cap
    cap = planner.compute_cap
    prefix_w = planner.prefix_w
    prefix_c = planner.prefix_c
    for _ in range(max_passes):
        improved = False
        for i in range(len(best) - 1):
            for delta in (-1, 1):
                cut = best[i][1] + delta
                if not best[i][0] < cut < best[i + 1][1]:
                    continue
                s0, e1 = best[i][0], best[i + 1][1]
                if (
                    prefix_w[cut] - prefix_w[s0] > slot_cap
                    or prefix_w[e1] - prefix_w[cut] > slot_cap
                ):
                    continue
                if cap is not None and (
                    prefix_c[cut] - prefix_c[s0] > cap
                    or prefix_c[e1] - prefix_c[cut] > cap
                ):
                    continue
                candidate = list(best)
                candidate[i] = (s0, cut)
                candidate[i + 1] = (cut, e1)
                latency, f_comp = _oracle_suffix(
                    planner, candidate, i, f_comp_state, f_load_state
                )
                if latency < best_latency:
                    best, best_latency = candidate, latency
                    f_load_state, f_comp_state = _oracle_state(planner, best)
                    improved = True
        if not improved:
            break
    return best


def _oracle_counts(k_min: int, k_max: int, max_candidates: int = 10) -> List[int]:
    if k_min >= k_max:
        return [k_min]
    counts = []
    value = float(k_min)
    ratio = (k_max / k_min) ** (1.0 / max(1, max_candidates - 1))
    for _ in range(max_candidates):
        counts.append(int(round(value)))
        value *= ratio
    counts.append(k_max)
    return [c for c in counts if k_min <= c <= k_max]


def oracle_search(model, platform, sram_budget, buffers, max_segment_compute) -> Boundaries:
    planner = _Planner(model, platform, sram_budget, INT8, buffers, max_segment_compute)
    costs = planner.unit_costs()
    k = _oracle_parts_needed(costs, _SCALE)
    n = model.num_layers
    boundaries = oracle_partition(costs, k)
    while not planner.feasible(boundaries) and k < n:
        k += 1
        boundaries = oracle_partition(costs, k)
    if not planner.feasible(boundaries):
        raise SegmentationError(
            f"no feasible segmentation for {model.name!r} within {sram_budget} B"
        )
    counts = sorted({k, n} | set(_oracle_counts(k, n)))
    candidates = []
    for count in counts:
        boundaries = oracle_partition(costs, count)
        if not planner.feasible(boundaries):
            continue
        boundaries = oracle_hill_climb(planner, boundaries)
        candidates.append(
            (
                _oracle_state(planner, boundaries)[1][-1],
                planner.max_compute_section(boundaries),
                boundaries,
            )
        )
    best_latency = min(latency for latency, _, _ in candidates)
    threshold = best_latency * 1.02
    eligible = [c for c in candidates if c[0] <= threshold]
    eligible.sort(key=lambda c: (c[1], c[0]))
    return eligible[0][2]


def _outcome(fn):
    try:
        return ("ok", list(fn()))
    except SegmentationError as exc:
        return ("err", str(exc))


# ----------------------------------------------------------------------
# Partition identity (hypothesis)
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=40).filter(lambda w: max(w) > 0)
    | st.lists(st.sampled_from([0, 0, 0, 1, 7, 1000]), min_size=1, max_size=40).filter(
        lambda w: max(w) > 0
    )
)
@settings(max_examples=150, deadline=None)
def test_partition_matches_oracle_at_every_k(weights):
    for k in range(1, len(weights) + 1):
        assert min_max_weight_partition(weights, k) == oracle_partition(weights, k)


def _runs_of_costs():
    # Refined models repeat one cost over a split layer's slices, so the
    # costs come in runs of equal values.
    run = st.tuples(st.one_of(st.just(0), st.integers(0, 1_000_000)), st.integers(1, 8))
    return st.lists(run, min_size=1, max_size=12).map(
        lambda runs: [cost for cost, length in runs for _ in range(length)]
    ).filter(lambda w: max(w) > 0)


@given(
    st.lists(st.one_of(st.just(0), st.integers(0, 1_000_000)), min_size=1, max_size=48)
    .filter(lambda w: max(w) > 0)
    | _runs_of_costs()
)
@settings(max_examples=200, deadline=None)
def test_partition_matches_oracle_in_sweep_regime(weights):
    # The search's unit costs run up to _SCALE with zeros mixed in, and
    # its segment counts sit in the upper half of the layer count.
    n = len(weights)
    for k in range((n + 1) // 2, n + 1):
        assert min_max_weight_partition(weights, k) == oracle_partition(weights, k)


def test_partition_matches_oracle_on_long_padding_run():
    # Zero-heavy costs under a low bottleneck: the padding step splits
    # hundreds of times, exercising the heap's tie-breaking.
    rng = random.Random(3)
    weights = [rng.choice([0, 0, 0, 1, 2, 5000]) for _ in range(600)]
    for k in (1, 2, 17, 150, 333, 599, 600):
        assert min_max_weight_partition(weights, k) == oracle_partition(weights, k)


# ----------------------------------------------------------------------
# Hill climbing on random mixed chains (hypothesis)
# ----------------------------------------------------------------------
#: ``(weight bytes, compute cycles)`` ranges per layer kind: staged
#: loads far shorter than the compute, far longer, and parameter-free.
_LAYER_KINDS = (
    (st.integers(1, 2_000), st.integers(20_000, 200_000)),
    (st.integers(10_000, 60_000), st.integers(1_000, 30_000)),
    (st.just(0), st.integers(500, 20_000)),
)


@st.composite
def _mixed_chains(draw):
    """A chain of mixed layers, a planner over it and a feasible start."""
    layers = draw(st.lists(
        st.sampled_from(_LAYER_KINDS).flatmap(lambda kind: st.tuples(*kind)),
        min_size=2, max_size=24,
    ))
    weights = tuple(w for w, _ in layers)
    computes = tuple(c for _, c in layers)
    assume(max(weights) > 0)
    buffers = draw(st.integers(1, 3))
    slot = draw(st.integers(max(weights), sum(weights)))
    cap = draw(st.one_of(st.none(), st.integers(max(computes), sum(computes))))
    costs = LayerCosts(
        weights=weights, computes=computes,
        prefix_w=tuple(accumulate(weights, initial=0)),
        prefix_c=tuple(accumulate(computes, initial=0)),
        max_weight=max(weights), max_compute=max(computes), activation_bytes=0,
    )
    planner = _Planner(
        SimpleNamespace(name="chain", num_layers=len(layers)),
        get_platform("f746-qspi"), buffers * slot, INT8, buffers, cap, costs,
    )
    cuts = sorted(draw(st.sets(st.integers(1, len(layers) - 1))))
    edges = [0, *cuts, len(layers)]
    boundaries = list(zip(edges, edges[1:]))
    assume(planner.feasible(boundaries))
    return planner, boundaries


def _latency(planner: _Planner, boundaries: Boundaries) -> int:
    return _oracle_state(planner, boundaries)[1][-1]


@given(_mixed_chains())
@settings(max_examples=400, deadline=None)
def test_hill_climb_matches_oracle_on_mixed_chains(case):
    planner, start = case
    got, latency = planner.hill_climb(start)
    assert got == oracle_hill_climb(planner, start)
    assert latency == _latency(planner, got)
    assert latency >= planner.latency_floor
    n = len(planner.weights)
    if n <= 9:
        # The floor bounds every partition, feasible or not.
        for mask in range(1 << (n - 1)):
            edges = [0, *(k + 1 for k in range(n - 1) if mask >> k & 1), n]
            partition = list(zip(edges, edges[1:]))
            assert planner.latency_floor <= _latency(planner, partition)


# ----------------------------------------------------------------------
# Search identity over a zoo grid
# ----------------------------------------------------------------------
PLATFORMS = ("f746-qspi", "h743-octal", "l4r5-spi")
CHUNKS = (4096, 16384, 65536)
MAC_CAPS = (0, 250_000)
FRACTIONS = (0.03, 0.1, 0.3, 1.2)
COMPUTE_CAPS = (None, 400_000, 3_000_000)
BUFFERS = (1, 2, 3)

GRID = list(
    itertools.product(
        list_models(), CHUNKS, MAC_CAPS, PLATFORMS, FRACTIONS, COMPUTE_CAPS, BUFFERS
    )
)
# Deterministic subsample, plus deep chains pinned explicitly: at a
# 4000-MAC slice cap mobilenet-v1-0.25 refines to 730 layers and
# mcunet-vww to 1663.
PINNED = [
    ("mobilenet-v1-0.25", 4096, 4000, "f746-qspi", 0.03, 24_000, 2),
    ("mobilenet-v1-0.25", 4096, 4000, "h743-octal", 0.1, None, 3),
    ("mcunet-vww", 2048, 4000, "f746-qspi", 0.1, 24_000, 1),
]
CASES = random.Random(20240617).sample(GRID, 200) + PINNED

_REFINED = {}


def _refined(name, chunk, macs):
    key = (name, chunk, macs)
    if key not in _REFINED:
        _REFINED[key] = refine_model(build_model(name), INT8, chunk, macs)
    return _REFINED[key]


def _budget(model, fraction, buffers):
    slot = int(fraction * model.total_param_bytes(INT8))
    return model.peak_activation_bytes(INT8) + buffers * slot


def test_pinned_case_is_deep():
    assert _refined(*PINNED[0][:3]).num_layers >= 700


@pytest.mark.parametrize(
    "name,chunk,macs,platform_key,fraction,cap,buffers",
    CASES,
    ids=str,
)
def test_search_matches_oracle(name, chunk, macs, platform_key, fraction, cap, buffers):
    model = _refined(name, chunk, macs)
    platform = get_platform(platform_key)
    budget = _budget(model, fraction, buffers)
    got = _outcome(
        lambda: search_segmentation(
            model, platform, budget, INT8, buffers=buffers, max_segment_compute=cap
        ).boundaries
    )
    want = _outcome(lambda: oracle_search(model, platform, budget, buffers, cap))
    assert got == want


# ----------------------------------------------------------------------
# buffers < 1 is a typed argument error on every entry point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("buffers", [0, -1])
@pytest.mark.parametrize(
    "entry",
    [search_segmentation, coarsest_feasible_segments, segcache.cached_search_segmentation],
    ids=lambda fn: fn.__name__,
)
def test_nonpositive_buffers_raise_value_error(entry, buffers):
    model = build_model("lenet5")
    with pytest.raises(ValueError, match="buffers must be >= 1"):
        entry(model, get_platform("f746-qspi"), 512 * 1024, INT8, buffers=buffers)
