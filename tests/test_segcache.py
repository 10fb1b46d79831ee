"""Plan-cache unit tests: keying, canonicalization, eviction, counters.

The cache (:mod:`repro.core.segcache`) is only sound if (a) every input
that can change a planning result is part of the key, (b) inputs that
*cannot* change the result (a platform differing only in SRAM size, an
over-large budget) collapse onto one entry, and (c) quantization of the
continuous knobs is applied identically whether the cache is cold or
warm.  These tests pin each property.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Mapping
from typing import NamedTuple

import pytest

from repro import obs
from repro.core import segcache
from repro.core.segcache import (
    PlanCache,
    cached_analyze,
    cached_build_model,
    cached_refine_model,
    cached_search_segmentation,
    planner_platform_fingerprint,
    pow2_floor,
    quarter_pow2_floor,
)
from repro.core.planstore import canonical_key
from repro.core.placement import resident_segmentation
from repro.core.segmentation import SegmentationError, search_segmentation
from repro.core.buffers import BUFFER_ALIGN
from repro.dnn.layers import Dense, PartialLayer
from repro.dnn.models import Model, refine_model
from repro.dnn.quantization import FLOAT32, INT8
from repro.dnn.zoo import build_model, list_models
from repro.eval.experiments import run_experiment
from repro.eval.systems import admit_batch
from repro.hw.presets import PLATFORMS, get_platform
from repro.online.admission import plan_segments
from repro.workload.taskset import generate_case

from conftest import random_taskset
import gc
import random
import weakref


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts cold and leaves no state behind.

    Yields a counter snapshot taken at the start: counters are monotone,
    so a test reads its own traffic as a delta from it.
    """
    segcache.clear_all()
    yield segcache.snapshot()
    segcache.clear_all()


@pytest.fixture
def model():
    return build_model("mobilenet-v1-0.25")


@pytest.fixture
def platform():
    return get_platform("f746-qspi")


# ----------------------------------------------------------------------
# Quantization ladders
# ----------------------------------------------------------------------


def test_pow2_floor_ladder():
    assert pow2_floor(1) == 1
    assert pow2_floor(2) == 2
    assert pow2_floor(3) == 2
    assert pow2_floor(4096) == 4096
    assert pow2_floor(8191) == 4096
    for v in range(1, 5000, 37):
        q = pow2_floor(v)
        assert q <= v < 2 * q  # floor, never losing more than half


def test_quarter_pow2_floor_ladder():
    # {1, 1.25, 1.5, 1.75} x 2^p: floor loses strictly less than 20%.
    for v in range(4, 200_000, 517):
        q = quarter_pow2_floor(v)
        assert q <= v
        assert q > 0.8 * v
        # q really is on the quarter ladder: base*(4+k)/4 for k in 0..3
        base = pow2_floor(q)
        assert (q - base) % (base // 4 or 1) == 0
    # tiny values pass through unchanged
    for v in (0, 1, 2, 3):
        assert quarter_pow2_floor(v) == v


def test_quarter_ladder_is_monotone():
    prev = 0
    for v in range(4, 10_000):
        q = quarter_pow2_floor(v)
        assert q >= prev
        prev = q


# ----------------------------------------------------------------------
# PlanCache mechanics
# ----------------------------------------------------------------------


def test_plancache_bounded_lru_eviction():
    cache = PlanCache("t", maxsize=4)
    for i in range(10):
        cache.put(i, i * i)
    assert len(cache) == 4
    # Oldest entries are gone, newest survive.
    assert cache.get(5)[0] is False
    assert cache.get(9) == (True, 81)
    # A get refreshes recency: 6 survives the next insertion, 7 does not.
    cache.get(6)
    cache.put(100, 0)
    assert cache.get(6)[0] is True
    assert cache.get(7)[0] is False


def test_plancache_counters_accurate():
    cache = PlanCache("t", maxsize=64)
    for i in range(8):
        cache.put(i, i)
    hits = misses = 0
    for i in range(12):  # 8 hits, 4 misses
        found, _ = cache.get(i)
        hits += bool(found)
        misses += not found
    assert (cache.hits, cache.misses) == (hits, misses) == (8, 4)


#: The snapshot layout: benchmark harnesses and CI read these tuples by
#: position, so keys, their order and each tuple's width are a contract.
SNAPSHOT_WIDTHS = {
    "zoo": 2,
    "refine": 2,
    "search": 2,
    "analysis": 2,
    "sim.fold": 4,
    "sim.soa": 3,
    "rta.fixpoint": 6,
    "planstore": 5,
    "fleet.resilience": 4,
}


def test_delta_and_absorb_roundtrip(model, platform):
    before = segcache.snapshot()
    assert list(before) == list(SNAPSHOT_WIDTHS)
    assert {name: len(values) for name, values in before.items()} == SNAPSHOT_WIDTHS
    cached_search_segmentation(model, platform, platform.usable_sram_bytes, INT8)
    delta = segcache.delta_since(before)
    assert delta["search"] == (0, 1)
    # Absorbing a worker's delta shifts the global counters by exactly it.
    segcache.absorb(delta)
    after = segcache.delta_since(before)
    assert after["search"] == (0, 2)
    merged = obs.merge([delta, delta])
    assert merged["search"] == (0, 2)
    for snap in (delta, after, merged):
        assert {name: len(values) for name, values in snap.items()} == SNAPSHOT_WIDTHS


def _bench_delta(exp_id, **kwargs):
    """An experiment's counter delta, snapshotted around it the way the
    benchmark harness records ``plan_cache``."""
    before = segcache.snapshot()
    run_experiment(exp_id, jobs=1, **kwargs)
    return segcache.delta_since(before)


def test_back_to_back_experiment_deltas_are_exact():
    """Clearing the caches between experiments must not rewind counters:
    the second experiment's delta is non-negative and equals its delta
    when it runs alone."""
    f5 = dict(n_sets=2, sram_kib=(96, 256))
    run_experiment("EXP-F4", jobs=1, n_sets=2, utils=(0.4, 0.8))
    second = _bench_delta("EXP-F5", **f5)
    assert all(v >= 0 for values in second.values() for v in values), second
    assert second["search"][1] > 0
    segcache.clear_all()
    assert _bench_delta("EXP-F5", **f5) == second


def test_clear_all_releases_refined_models(platform):
    """No memo (fingerprints, XIP columns) pins a refined model past
    :func:`segcache.clear_all`."""
    case = generate_case(platform, 0.5, random.Random(3))
    assert case.feasible
    admit_batch([case])
    ref = weakref.ref(next(iter(case.refined.values())))
    del case
    segcache.clear_all()
    gc.collect()
    assert ref() is None


def test_refinements_share_slices_until_clear_all(model):
    """Equal splits of one source layer are one object (the fingerprint
    memo meets each slice once); :func:`segcache.clear_all` drops the
    sharing and every pinned layer."""
    first = refine_model(model, INT8, 2048)
    second = refine_model(model, INT8, 2048)
    assert first.num_layers > model.num_layers
    assert all(a is b for a, b in zip(first.layers, second.layers))
    segcache._model_fingerprint(first)
    slice_ref = weakref.ref(next(x for x in first.layers if "#" in x.name))
    segcache.clear_all()
    third = refine_model(model, INT8, 2048)
    assert third == first
    assert not any(a is b for a, b in zip(first.layers, third.layers) if "#" in a.name)
    del first, second, third, model
    gc.collect()
    assert slice_ref() is None


def _reference_freeze(obj):
    """:func:`segcache.freeze` without its fast paths."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.name)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _reference_freeze(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, Mapping):
        return ("map", tuple(sorted(
            (_reference_freeze(k), _reference_freeze(v)) for k, v in obj.items()
        )))
    if isinstance(obj, (list, tuple)):
        return tuple(_reference_freeze(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(_reference_freeze(item) for item in obj)))
    raise TypeError(type(obj).__name__)


class _Level(enum.IntEnum):
    HIGH = 1


class _Pair(NamedTuple):
    a: int
    b: float


def test_freeze_fast_paths_match_general_checks(platform):
    objects = [
        None, True, 1, 1.0, 0.0, -0.0, "x", b"x", (True, 1, -0.0), [1, (2, [3])],
        _Level.HIGH, _Pair(1, -0.0), {"b": 1, "a": (True,)}, frozenset({2, 1}),
        platform, INT8, build_model("resnet8"),
        refine_model(build_model("ds-cnn"), INT8, 2048, 4000),
    ]
    for obj in objects:
        assert repr(segcache.freeze(obj)) == repr(_reference_freeze(obj))


def test_model_fingerprint_tells_bool_from_int():
    """Models equal under ``==`` but frozen apart (``True`` vs ``1``)
    never share a fingerprint, whichever is fingerprinted first."""
    as_int = Model("m", (Dense("d", (4,), out_features=1),))
    as_bool = Model("m", (Dense("d", (4,), out_features=True),))
    assert as_int == as_bool
    keys = [canonical_key(segcache._model_fingerprint(m)) for m in (as_int, as_bool)]
    assert keys == [canonical_key(segcache.freeze(m)) for m in (as_int, as_bool)]
    assert keys[0] != keys[1]


def test_freeze_equals_recursion_on_zoo_layers_and_presets():
    """The dataclass-field fast path (an exact scalar or a flat tuple of
    them is kept as is) freezes every zoo layer, ``PartialLayer`` slices
    included, and every preset platform exactly as the recursion does."""
    slices = 0
    for name in list_models():
        base = build_model(name)
        for m in (base, refine_model(base, INT8, 2048, 4000)):
            for layer in m.layers:
                slices += isinstance(layer, PartialLayer)
                assert repr(segcache.freeze(layer)) == repr(_reference_freeze(layer))
    assert slices > 0
    for p in PLATFORMS.values():
        assert repr(segcache.freeze(p)) == repr(_reference_freeze(p))


def test_model_costs_key_is_the_compute_fingerprint(model):
    """:func:`segcache.model_costs` keys on the memoized platform
    fingerprint's compute half, which must equal the
    ``_compute_fingerprint`` form it replaces."""
    variants = (*PLATFORMS.values(), PLATFORMS["f746-qspi"].with_sram_bytes(96 * 1024))
    for p in variants:
        assert segcache._platform_fingerprint(p)[0] == segcache._compute_fingerprint(p)
        costs = segcache.model_costs(model, p, INT8)
        key = (
            segcache._model_fingerprint(model),
            segcache._compute_fingerprint(p),
            segcache._quant_fingerprint(INT8),
        )
        found, value = segcache._costs_memo.get(key)
        assert found and value is costs


def test_cache_note_formats_rates():
    note = segcache.cache_note({"refine": (3, 1), "search": (5, 1), "analysis": (0, 2)})
    assert "segmentation 8/10 hits (80.0%)" in note
    assert "analysis 0/2 hits (0.0%)" in note


# ----------------------------------------------------------------------
# Segmentation-search keying
# ----------------------------------------------------------------------


def _search_counts(before):
    return segcache.delta_since(before)["search"]


def test_search_repeat_is_hit(model, platform, fresh_caches):
    budget = platform.usable_sram_bytes
    first = cached_search_segmentation(model, platform, budget, INT8)
    second = cached_search_segmentation(model, platform, budget, INT8)
    assert _search_counts(fresh_caches) == (1, 1)
    assert first.boundaries == second.boundaries


def test_search_key_includes_sram_budget(model, platform, fresh_caches):
    budget = platform.usable_sram_bytes
    cached_search_segmentation(model, platform, budget, INT8)
    # 3/4 the budget lands on a different slot-quantum: a distinct plan.
    cached_search_segmentation(model, platform, budget * 3 // 4, INT8)
    assert _search_counts(fresh_caches) == (0, 2)


def test_search_key_includes_quant(model, platform, fresh_caches):
    budget = platform.usable_sram_bytes
    cached_search_segmentation(model, platform, budget, INT8)
    with pytest.raises(SegmentationError):
        # float32 weights do not fit — and must not reuse the int8 entry
        cached_search_segmentation(model, platform, budget, FLOAT32)
    hits, misses = _search_counts(fresh_caches)
    assert hits == 0 and misses == 2


def test_search_key_includes_platform_timing(model, fresh_caches):
    p1 = get_platform("f746-qspi")
    p2 = get_platform("h743-octal")
    budget = min(p1.usable_sram_bytes, p2.usable_sram_bytes)
    cached_search_segmentation(model, p1, budget, INT8)
    cached_search_segmentation(model, p2, budget, INT8)
    assert _search_counts(fresh_caches) == (0, 2)


def test_search_key_includes_buffers(model, platform, fresh_caches):
    budget = platform.usable_sram_bytes
    cached_search_segmentation(model, platform, budget, INT8, buffers=2)
    cached_search_segmentation(model, platform, budget, INT8, buffers=3)
    assert _search_counts(fresh_caches) == (0, 2)


def test_sram_only_platform_change_is_a_hit(model, platform, fresh_caches):
    """The planner never reads ``platform.sram``: SRAM sweeps share entries."""
    other = platform.with_sram_bytes(platform.mcu.sram_bytes * 2)
    assert planner_platform_fingerprint(platform) == planner_platform_fingerprint(other)
    budget = platform.usable_sram_bytes
    first = cached_search_segmentation(model, platform, budget, INT8)
    second = cached_search_segmentation(model, other, budget, INT8)
    assert _search_counts(fresh_caches) == (1, 1)
    assert second.boundaries == first.boundaries
    # The re-materialized plan carries the *caller's* platform object.
    assert second.platform is other


def test_negative_result_is_cached(model, platform, fresh_caches):
    tiny = 4096  # far below the largest single layer
    with pytest.raises(SegmentationError):
        cached_search_segmentation(model, platform, tiny, INT8)
    with pytest.raises(SegmentationError) as excinfo:
        cached_search_segmentation(model, platform, tiny, INT8)
    assert _search_counts(fresh_caches) == (1, 1)
    assert "cannot fit" in str(excinfo.value)


def test_saturated_budgets_share_one_entry(model, platform, fresh_caches):
    """Any budget >= total weights admits every partition: one entry."""
    total_w = sum(layer.param_bytes(INT8) for layer in model.layers)
    act = model.peak_activation_bytes(INT8)
    big = total_w * 2 + act
    bigger = total_w * 16 + act
    a = cached_search_segmentation(model, platform, big, INT8)
    b = cached_search_segmentation(model, platform, bigger, INT8)
    assert _search_counts(fresh_caches) == (1, 1)
    assert a.boundaries == b.boundaries


def test_search_matches_uncached_at_quantized_budget(model, platform):
    """Hits reproduce exactly what the raw planner returns for the
    canonicalized budget — the substitution the sweeps rely on."""
    budget = platform.usable_sram_bytes
    via_cache = cached_search_segmentation(model, platform, budget, INT8)
    act = model.peak_activation_bytes(INT8)
    max_w = max(layer.param_bytes(INT8) for layer in model.layers)
    slot_q = max(quarter_pow2_floor((budget - act) // 2), max_w)
    raw = search_segmentation(model, platform, slot_q * 2 + act, quant=INT8)
    assert via_cache.boundaries == raw.boundaries


def test_warm_hit_same_results_as_cold_miss(model, platform, fresh_caches):
    budget = platform.usable_sram_bytes
    cold = cached_search_segmentation(model, platform, budget, INT8)
    warm = cached_search_segmentation(model, platform, budget, INT8)
    assert _search_counts(fresh_caches) == (1, 1)
    assert warm is not cold
    assert warm.boundaries == cold.boundaries
    assert warm.segments() == cold.segments()


# ----------------------------------------------------------------------
# Refinement and analysis caches
# ----------------------------------------------------------------------


def test_refine_matches_uncached_at_quantized_knobs(model):
    chunk, macs = 23_456, 111_111
    cached = cached_refine_model(model, INT8, chunk, macs)
    raw = refine_model(model, INT8, pow2_floor(chunk), pow2_floor(macs))
    assert [l.name for l in cached.layers] == [l.name for l in raw.layers]
    assert [l.param_bytes(INT8) for l in cached.layers] == [
        l.param_bytes(INT8) for l in raw.layers
    ]


def test_refine_equivalent_knobs_share_entry(model, fresh_caches):
    """Chunk sizes inducing the same per-layer split counts share a key."""
    a = cached_refine_model(model, INT8, 1 << 15)
    b = cached_refine_model(model, INT8, 1 << 15)
    assert a is b  # identical object straight from the cache
    assert segcache.delta_since(fresh_caches)["refine"][0] == 1


def test_zoo_cache_returns_same_object(fresh_caches):
    a = cached_build_model("resnet8")
    b = cached_build_model("resnet8")
    assert a is b
    assert segcache.delta_since(fresh_caches)["zoo"][0] == 1


def test_analysis_cache_keys_on_taskset_and_method(fresh_caches):
    def counts():
        return segcache.delta_since(fresh_caches)["analysis"]

    ts = random_taskset(random.Random(7), n_tasks=3)
    r1 = cached_analyze(ts, "rtmdm")
    r2 = cached_analyze(ts, "rtmdm")
    assert r2 is r1
    assert counts() == (1, 1)
    cached_analyze(ts, "oblivious")
    assert counts() == (1, 2)
    # A structurally different set misses.
    cached_analyze(random_taskset(random.Random(8), n_tasks=3), "rtmdm")
    assert counts() == (1, 3)


def test_lru_bound():
    cache = segcache.PlanCache("t", maxsize=2)
    for key in range(5):
        cache.put(key, key)
    cache.get(3)  # refreshes 3: inserting 5 evicts 4, the LRU entry
    cache.put(5, 5)
    assert len(cache) == 2
    assert cache.get(3) == (True, 3) and cache.get(4) == (False, None)


#: Deadline (cycles) for the online planner's cost identity below.
PLAN_DEADLINE = 20_000_000


def _layer_walk_sram_need(seg) -> int:
    """The layer-walking form of ``SegmentedModel.sram_need_bytes``: every
    segment's ``param_bytes`` re-summed and the activation liveness
    rescanned."""
    act = seg.model.peak_activation_bytes(seg.quant)
    if seg.resident:
        return act
    return seg.buffers * seg.max_segment_weight_bytes + act


@pytest.mark.parametrize("name", list_models())
def test_sram_need_equals_layer_walk(name, monkeypatch):
    """``sram_need_bytes`` reads the plan's segments and the memoized
    activation bytes; it must equal the layer walk on every plan
    ``plan_segments`` makes (4 budgets, buffer depths 1-3, price =
    need + alignment slack) and on the flash-resident plan."""
    platform = get_platform("h743-octal")  # the largest SRAM: every model plans
    planned = []
    search = segcache.cached_search_segmentation

    def recording(*args, **kwargs):
        planned.append(search(*args, **kwargs))
        return planned[-1]

    monkeypatch.setattr(segcache, "cached_search_segmentation", recording)
    priced = 0
    for fraction in (1, 2, 4, 8):
        budget = platform.usable_sram_bytes // fraction
        for buffers in (1, 2, 3):
            planned.clear()
            try:
                segments, cost = plan_segments(
                    platform, name, PLAN_DEADLINE, budget, INT8, buffers
                )
            except SegmentationError:
                continue  # nothing fits this budget
            (seg,) = planned
            assert not seg.resident
            assert seg.sram_need_bytes() == _layer_walk_sram_need(seg)
            assert cost == seg.sram_need_bytes() + (buffers + 1) * BUFFER_ALIGN
            assert segments == seg.segments()
            priced += 1
    assert priced > 0
    resident = resident_segmentation(build_model(name), platform, INT8)
    assert resident.sram_need_bytes() == _layer_walk_sram_need(resident)
