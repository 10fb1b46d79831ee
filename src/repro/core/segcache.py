"""Bounded memoization for the planning pipeline (the "plan cache").

The evaluation sweeps re-run the exact same expensive planning work over
and over: paired draws evaluate the *same* models at every sweep point,
and the generator's derived knobs (staging chunk size, non-preemptive
compute cap, per-task SRAM budgets) are continuous functions of the sweep
variable, so naive exact-key caching would almost never hit.  This module
therefore does two things:

1. **Canonicalization** — planner inputs are *quantized down* to a coarse
   deterministic ladder before planning (and before key construction), so
   nearby sweep points collapse onto the same key.  Rounding *down* is the
   conservative direction for every knob:

   * a smaller staging chunk / compute cap yields *finer* granularity than
     requested (never a longer non-preemptive section);
   * a smaller staging-slot byte budget uses *less* SRAM than granted.

   Quantization is applied on the cold path too, so a cache hit returns
   bit-identical results to a cache miss by construction.

2. **Bounded LRU caches with hit/miss counters** — one per planning stage
   (zoo model build, granularity refinement, segmentation search,
   schedulability analysis).  The counters live in :mod:`repro.obs` and
   are monotone: :func:`clear_all` drops entries, never counts, so a
   reader diffs a :func:`snapshot` with :func:`delta_since`.

Key soundness notes:

* The segmentation-search key uses a *planner* platform fingerprint that
  deliberately excludes SRAM/flash capacity: segment timing
  (``compute_cycles``/``load_cycles``) depends only on the clock, DSP/FPU
  flags, timing coefficients, external-memory bandwidth/setup and DMA
  programming overhead.  SRAM capacity enters only through the byte
  budget, which is part of the key — so an SRAM sweep
  (``platform.with_sram_bytes``) reuses search results across points.
* The per-model ``LayerCosts`` memo (:func:`model_costs`) keys on the
  *compute* half of the same identity-memoized platform fingerprint
  (``_platform_fingerprint(platform)[0]``, equal to
  ``_compute_fingerprint(platform)``): layer compute cycles read the
  timing coefficients and DSP/FPU flags only, so platforms that differ
  in memory or DMA timing share one cost vector, and a key costs no
  re-freeze of ``platform.timing``.
* Cached values store the **boundaries plus the materialized segment
  tuple** (both fully determined by the key); the ``SegmentedModel``
  itself is rebuilt with the *caller's* platform object on every hit.
* Budgets at or above the model's total weight bytes are equivalent
  (every contiguous partition is byte-feasible), so the slot budget is
  clamped to ``total_param_bytes`` before quantization.  Likewise a
  compute cap at or above the model's total compute never binds and is
  canonicalized to "no cap".
* ``SegmentationError`` outcomes are cached too (negative caching): the
  planner is deterministic, so an infeasible key stays infeasible.

Every cache holds at most :data:`MAXSIZE` entries.
``REPRO_PLAN_STORE=<dir>`` adds the persistent on-disk tier below the
search LRU (see :mod:`repro.core.planstore`).
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro import obs
from repro.core import planstore
from repro.core.analysis import AnalysisResult, analyze
from repro.core.pipeline import SegmentedModel
from repro.core.segmentation import (
    LayerCosts,
    SegmentationError,
    _Planner,
    _search_planned,
    layer_costs,
)
from repro.dnn import layers as _layers
from repro.dnn.models import Model, refine_model
from repro.dnn.quantization import Quantization
from repro.dnn.zoo import build_model
from repro.hw.platform import Platform
from repro.obs import absorb, delta_since, snapshot
from repro.sched.task import TaskSet

__all__ = [
    "PlanCache",
    "absorb",
    "cached_analyze",
    "cached_build_model",
    "cached_refine_model",
    "cached_search_segmentation",
    "cached_xip_segments",
    "cache_note",
    "clear_all",
    "delta_since",
    "freeze",
    "model_costs",
    "planner_platform_fingerprint",
    "pow2_floor",
    "quarter_pow2_floor",
    "snapshot",
    "xip_columns",
]

#: Entry bound of every plan cache and private memo.
MAXSIZE = 4096


# ----------------------------------------------------------------------
# Deterministic deep fingerprints
# ----------------------------------------------------------------------
_SCALARS = (bool, int, float, str, bytes)
_EXACT_SCALARS = frozenset({type(None), *_SCALARS})
#: Dataclass type -> its field names (``dataclasses.fields`` is slow).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def freeze(obj: Any) -> Any:
    """Recursively convert ``obj`` into a hashable, deterministic key part.

    Handles the (frozen) dataclasses used throughout the library even when
    they hold unhashable ``Mapping`` fields (e.g. ``TimingModel``), plus
    enums, sequences and mappings.  The result is stable across processes
    (no reliance on ``id``/``hash`` randomization).
    """
    cls = type(obj)
    # Fast paths for the exact types keys are mostly made of; subclasses
    # (an IntEnum, a NamedTuple) take the general checks below.
    if cls in _EXACT_SCALARS:
        return obj
    if cls is tuple:
        return tuple(map(freeze, obj))
    if isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, enum.Enum):
        return (cls.__name__, obj.name)
    names = _FIELD_NAMES.get(cls)
    if names is None and dataclasses.is_dataclass(cls) and not isinstance(obj, type):
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    if names is not None:
        # A field holding an exact scalar or a flat tuple of them (layer
        # shapes, kernel sizes) is its own frozen form: keep it as is.
        items = []
        for name in names:
            value = getattr(obj, name)
            kind = type(value)
            if kind not in _EXACT_SCALARS and not (
                kind is tuple and _EXACT_SCALARS.issuperset(map(type, value))
            ):
                value = freeze(value)
            items.append((name, value))
        return (cls.__name__, tuple(items))
    if isinstance(obj, Mapping):
        return ("map", tuple(sorted((freeze(k), freeze(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(freeze(item) for item in obj)))
    raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


# ----------------------------------------------------------------------
# Quantization ladders (always round DOWN: conservative direction)
# ----------------------------------------------------------------------
def pow2_floor(value: int) -> int:
    """Largest power of two <= ``value`` (values < 1 pass through)."""
    if value < 1:
        return value
    return 1 << (value.bit_length() - 1)


def quarter_pow2_floor(value: int) -> int:
    """Largest ``{1, 1.25, 1.5, 1.75} * 2**p`` value <= ``value``.

    A finer ladder (max 20% loss) for SRAM byte budgets, where rounding
    down wastes real capacity; the coarse :func:`pow2_floor` ladder is for
    granularity caps, where rounding down merely over-fragments a little.
    """
    if value < 4:
        return value
    base = 1 << (value.bit_length() - 1)
    step = base >> 2
    return base + ((value - base) // step) * step


# ----------------------------------------------------------------------
# Bounded LRU cache with counters
# ----------------------------------------------------------------------
class PlanCache:
    """A bounded LRU map with hit/miss counters (thread-safe).

    A cache named after a :data:`repro.obs.TABLE` group counts into the
    registry; any other (the private memos) keeps its own tally.
    """

    def __init__(self, name: str, maxsize: int = MAXSIZE) -> None:
        self.name = name
        self._maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._counts = (
            obs.live(name) if name in obs.TABLE else {"hits": 0, "misses": 0}
        )

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def hits(self) -> int:
        return self._counts["hits"]

    @property
    def misses(self) -> int:
        return self._counts["misses"]

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any) -> Tuple[bool, Any]:
        """Return ``(found, value)``; a hit refreshes LRU recency."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._counts["misses"] += 1
                return False, None
            self._data.move_to_end(key)
            self._counts["hits"] += 1
            return True, value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry; the counters keep counting."""
        with self._lock:
            self._data.clear()


#: Public caches, by planning stage.  "refine" + "search" together form
#: the *segmentation cache* reported in experiment notes.
CACHES: Dict[str, PlanCache] = {
    "zoo": PlanCache("zoo"),
    "refine": PlanCache("refine"),
    "search": PlanCache("search"),
    "analysis": PlanCache("analysis"),
}

#: Internal per-(model, compute fingerprint, quant) memo of
#: :class:`~repro.core.segmentation.LayerCosts` (not part of the public
#: counters): key canonicalization, the cold search's planner and the
#: workload generator's SRAM split share one set of cost vectors.
_costs_memo = PlanCache("_costs")

#: Internal memo for derived XIP-baseline segment tuples (immutable, so
#: sharing across tasksets is safe); also outside the public counters —
#: the experiment notes report *segmentation* cache traffic.
_xip_memo = PlanCache("_xip")

#: ``(id(model), id(platform), id(quant)) -> (model, platform, quant,
#: columns)``: the batched admission packer's (:mod:`repro.eval.systems`)
#: identity memo in front of :func:`cached_xip_segments`.  Values pin
#: their key objects so the ids stay valid until :func:`clear_all`.
xip_columns: Dict[Tuple[int, int, int], Tuple[Any, ...]] = {}

def clear_all() -> None:
    """Drop every cached entry and memo; counters are monotone and stay."""
    for cache in (*CACHES.values(), _costs_memo, _xip_memo):
        cache.clear()
    for memo in (
        _layer_fingerprint, _model_fingerprint, _quant_fingerprint,
        _platform_fingerprint,
    ):
        memo.clear()
    xip_columns.clear()
    _layers._split_memo.clear()


def cache_note(totals: Mapping[str, Tuple[int, int]]) -> str:
    """One-line experiment note summarizing segmentation-cache traffic."""
    seg_h = sum(totals.get(n, (0, 0))[0] for n in ("refine", "search"))
    seg_m = sum(totals.get(n, (0, 0))[1] for n in ("refine", "search"))
    ana_h, ana_m = totals.get("analysis", (0, 0))
    seg_total = seg_h + seg_m
    ana_total = ana_h + ana_m
    seg_rate = (100.0 * seg_h / seg_total) if seg_total else 0.0
    ana_rate = (100.0 * ana_h / ana_total) if ana_total else 0.0
    return (
        f"plan cache: segmentation {seg_h}/{seg_total} hits ({seg_rate:.1f}%), "
        f"analysis {ana_h}/{ana_total} hits ({ana_rate:.1f}%)"
    )


# ----------------------------------------------------------------------
# Platform fingerprints (planner-relevant projections)
# ----------------------------------------------------------------------
def _compute_fingerprint(platform: Platform) -> Tuple[Any, ...]:
    """The platform projection layer *compute* timing depends on.

    ``TimingModel.compute_cycles`` reads only the timing coefficients and
    the MCU's DSP/FPU capability flags — never SRAM or flash capacity.
    """
    return (
        freeze(platform.timing),
        platform.mcu.dsp_extensions,
        platform.mcu.has_fpu,
    )


def _load_fingerprint(platform: Platform) -> Tuple[Any, ...]:
    """The platform projection DMA *load* timing depends on."""
    return (
        platform.mcu.clock_hz,
        platform.memory.read_bandwidth_bps,
        platform.memory.setup_latency_s,
        platform.memory.xip_efficiency,
        platform.dma.program_overhead_s,
    )


def planner_platform_fingerprint(platform: Platform) -> Tuple[Any, ...]:
    """Everything the segmentation planner reads from the platform.

    Deliberately excludes SRAM/flash capacity and display names: capacity
    enters the planner only through the explicit byte budget (a separate
    key part), so sweep variants built with ``with_sram_bytes`` share
    cache entries.  Memoized by platform identity (sweeps reuse a handful
    of platform objects across thousands of key constructions).
    """
    return _platform_fingerprint(platform)


# ----------------------------------------------------------------------
# Object fingerprints (id-stable memos to avoid repeated deep freezes)
# ----------------------------------------------------------------------
_FP_MEMO_MAX = 512
_fp_lock = threading.Lock()


class _IdentityMemo:
    """Bounded ``id(obj) -> fingerprint`` memo with strong references.

    Keys are fingerprinted objects the sweeps reuse by identity (models,
    platforms, quantizations); holding a strong reference to each entry's
    object means an ``id`` can never be reused while its entry is alive.
    """

    def __init__(
        self, compute: "Callable[[Any], Any]", maxsize: int = _FP_MEMO_MAX
    ) -> None:
        self._compute = compute
        self._maxsize = maxsize
        self._data: "OrderedDict[int, Tuple[Any, Any]]" = OrderedDict()

    def __call__(self, obj: Any) -> Any:
        key = id(obj)
        with _fp_lock:
            entry = self._data.get(key)
            if entry is not None and entry[0] is obj:
                self._data.move_to_end(key)
                return entry[1]
        fp = self._compute(obj)
        with _fp_lock:
            self._data[key] = (obj, fp)
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
        return fp

    def clear(self) -> None:
        with _fp_lock:
            self._data.clear()


#: Per-layer frozen forms.  Refined models share their unsplit layers
#: with the source model and their slices with each other (see
#: :func:`repro.dnn.layers.split_layer`), so a new model's fingerprint
#: freezes only the layer objects no earlier fingerprint has met.
#: Entries pin layers, never models.
_layer_fingerprint: "Callable[[Any], Any]" = _IdentityMemo(freeze, MAXSIZE)


def _freeze_model(model: Model) -> Any:
    """:func:`freeze` of ``model``, reading its layers' frozen forms
    from the per-layer memo; the result is identical."""
    return (
        type(model).__name__,
        tuple(
            (
                f.name,
                tuple(map(_layer_fingerprint, model.layers))
                if f.name == "layers"
                else freeze(getattr(model, f.name)),
            )
            for f in dataclasses.fields(model)
        ),
    )


_model_fingerprint: "Callable[[Model], Any]" = _IdentityMemo(_freeze_model)
_quant_fingerprint: "Callable[[Quantization], Any]" = _IdentityMemo(freeze)
_platform_fingerprint: "Callable[[Platform], Any]" = _IdentityMemo(
    lambda platform: (_compute_fingerprint(platform), _load_fingerprint(platform))
)


def cached_xip_segments(
    name: str,
    model: Model,
    platform: Platform,
    quant: Quantization,
    build: "Callable[[], Any]",
) -> Any:
    """Memoize the XIP baseline's per-layer segment tuple.

    Every admission test re-derives the same per-layer XIP cycle costs
    for the same refined model; the resulting ``Segment`` tuple is
    immutable, so entries are shared across tasksets.  Keyed on the task
    name (embedded in segment names) plus everything the cost model
    reads: the model, the planner platform projection and the
    quantization.
    """
    key = (
        name,
        _model_fingerprint(model),
        planner_platform_fingerprint(platform),
        _quant_fingerprint(quant),
    )
    found, value = _xip_memo.get(key)
    if found:
        return value
    value = build()
    _xip_memo.put(key, value)
    return value


# ----------------------------------------------------------------------
# Cached planning stages
# ----------------------------------------------------------------------
def cached_build_model(name: str) -> Model:
    """Zoo lookup with memoization (builders are pure)."""
    cache = CACHES["zoo"]
    found, model = cache.get(name)
    if found:
        return model
    model = build_model(name)
    cache.put(name, model)
    return model


def _refine_parts(
    model: Model, quant: Quantization, max_chunk_bytes: int, max_chunk_macs: int
) -> Tuple[int, ...]:
    """Per-layer split counts — the minimal sufficient refinement key.

    Mirrors the decision logic of :func:`repro.dnn.models.refine_model`:
    the refined model is fully determined by ``(model, parts vector)``, so
    distinct ``(chunk, macs_cap)`` pairs that induce the same splits share
    one cache entry.
    """
    from repro.dnn.layers import SPLITTABLE_KINDS

    parts = []
    for layer in model.layers:
        p = 1
        if layer.kind in SPLITTABLE_KINDS:
            p = -(-layer.param_bytes(quant) // max_chunk_bytes)
            if max_chunk_macs:
                p = max(p, -(-layer.macs // max_chunk_macs))
        parts.append(p)
    return tuple(parts)


def cached_refine_model(
    model: Model,
    quant: Quantization,
    max_chunk_bytes: int,
    max_chunk_macs: int = 0,
) -> Model:
    """Granularity refinement with quantized knobs and memoization.

    Both knobs are floored to the power-of-two ladder (conservative: a
    smaller chunk/cap only makes granularity finer), then the per-layer
    parts vector is used as the cache key.  Quantization happens before
    planning on cold *and* warm paths, so results are path-independent.
    """
    if max_chunk_bytes <= 0:
        raise ValueError(f"max_chunk_bytes must be positive, got {max_chunk_bytes}")
    if max_chunk_macs < 0:
        raise ValueError(f"max_chunk_macs must be non-negative, got {max_chunk_macs}")
    chunk_q = pow2_floor(max_chunk_bytes)
    macs_q = pow2_floor(max_chunk_macs) if max_chunk_macs else 0
    cache = CACHES["refine"]
    key = (
        _model_fingerprint(model),
        _quant_fingerprint(quant),
        _refine_parts(model, quant, chunk_q, macs_q),
    )
    found, refined = cache.get(key)
    if found:
        return refined
    refined = refine_model(model, quant, chunk_q, macs_q)
    cache.put(key, refined)
    return refined


def model_costs(model: Model, platform: Platform, quant: Quantization) -> LayerCosts:
    """:func:`~repro.core.segmentation.layer_costs`, memoized per (model,
    compute fingerprint, quant).

    Key canonicalization reads its maxima and totals; a cold search
    hands it to the planner, the workload generator's SRAM split
    reads the largest layer's bytes (``max_weight``), the peak
    activation bytes and the total weight bytes (``prefix_w[-1]``), and
    :meth:`SegmentedModel.sram_need_bytes` reads the peak activation
    bytes, so the vectors are computed once per model.
    """
    key = (
        _model_fingerprint(model),
        # The compute half of the memoized platform fingerprint: equal
        # to _compute_fingerprint(platform) without re-freezing timing.
        _platform_fingerprint(platform)[0],
        _quant_fingerprint(quant),
    )
    found, value = _costs_memo.get(key)
    if not found:
        value = layer_costs(model, platform, quant)
        _costs_memo.put(key, value)
    return value


def _unfit_message(
    model: Model, max_w: int, slot_cap: int, sram_budget: int,
    act: int, buffers: int,
) -> str:
    """Byte-infeasibility message, rendered from the *caller's* inputs."""
    return (
        f"model {model.name!r} cannot fit: largest layer needs {max_w} B "
        f"per slot but only {max(slot_cap, 0)} B available "
        f"(budget {sram_budget} B, activations {act} B, {buffers} buffers)"
    )


def cached_search_segmentation(
    model: Model,
    platform: Platform,
    sram_budget: int,
    quant: Quantization,
    buffers: int = 2,
    max_segment_compute: Optional[int] = None,
) -> SegmentedModel:
    """Segmentation search with canonicalized keys and memoization.

    Canonicalization (applied identically on cold and warm paths):

    * staging slot budget ``(sram_budget - act) // buffers`` is clamped to
      the model's total weight bytes (any larger budget is equivalent)
      and floored to the quarter-pow2 ladder, but never below the largest
      single layer (which would fabricate infeasibility);
    * the compute cap is pre-relaxed to the largest single layer (the
      planner does the same), floored to the pow2 ladder, and dropped
      entirely when it can never bind (cap >= total compute);
    * byte-infeasible budgets collapse onto one negative entry per
      (model, platform, quant, buffers).

    The cached value holds the boundaries and the segment tuple (both
    functions of the key alone); hits re-materialize a
    :class:`SegmentedModel` against the *caller's* platform object with
    its segment memo pre-seeded.

    Raises:
        SegmentationError: when no segmentation fits (cached too).
        ValueError: if ``buffers < 1``.
    """
    if buffers < 1:
        raise ValueError(f"buffers must be >= 1, got {buffers}")
    costs = model_costs(model, platform, quant)
    max_w, total_w = costs.max_weight, costs.prefix_w[-1]
    max_c, total_c = costs.max_compute, costs.prefix_c[-1]
    act = costs.activation_bytes
    slot_cap = (sram_budget - act) // buffers
    if slot_cap < max_w:
        slot_q = -1  # byte-infeasible: one canonical negative entry
    elif slot_cap >= total_w:
        slot_q = total_w  # saturated: every contiguous partition fits
    else:
        slot_q = max(quarter_pow2_floor(slot_cap), max_w)
    if max_segment_compute is None:
        cap_q: Optional[int] = None
    else:
        cap_eff = max(max_segment_compute, max_c)
        if cap_eff >= total_c:
            cap_q = None  # can never bind: a segment's compute <= total
        else:
            cap_q = max(pow2_floor(cap_eff), max_c)
    cache = CACHES["search"]
    key = (
        _model_fingerprint(model),
        planner_platform_fingerprint(platform),
        _quant_fingerprint(quant),
        buffers,
        slot_q,
        cap_q,
    )
    found, value = cache.get(key)
    if not found:
        # Second tier: the persistent content-addressed plan store.
        # A store hit is promoted into the LRU, so one process pays
        # the disk read at most once per key.
        store = planstore.active()
        if store is not None:
            found, value = store.get(key)
            if found:
                cache.put(key, value)
    if found:
        kind, *payload = value
        if kind == "err":
            raise SegmentationError(payload[0])
        if kind == "err-unfit":
            raise SegmentationError(
                _unfit_message(model, max_w, slot_cap, sram_budget, act, buffers)
            )
        boundaries, segments = payload
        hit = SegmentedModel(
            model=model,
            platform=platform,
            quant=quant,
            boundaries=boundaries,
            buffers=buffers,
        )
        # The segment tuple is fully determined by the key (model,
        # planner platform projection, quant, boundaries), so seed
        # the per-instance memo instead of re-materializing it.
        object.__setattr__(hit, "_segments_memo", segments)
        return hit
    if slot_q < 0:
        # The canonical negative entry collapses every byte-infeasible
        # budget onto one key, so the cached value must not embed this
        # caller's numbers: a marker is stored and the message rendered
        # per caller (cold and warm alike) — keeping error reasons a
        # pure function of the call arguments, which journal replay
        # across process generations relies on.
        cache.put(key, ("err-unfit",))
        _store_put(key, ("err-unfit",))
        raise SegmentationError(
            _unfit_message(model, max_w, slot_cap, sram_budget, act, buffers)
        )
    budget_q = slot_q * buffers + act
    try:
        seg = _search_planned(
            _Planner(model, platform, budget_q, quant, buffers, cap_q, costs)
        )
    except SegmentationError as exc:
        cache.put(key, ("err", str(exc)))
        _store_put(key, ("err", str(exc)))
        raise
    value = ("ok", seg.boundaries, seg.segments())
    cache.put(key, value)
    _store_put(key, value)
    return seg


def _store_put(key: Any, value: Any) -> None:
    """Write-through a cold search result to the persistent store."""
    store = planstore.active()
    if store is not None:
        store.put(key, value)


def _taskset_fingerprint(taskset: TaskSet) -> Any:
    """Everything :func:`repro.core.analysis.analyze` reads, hand-rolled.

    The generic :func:`freeze` walks every dataclass field recursively
    (segment names, byte bookkeeping, ...); admission sweeps fingerprint
    thousands of single-use task sets, so this flat tuple of the
    analysis-relevant fields is worth roughly a 10x on key construction.
    """
    return tuple(
        (
            t.name, t.period, t.deadline, t.priority, t.phase, t.buffers,
            tuple((s.load_cycles, s.compute_cycles) for s in t.segments),
        )
        for t in taskset
    )


def cached_analyze(taskset: TaskSet, method: str = "rtmdm") -> AnalysisResult:
    """Schedulability analysis with exact-key memoization.

    The key is a deep fingerprint of the (frozen) task set plus the
    method name — everything :func:`repro.core.analysis.analyze` reads.
    The cached :class:`AnalysisResult` is treated as immutable by all
    callers.
    """
    cache = CACHES["analysis"]
    key = (_taskset_fingerprint(taskset), method)
    found, result = cache.get(key)
    if found:
        return result
    result = analyze(taskset, method)
    cache.put(key, result)
    return result
