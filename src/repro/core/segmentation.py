"""Segmentation: partition a layer chain into SRAM-feasible segments.

Feasibility of a segmentation with buffer depth ``b``:

* **SRAM**: ``b * max_segment_weight_bytes + peak_activation_bytes <=
  sram_budget`` (each staging slot is sized for the largest segment;
  activations stay resident);
* **preemption granularity** (optional): no segment's compute may exceed
  ``max_segment_compute`` cycles.  Segment boundaries are the only
  preemption points, so a long segment is a non-preemptive section that
  blocks urgent tasks — capping it is the schedulability half of the
  RT-MDM planner.  Layers that are individually over the cap (after
  :func:`~repro.dnn.models.refine_model`) relax the cap to their own
  length: the analyses then account for the unavoidable section honestly.

Among feasible segmentations we minimize the **isolated pipelined
latency** (exact recurrence, including per-transfer setup overheads);
near-ties (within 2%) are broken toward the smaller maximum compute
section.

Algorithms:

* :func:`min_max_weight_partition` — contiguous partition into exactly
  ``k`` parts minimizing the maximum part cost (binary search + greedy;
  optimal for this objective).  The search brackets the bottleneck
  between ``max(largest, average)`` and ``average + largest``, probes
  the lower end first, and each greedy count stops as soon as it
  exceeds ``k``.  Every probe tightens the bracket to the next cap at
  which the greedy's cuts can change: a feasible probe lowers ``hi`` to
  the largest part sum it actually built (every cap from there up to
  the probe makes the same cuts), an infeasible one raises ``lo`` to
  the smallest "part sum + next weight" that closed a part (every cap
  below it makes the same cuts, up to the overflow).  Both moves keep
  the optimum inside the bracket, so the result is the plain binary
  search's, in about a seventh of the probes.  If the greedy run under
  the optimal bottleneck uses fewer than ``k`` parts, a heap keyed on
  ``(-length, start)`` pads it by halving the longest part (smallest
  start on ties), O(k log k).  The search feeds it *unit costs*: the
  max of normalized staging bytes and normalized compute, so one
  partition respects both caps.
* :func:`coarsest_feasible_segments` — fewest segments that fit.
* :func:`search_segmentation` — sweep segment counts from coarsest
  feasible to layer granularity, refine each candidate with boundary
  hill-climbing on exact latency (evaluated via prefix sums; no model
  rematerialization), return the best.  The per-layer cost vectors and
  their prefix sums come from one :class:`LayerCosts`, which the plan
  cache (:mod:`repro.core.segcache`) memoizes per model, and the
  winning plan's segments are built from the same prefix sums.
* Dominance-pruned hill climbing — a ±1 shift of the cut between
  segments ``i`` and ``i+1`` resumes the latency recurrence from the
  incumbent's stored ``(f_load, f_comp)`` at ``i``.  From ``i+1`` on the
  segments are the incumbent's, and the state carried from one segment
  to the next is ``f_load[j]`` plus the last ``buffers`` values of
  ``f_comp``.  The recurrence is built from ``max`` and ``+`` over
  non-negative cycle counts, so it is monotone in that state: once the
  candidate's state is componentwise ``>=`` the incumbent's at some
  ``j >= i+1``, its latency cannot come out strictly lower, and the
  candidate is rejected there — the same decision a full evaluation
  reaches.
* Latency bounds from the same recurrence.  Every compute follows the
  previous one, so a candidate that has finished segment ``j`` (ending
  at layer ``e``) at ``f_comp[j]`` cannot finish before ``f_comp[j] +
  prefix_c[-1] - prefix_c[e]``; the shift is rejected as soon as that
  reaches the incumbent's latency, which at the last segment is the
  exact accept test.  And no segmentation at all finishes before the
  *floor* ``prefix_c[-1] + load_cycles(weights[0])``: the first load
  stages at least layer 0 (``load_cycles`` is monotone in the bytes,
  and 0 for 0 bytes) and nothing computes before it lands.  An
  incumbent at the floor cannot be beaten, so its climb stops there.
  Neither bound changes a decision.  Most shifts are rejected at the
  cut, the rest a few segments past it instead of at the end of the
  chain.
"""

from __future__ import annotations

import heapq
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.pipeline import SegmentedModel
from repro.dnn.models import Model
from repro.dnn.quantization import INT8, Quantization
from repro.hw.platform import Platform
from repro.sched.task import Segment

#: Normalization scale for unit costs (per-part budget maps to _SCALE).
_SCALE = 1_000_000

#: Most segment counts the search sweeps (geometrically spaced).
_MAX_CANDIDATES = 10
#: Latencies within this fraction of the best are near-ties, resolved
#: toward the smaller maximum compute section.
_LATENCY_TOLERANCE = 0.02
#: Most hill-climbing passes over the boundaries of one candidate.
_MAX_PASSES = 4

Boundaries = List[Tuple[int, int]]


class SegmentationError(ValueError):
    """Raised when no segmentation fits the SRAM budget."""


def _greedy_parts_needed(weights: Sequence[int], cap: int) -> Optional[int]:
    """Minimum number of contiguous parts with each part sum <= cap, or None."""
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


def min_max_weight_partition(weights: Sequence[int], k: int) -> Boundaries:
    """Partition ``weights`` into ``k`` contiguous parts minimizing max sum.

    Returns ``(start, end)`` index pairs.  Binary search over the
    bottleneck value with a greedy feasibility check; the result is
    optimal for the min-max objective.
    """
    n = len(weights)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # The optimum is at least the largest weight and the average part
    # sum.  A greedy run under average + largest closes every part above
    # the average, so it needs at most k parts: that bounds the search.
    total = sum(weights)
    largest = max(weights)
    average = -(-total // k)
    lo = max(largest, average)
    hi = min(total, average + largest)
    mid = lo  # the lower bound is often the optimum: probe it first
    while lo < hi:
        # Greedy count under cap `mid` (no weight exceeds it, as mid >=
        # largest); stop as soon as it exceeds k.  `reached` is the
        # largest closed part, `step` the smallest sum that closed one.
        parts = 1
        current = 0
        reached = 0
        step = total + 1
        for weight in weights:
            current += weight
            if current > mid:
                if current < step:
                    step = current
                current -= weight
                if current > reached:
                    reached = current
                parts += 1
                if parts > k:
                    break
                current = weight
        if parts <= k:
            # Every cap from the bottleneck reached up to `mid` makes the
            # same cuts, so that bottleneck is feasible too.
            hi = max(reached, current)
        else:
            # Every cap from `mid` up to `step - 1` makes the same cuts
            # until the count exceeds k, so none is feasible (step > mid).
            lo = step
        mid = (lo + hi) // 2
    # Build exactly k parts under cap `lo`, splitting greedily and then
    # padding if the greedy run used fewer.
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
    if len(boundaries) < k:
        # Halve the part with the most elements, smallest start on ties
        # (any split keeps max <= lo because part sums only shrink).
        heap = [(s - e, s, e) for s, e in boundaries]
        heapq.heapify(heap)
        for _ in range(k - len(boundaries)):
            neg_len, s, e = heapq.heappop(heap)
            if neg_len == -1:
                raise AssertionError("cannot split further; k <= n guarantees this never happens")
            mid = (s + e) // 2
            heapq.heappush(heap, (s - mid, s, mid))
            heapq.heappush(heap, (mid - e, mid, e))
        boundaries = sorted((s, e) for _, s, e in heap)
    return boundaries


class LayerCosts(NamedTuple):
    """Per-layer cost vectors of one (model, compute timing, quantization).

    Everything the planner and the plan cache's key canonicalization read
    from a model: staged bytes and compute cycles per layer, their prefix
    sums and maxima, and the peak activation bytes.  Read-only: one value
    is shared by every search on its model.
    """

    weights: Tuple[int, ...]
    computes: Tuple[int, ...]
    #: ``prefix_w[i]`` is the staged bytes of layers ``0 .. i-1``.
    prefix_w: Tuple[int, ...]
    prefix_c: Tuple[int, ...]
    max_weight: int
    max_compute: int
    activation_bytes: int


def layer_costs(model: Model, platform: Platform, quant: Quantization) -> LayerCosts:
    """The :class:`LayerCosts` of ``model`` on ``platform`` under ``quant``."""
    weights = tuple(layer.param_bytes(quant) for layer in model.layers)
    computes = tuple(
        platform.compute_cycles(layer, quant.weight_bytes) for layer in model.layers
    )
    return LayerCosts(
        weights=weights,
        computes=computes,
        prefix_w=tuple(accumulate(weights, initial=0)),
        prefix_c=tuple(accumulate(computes, initial=0)),
        max_weight=max(weights),
        max_compute=max(computes),
        activation_bytes=model.peak_activation_bytes(quant),
    )


class _Planner:
    """Shared state for one segmentation problem.

    Reads per-layer weight bytes and compute cycles from a
    :class:`LayerCosts` (computed here, or handed in by the plan cache,
    which memoizes it per model) so candidate segmentations are
    evaluated with prefix sums instead of rematerializing
    :class:`SegmentedModel` objects.
    """

    def __init__(
        self,
        model: Model,
        platform: Platform,
        sram_budget: int,
        quant: Quantization,
        buffers: int,
        max_segment_compute: Optional[int],
        costs: Optional[LayerCosts] = None,
    ) -> None:
        if buffers < 1:
            raise ValueError(f"buffers must be >= 1, got {buffers}")
        if costs is None:
            costs = layer_costs(model, platform, quant)
        self.model = model
        self.platform = platform
        self.sram_budget = sram_budget
        self.quant = quant
        self.buffers = buffers
        self.weights = costs.weights
        self.computes = costs.computes
        self.prefix_w = costs.prefix_w
        self.prefix_c = costs.prefix_c
        act = costs.activation_bytes
        self.activation_bytes = act
        # load_cycles is a pure function of the byte count for a fixed
        # platform; candidate evaluation revisits the same segment sizes
        # constantly (hill climbing shifts one boundary at a time), so
        # memoizing per weight value removes most of its cost.
        self._load_cache: dict = {}
        self.slot_cap = (sram_budget - act) // buffers
        if self.slot_cap < costs.max_weight:
            raise SegmentationError(
                f"model {model.name!r} cannot fit: largest layer needs "
                f"{costs.max_weight} B per slot but only {max(self.slot_cap, 0)} B "
                f"available (budget {sram_budget} B, activations {act} B, "
                f"{buffers} buffers)"
            )
        # Every segmentation's first load stages at least layer 0 and its
        # computes run one after another: no latency is below this.
        self.latency_floor = costs.prefix_c[-1] + platform.load_cycles(costs.weights[0])
        # An individually-over-cap layer relaxes the compute cap to itself.
        if max_segment_compute is not None:
            self.compute_cap: Optional[int] = max(
                max_segment_compute, costs.max_compute
            )
        else:
            self.compute_cap = None

    # -- candidate evaluation (prefix sums; no materialization) --------
    def feasible(self, boundaries: Boundaries) -> bool:
        prefix_w = self.prefix_w
        max_w = max(prefix_w[e] - prefix_w[s] for s, e in boundaries)
        if self.buffers * max_w + self.activation_bytes > self.sram_budget:
            return False
        if self.compute_cap is not None:
            if self.max_compute_section(boundaries) > self.compute_cap:
                return False
        return True

    def max_compute_section(self, boundaries: Boundaries) -> int:
        prefix_c = self.prefix_c
        return max(prefix_c[e] - prefix_c[s] for s, e in boundaries)

    def unit_costs(self) -> List[int]:
        """Per-layer costs normalized so a part budget maps to ``_SCALE``.

        A part with cost sum <= _SCALE satisfies both the slot byte cap
        and the compute cap (sum of maxes bounds max of sums).
        """
        costs = []
        for w, c in zip(self.weights, self.computes):
            cost = -(-w * _SCALE // self.slot_cap) if w else 0
            if self.compute_cap:
                cost = max(cost, -(-c * _SCALE // self.compute_cap))
            costs.append(min(cost, _SCALE))
        return costs

    def materialize(self, boundaries: Sequence[Tuple[int, int]]) -> SegmentedModel:
        seg = SegmentedModel(
            model=self.model,
            platform=self.platform,
            quant=self.quant,
            boundaries=tuple(boundaries),
            buffers=self.buffers,
        )
        # The prefix sums already hold each segment's bytes and cycles:
        # seed the segment memo instead of re-walking the layers.
        prefix_w = self.prefix_w
        prefix_c = self.prefix_c
        load_cycles = self.platform.load_cycles
        name = self.model.name
        segments = tuple(
            Segment(
                name=f"{name}[{s}:{e}]",
                load_cycles=load_cycles(prefix_w[e] - prefix_w[s]),
                compute_cycles=prefix_c[e] - prefix_c[s],
                load_bytes=prefix_w[e] - prefix_w[s],
            )
            for s, e in seg.boundaries
        )
        object.__setattr__(seg, "_segments_memo", segments)
        return seg

    def _latency_state(self, boundaries: Boundaries) -> Tuple[List[int], List[int]]:
        """``(f_load, f_comp)`` arrays of the recurrence over ``boundaries``."""
        load_cache = self._load_cache
        load_cycles = self.platform.load_cycles
        prefix_w = self.prefix_w
        prefix_c = self.prefix_c
        b = self.buffers
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

    def _shifted_tail(
        self,
        best: Boundaries,
        f_load: List[int],
        f_comp: List[int],
        i: int,
        cut: int,
    ) -> Optional[Tuple[List[int], List[int]]]:
        """Recurrence tail of ``best`` with the cut after segment ``i``
        moved to ``cut``, or None unless its latency is strictly lower.

        Resumes from the incumbent's ``(f_load, f_comp)`` at ``i`` and
        returns the candidate's ``f_load``/``f_comp`` from ``i`` to the
        end.  Two bounds reject early.  After each segment ending at
        ``e`` the layers from ``e`` on still compute serially, so the
        candidate cannot finish before ``f_comp + prefix_c[-1] -
        prefix_c[e]``: reject once that reaches the incumbent's latency
        (at the last segment this is the exact comparison).  Past
        segment ``i+1`` the chain is the incumbent's, so once the
        carried state (``f_load[j]`` and the last ``buffers`` values of
        ``f_comp``) is componentwise ``>=`` the incumbent's, the
        monotone max-plus recurrence cannot finish lower: reject there.
        """
        load_cache = self._load_cache
        load_cycles = self.platform.load_cycles
        prefix_w = self.prefix_w
        prefix_c = self.prefix_c
        b = self.buffers
        total_c = prefix_c[-1]
        latency = f_comp[-1]
        prev_load = f_load[i - 1] if i else 0
        prev_comp = f_comp[i - 1] if i else 0
        loads: List[int] = []
        comps: List[int] = []
        for j in range(i, len(best)):
            if j == i:
                s, e = best[i][0], cut
            elif j == i + 1:
                s, e = cut, best[j][1]
            else:
                s, e = best[j]
            w = prefix_w[e] - prefix_w[s]
            cycles = load_cache.get(w)
            if cycles is None:
                cycles = load_cycles(w)
                load_cache[w] = cycles
            back = j - b
            if back >= i:
                freed = comps[back - i]
            else:
                freed = f_comp[back] if back >= 0 else 0
            if freed > prev_load:
                prev_load = freed + cycles
            else:
                prev_load += cycles
            comp = prefix_c[e] - prefix_c[s]
            if prev_load > prev_comp:
                prev_comp = prev_load + comp
            else:
                prev_comp += comp
            if prev_comp + total_c - prefix_c[e] >= latency:
                return None
            loads.append(prev_load)
            comps.append(prev_comp)
            if j > i and prev_load >= f_load[j] and prev_comp >= f_comp[j]:
                # Older f_comp entries still read by later segments; the
                # ones before `i` are shared with the incumbent.
                m = max(i, back + 1)
                while m < j and comps[m - i] >= f_comp[m]:
                    m += 1
                if m == j:
                    return None
        return loads, comps

    def hill_climb(self, boundaries: Boundaries) -> Tuple[Boundaries, int]:
        """Shift boundaries +-1 layer while it reduces exact latency.

        First-improvement scan, at most ``_MAX_PASSES`` passes.  Each
        candidate is evaluated by :meth:`_shifted_tail` from the
        incumbent's stored recurrence state, without copying the
        boundary list, and most are rejected by a bound at or a few
        segments past the cut — the same accept/reject decisions as
        evaluating every candidate's full latency.  An incumbent at
        :attr:`latency_floor` cannot be beaten, so the climb stops
        there.  Returns the climbed boundaries and their latency.
        """
        best = list(boundaries)
        f_load, f_comp = self._latency_state(best)
        floor = self.latency_floor
        if f_comp[-1] <= floor:
            return best, f_comp[-1]
        slot_cap = self.slot_cap
        cap = self.compute_cap
        prefix_w = self.prefix_w
        prefix_c = self.prefix_c
        for _ in range(_MAX_PASSES):
            improved = False
            for i in range(len(best) - 1):
                for delta in (-1, 1):
                    s0, e0 = best[i]
                    e1 = best[i + 1][1]
                    cut = e0 + delta
                    if not s0 < cut < e1:
                        continue
                    # Only the two touched segments can newly violate a
                    # cap (`best` is feasible, the rest already fit).
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
                    tail = self._shifted_tail(best, f_load, f_comp, i, cut)
                    if tail is not None:
                        best[i] = (s0, cut)
                        best[i + 1] = (cut, e1)
                        f_load[i:], f_comp[i:] = tail
                        if f_comp[-1] <= floor:
                            return best, f_comp[-1]
                        improved = True
            if not improved:
                break
        return best, f_comp[-1]


def segment_model(
    model: Model,
    platform: Platform,
    boundaries: Sequence[Tuple[int, int]],
    quant: Quantization = INT8,
    buffers: int = 2,
) -> SegmentedModel:
    """Materialize a segmentation from explicit boundaries."""
    return SegmentedModel(
        model=model,
        platform=platform,
        quant=quant,
        boundaries=tuple(boundaries),
        buffers=buffers,
    )


def _coarsest_boundaries(planner: _Planner, costs: List[int]) -> Boundaries:
    """The fewest-segment partition of unit ``costs`` that fits all caps."""
    needed = _greedy_parts_needed(costs, _SCALE)
    assert needed is not None  # individual costs are clamped to _SCALE
    boundaries = min_max_weight_partition(costs, needed)
    # The unit-cost partition is sufficient for both caps, but integer
    # rounding can leave a marginal violation; fall back to finer counts.
    k = needed
    n = planner.model.num_layers
    while not planner.feasible(boundaries) and k < n:
        k += 1
        boundaries = min_max_weight_partition(costs, k)
    if not planner.feasible(boundaries):
        raise SegmentationError(
            f"no feasible segmentation for {planner.model.name!r} within "
            f"{planner.sram_budget} B"
        )
    return boundaries


def coarsest_feasible_segments(
    model: Model,
    platform: Platform,
    sram_budget: int,
    quant: Quantization = INT8,
    buffers: int = 2,
    max_segment_compute: Optional[int] = None,
) -> SegmentedModel:
    """The fewest-segment partition that fits all caps.

    Raises:
        SegmentationError: if even one-layer-per-segment does not fit the
            SRAM budget (the compute cap alone never causes failure; see
            module docstring).
        ValueError: if ``buffers < 1``.
    """
    planner = _Planner(model, platform, sram_budget, quant, buffers, max_segment_compute)
    return planner.materialize(_coarsest_boundaries(planner, planner.unit_costs()))


def search_segmentation(
    model: Model,
    platform: Platform,
    sram_budget: int,
    quant: Quantization = INT8,
    buffers: int = 2,
    max_segment_compute: Optional[int] = None,
) -> SegmentedModel:
    """Find a low-latency feasible segmentation (the RT-MDM planner).

    Sweeps segment counts from the coarsest feasible up to layer
    granularity (at most ``_MAX_CANDIDATES`` values, geometrically
    spaced), builds the min-max unit-cost partition for each, hill-climbs
    boundaries on exact latency, and returns the candidate with the best
    latency — near-ties within ``_LATENCY_TOLERANCE`` resolved toward the
    smallest maximum compute section (shorter non-preemptive blocking).

    Raises:
        SegmentationError: if no segmentation fits ``sram_budget``.
        ValueError: if ``buffers < 1``.
    """
    return _search_planned(
        _Planner(model, platform, sram_budget, quant, buffers, max_segment_compute)
    )


def _search_planned(planner: _Planner) -> SegmentedModel:
    """:func:`search_segmentation` on an already set-up planner.

    Two candidate counts need no partition search: at ``k_min`` the
    min-max partition is the coarsest one already built, and at ``k ==
    n`` every part holds exactly one layer.
    """
    costs = planner.unit_costs()
    coarsest = _coarsest_boundaries(planner, costs)
    n = planner.model.num_layers
    k_min = len(coarsest)
    counts = sorted({k_min, n} | set(_geometric_counts(k_min, n)))
    candidates: List[Tuple[int, int, Boundaries]] = []
    for k in counts:
        if k == k_min:
            boundaries = coarsest
        elif k == n:
            boundaries = [(i, i + 1) for i in range(n)]
        else:
            boundaries = min_max_weight_partition(costs, k)
        if not planner.feasible(boundaries):
            continue
        boundaries, latency = planner.hill_climb(boundaries)
        candidates.append(
            (latency, planner.max_compute_section(boundaries), boundaries)
        )
    if not candidates:
        # The coarsest partition is feasible by construction, but keep a
        # defensive error for future cap combinations.
        raise SegmentationError(f"no feasible segmentation for {planner.model.name!r}")
    best_latency = min(latency for latency, _, _ in candidates)
    threshold = best_latency * (1.0 + _LATENCY_TOLERANCE)
    eligible = [c for c in candidates if c[0] <= threshold]
    eligible.sort(key=lambda c: (c[1], c[0]))
    return planner.materialize(eligible[0][2])


def _geometric_counts(k_min: int, k_max: int) -> List[int]:
    """Roughly geometrically spaced segment counts in ``[k_min, k_max]``."""
    if k_min >= k_max:
        return [k_min]
    counts = []
    value = float(k_min)
    ratio = (k_max / k_min) ** (1.0 / (_MAX_CANDIDATES - 1))
    for _ in range(_MAX_CANDIDATES):
        counts.append(int(round(value)))
        value *= ratio
    counts.append(k_max)
    return [c for c in counts if k_min <= c <= k_max]
