"""Double-buffer pipeline timing model.

With ``b`` staging buffers, the load of segment *j* may start once the
compute of segment ``j - b`` has finished (that segment's buffer is free),
and the compute of segment *j* starts once both its load and the previous
compute have finished:

.. code-block:: text

    f_load(j) = max(f_load(j-1), f_comp(j-b)) + L_j
    f_comp(j) = max(f_comp(j-1), f_load(j))   + C_j

The job's isolated latency is ``f_comp(m)``.  These recurrences are exact
for an uncontended platform and are validated against the discrete-event
simulator by the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.dnn.models import Model
from repro.dnn.quantization import Quantization
from repro.hw.platform import Platform
from repro.sched.task import PeriodicTask, Segment


def pipeline_finish_times(
    segments: Sequence[Segment], buffers: int = 2
) -> List[Tuple[int, int]]:
    """Per-segment ``(load_finish, compute_finish)`` in isolation.

    Args:
        segments: The job body in execution order.
        buffers: Staging buffer depth (``1`` disables overlap).
    """
    if buffers < 1:
        raise ValueError(f"buffers must be >= 1, got {buffers}")
    finish: List[Tuple[int, int]] = []
    for j, segment in enumerate(segments):
        prev_load = finish[j - 1][0] if j >= 1 else 0
        freed = finish[j - buffers][1] if j >= buffers else 0
        load_finish = max(prev_load, freed) + segment.load_cycles
        prev_comp = finish[j - 1][1] if j >= 1 else 0
        comp_finish = max(prev_comp, load_finish) + segment.compute_cycles
        finish.append((load_finish, comp_finish))
    return finish


def pipelined_latency(
    loads: Sequence[int], computes: Sequence[int], buffers: int
) -> int:
    """The recurrence's ``f_comp(m)`` over plain per-segment cycle columns.

    Equal to :func:`isolated_latency` of segments with these load and
    compute cycles; callers that only vary the cycle counts (the
    sensitivity-margin probes) skip building :class:`Segment` objects.
    """
    f_comp: List[int] = []
    prev_load = 0
    prev_comp = 0
    for j, (load, compute) in enumerate(zip(loads, computes)):
        freed = f_comp[j - buffers] if j >= buffers else 0
        prev_load = max(prev_load, freed) + load
        prev_comp = max(prev_comp, prev_load) + compute
        f_comp.append(prev_comp)
    return prev_comp


def isolated_latency(segments: Sequence[Segment], buffers: int = 2) -> int:
    """Job latency on an otherwise idle platform.

    The recurrence's ``f_comp(m)`` in one pass: equal to
    ``pipeline_finish_times(segments, buffers)[-1][1]`` without building
    the per-segment finish pairs.
    """
    if not segments:
        raise ValueError("segments must be non-empty")
    if buffers < 1:
        raise ValueError(f"buffers must be >= 1, got {buffers}")
    # f_comp of the last ``buffers`` segments, segment j at j % buffers;
    # the zeros stand for f_comp(j - buffers) while j < buffers.
    ring = [0] * min(buffers, len(segments))
    f_load = comp = 0
    for j, segment in enumerate(segments):
        slot = j % buffers
        if ring[slot] > f_load:
            f_load = ring[slot]
        f_load += segment.load_cycles
        if f_load > comp:
            comp = f_load
        comp += segment.compute_cycles
        ring[slot] = comp
    return comp


def sequential_latency(segments: Sequence[Segment]) -> int:
    """Latency with no overlap at all: every load then its compute."""
    return sum(s.load_cycles + s.compute_cycles for s in segments)


@dataclass(frozen=True)
class SegmentedModel:
    """A DNN partitioned into staging segments on a concrete platform.

    Attributes:
        model: The source DNN.
        platform: Target hardware (provides cycle costs).
        quant: Deployment quantization.
        boundaries: Segment extents as ``(start, end)`` layer index pairs,
            contiguous and covering ``range(model.num_layers)``.
        buffers: Staging buffer depth used for latency/pipelining.
        resident: Weights live in *internal* flash (no staging at all):
            segments have zero load legs and SRAM holds activations only.
            Segment boundaries remain preemption points (the compute cap
            still applies).
    """

    model: Model
    platform: Platform
    quant: Quantization
    boundaries: Tuple[Tuple[int, int], ...]
    buffers: int = 2
    resident: bool = False

    def __post_init__(self) -> None:
        if not self.boundaries:
            raise ValueError("boundaries must be non-empty")
        expected = 0
        for start, end in self.boundaries:
            if start != expected or end <= start:
                raise ValueError(
                    f"boundaries must be contiguous and non-empty, got {self.boundaries}"
                )
            expected = end
        if expected != self.model.num_layers:
            raise ValueError(
                f"boundaries cover {expected} layers, model has {self.model.num_layers}"
            )
        if self.buffers < 1:
            raise ValueError(f"buffers must be >= 1, got {self.buffers}")

    # ------------------------------------------------------------------
    # Segment materialization
    # ------------------------------------------------------------------
    def segment_weight_bytes(self, index: int) -> int:
        """Weight+bias bytes staged for segment ``index``."""
        start, end = self.boundaries[index]
        return sum(
            layer.param_bytes(self.quant) for layer in self.model.layers[start:end]
        )

    @property
    def max_segment_weight_bytes(self) -> int:
        """Size each staging buffer slot must have."""
        return max(self.segment_weight_bytes(i) for i in range(len(self.boundaries)))

    @property
    def num_segments(self) -> int:
        """Number of segments."""
        return len(self.boundaries)

    def segments(self) -> Tuple[Segment, ...]:
        """Materialize scheduler segments with platform cycle costs."""
        memo = self.__dict__.get("_segments_memo")
        if memo is not None:
            return memo
        result = []
        for index, (start, end) in enumerate(self.boundaries):
            load_bytes = 0 if self.resident else self.segment_weight_bytes(index)
            compute = sum(
                self.platform.compute_cycles(layer, self.quant.weight_bytes)
                for layer in self.model.layers[start:end]
            )
            result.append(
                Segment(
                    name=f"{self.model.name}[{start}:{end}]",
                    load_cycles=self.platform.load_cycles(load_bytes),
                    compute_cycles=compute,
                    load_bytes=load_bytes,
                )
            )
        memo = tuple(result)
        # frozen dataclass: memoize via __dict__ (not a field, so eq/repr
        # are unaffected); latency helpers re-materialize constantly.
        object.__setattr__(self, "_segments_memo", memo)
        return memo

    # ------------------------------------------------------------------
    # Derived timing
    # ------------------------------------------------------------------
    def isolated_latency(self) -> int:
        """Pipelined latency in isolation."""
        return isolated_latency(self.segments(), self.buffers)

    def sequential_latency(self) -> int:
        """Unpipelined latency (loads serialized with computes)."""
        return sequential_latency(self.segments())

    def sram_need_bytes(self) -> int:
        """SRAM this segmentation requires: staging slots + activations.

        Each of the ``buffers`` slots holds the largest segment's staged
        bytes, read from the (memoized) segment tuple; flash-resident
        models stage nothing, so only activations need SRAM.  The peak
        activation bytes come from the memoized
        :func:`repro.core.segcache.model_costs`, so the online planner
        prices a plan without re-walking the layers.
        """
        from repro.core.segcache import model_costs  # segcache imports this module

        staged = self.buffers * max(s.load_bytes for s in self.segments())
        costs = model_costs(self.model, self.platform, self.quant)
        return staged + costs.activation_bytes

    def to_task(
        self,
        period: int,
        deadline: Optional[int] = None,
        priority: int = 0,
        phase: int = 0,
        name: Optional[str] = None,
    ) -> PeriodicTask:
        """Build the schedulable periodic task for this segmented model."""
        return PeriodicTask(
            name=name or self.model.name,
            segments=self.segments(),
            period=period,
            deadline=deadline if deadline is not None else period,
            priority=priority,
            phase=phase,
            buffers=self.buffers,
        )
