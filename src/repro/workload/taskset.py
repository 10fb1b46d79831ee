"""Synthetic multi-DNN task-set generation for schedulability sweeps.

The generator mirrors the methodology of the real-time literature this
paper comes from: utilizations from **UUniFast**, task bodies drawn from
the model zoo, periods derived so each task's *CPU* utilization matches
its UUniFast share (``T_i = C_i / u_i``), deadlines implicit or
constrained by a sampled ratio.

Granularity and SRAM budgets come from the framework's one policy
(:func:`repro.core.framework.granularity` with the tightest estimated
deadline, :func:`repro.core.framework.sram_budgets` over all usable
SRAM), planned through the memoized :mod:`repro.core.segcache` path, so
every compared system sees the staged workload RT-MDM would deploy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.framework import granularity, sram_budgets
from repro.core.pipeline import SegmentedModel
from repro.core.priority import deadline_monotonic
from repro.core.segcache import (
    cached_build_model,
    cached_refine_model,
    cached_search_segmentation,
    model_costs,
)
from repro.core.segmentation import SegmentationError
from repro.dnn.models import Model
from repro.dnn.quantization import INT8, Quantization
from repro.hw.platform import Platform
from repro.sched.task import TaskSet

#: Default model pool for synthetic sets: small/medium zoo entries that a
#: handful of tasks can share one MCU's SRAM with.
DEFAULT_MODEL_POOL = (
    "tinyconv",
    "lenet5",
    "ds-cnn",
    "autoencoder",
    "resnet8",
    "mobilenet-v1-0.25",
)


def uunifast(n: int, total_util: float, rng: random.Random) -> List[float]:
    """Draw ``n`` utilizations summing to ``total_util`` (UUniFast).

    The classic unbiased algorithm (Bini & Buttazzo 2005).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if total_util <= 0:
        raise ValueError(f"total_util must be positive, got {total_util}")
    utils = []
    remaining = total_util
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utils.append(remaining - next_remaining)
        remaining = next_remaining
    utils.append(remaining)
    return utils


@dataclass(frozen=True)
class GeneratedCase:
    """One synthetic multi-DNN case.

    Attributes:
        taskset: RT-MDM segmented tasks with DM priorities (cycles).
        segmented: Per-task segmented models (for baseline derivation).
        refined: Per-task granularity-normalized models.
        platform: The platform the case was generated for.
        quant: Quantization.
        target_util: The requested total CPU utilization.
        feasible: False when SRAM could not hold the drawn models at all
            (``taskset`` is None then; all systems count it unschedulable).
    """

    taskset: Optional[TaskSet]
    segmented: Dict[str, SegmentedModel]
    refined: Dict[str, Model]
    platform: Platform
    quant: Quantization
    target_util: float
    feasible: bool


def generate_case(
    platform: Platform,
    total_util: float,
    rng: random.Random,
    n_tasks: Optional[int] = None,
    model_pool: Sequence[str] = DEFAULT_MODEL_POOL,
    quant: Quantization = INT8,
    buffers: int = 2,
    deadline_ratio: Tuple[float, float] = (1.0, 1.0),
) -> GeneratedCase:
    """Draw one synthetic multi-DNN task set at ``total_util``.

    Args:
        platform: Target hardware.
        total_util: Target total CPU utilization (sum of ``C_i / T_i``).
        rng: Seeded random source (reproducibility).
        n_tasks: Number of tasks; default uniform in [3, 5].
        model_pool: Zoo names to draw from (with replacement).
        quant: Quantization scheme.
        buffers: Staging depth for the RT-MDM tasks.
        deadline_ratio: ``(lo, hi)`` range for ``D/T`` sampling;
            ``(1.0, 1.0)`` gives implicit deadlines.
    """
    n = n_tasks if n_tasks is not None else rng.randint(3, 5)
    names = [f"t{i}" for i in range(n)]
    models = [cached_build_model(rng.choice(list(model_pool))) for _ in range(n)]
    utils = uunifast(n, total_util, rng)
    # First pass: estimate periods from total compute to derive the
    # non-preemptive section cap from the tightest deadline.
    est_deadlines = []
    for model, util in zip(models, utils):
        total_compute = model_costs(model, platform, quant).prefix_c[-1]
        est_deadlines.append(
            max(1, round(total_compute / util)) * deadline_ratio[0]
        )
    chunk, cap, macs_cap = granularity(
        platform.usable_sram_bytes, n, buffers, int(min(est_deadlines))
    )
    # The cached planner quantizes the granularity knobs down to coarse
    # deterministic ladders (see repro.core.segcache) so paired draws
    # across sweep points share planning work; quantization applies on
    # cache hits and misses alike, keeping results path-independent.
    refined = {
        name: cached_refine_model(model, quant, chunk, macs_cap)
        for name, model in zip(names, models)
    }
    budgets = sram_budgets(
        list(refined.items()), platform, quant, buffers, platform.usable_sram_bytes
    )
    if budgets is None:
        return GeneratedCase(
            taskset=None,
            segmented={},
            refined=refined,
            platform=platform,
            quant=quant,
            target_util=total_util,
            feasible=False,
        )
    segmented = {}
    tasks = []
    for name, util in zip(names, utils):
        try:
            seg = cached_search_segmentation(
                refined[name],
                platform,
                budgets[name],
                quant=quant,
                buffers=buffers,
                max_segment_compute=cap,
            )
        except SegmentationError:
            return GeneratedCase(
                taskset=None,
                segmented={},
                refined=refined,
                platform=platform,
                quant=quant,
                target_util=total_util,
                feasible=False,
            )
        segmented[name] = seg
        segments = seg.segments()
        total_compute = sum(s.compute_cycles for s in segments)
        period = max(1, round(total_compute / util))
        ratio = rng.uniform(*deadline_ratio)
        deadline = max(1, min(period, round(period * ratio)))
        tasks.append(seg.to_task(period=period, deadline=deadline, name=name))
    taskset = deadline_monotonic(TaskSet.of(tasks))
    return GeneratedCase(
        taskset=taskset,
        segmented=segmented,
        refined=refined,
        platform=platform,
        quant=quant,
        target_util=total_util,
        feasible=True,
    )
