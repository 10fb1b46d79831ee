"""RT-MDM framework: the top-level user API.

:class:`RtMdm` takes DNN models with periods, a hardware platform and an
SRAM budget, and produces a :class:`Configuration`:

1. **Budgeting** — refine every model to the granularity the tightest
   deadline and the SRAM size allow (:func:`granularity`), then split
   usable SRAM among tasks (:func:`sram_budgets`): each task gets its
   minimum (finest-granularity) need, and the remainder is distributed
   proportionally to model weight size (bigger models benefit more from
   coarser segments).
2. **Segmentation** — per-task latency-minimizing segmentation within its
   budget (:func:`repro.core.segmentation.search_segmentation`).
3. **Buffer planning** — concrete SRAM layout with alignment
   (:func:`repro.core.buffers.plan_sram`).
4. **Priority assignment** — DM first, Audsley fallback
   (:func:`repro.core.priority.assign_priorities`).
5. **Admission** — the chosen schedulability analysis
   (:func:`repro.core.analysis.analyze`); the configuration is
   *admitted* only if every task's WCRT bound meets its deadline.

A :class:`Configuration` can then be simulated
(:meth:`Configuration.simulate`) to observe actual response times.

:func:`granularity` and :func:`sram_budgets` are the one copy of the
planning policy: the synthetic workload generator
(:func:`repro.workload.taskset.generate_case`) and the online planner
(:func:`repro.online.admission.plan_segments`) call them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import AnalysisResult, analyze
from repro.core.buffers import BUFFER_ALIGN, SramPlan, plan_sram
from repro.core.pipeline import SegmentedModel
from repro.core.placement import (
    FlashPlacement,
    choose_flash_residents,
    resident_segmentation,
)
from repro.core.priority import assign_priorities, deadline_monotonic
from repro.core.segcache import model_costs
from repro.core.segmentation import SegmentationError, search_segmentation
from repro.dnn.models import Model, refine_model
from repro.dnn.quantization import INT8, Quantization
from repro.hw.platform import Platform
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, SimResult, simulate
from repro.sched.task import TaskSet

#: Non-preemptive section cap: min deadline divided by this (see
#: :func:`granularity`).
NP_CAP_DIVISOR = 8


def granularity(
    sram_bytes: int, n_tasks: int, buffers: int, min_deadline: int
) -> Tuple[int, int, int]:
    """The granularity policy: ``(chunk, cap, macs_cap)``.

    * ``chunk`` — filter-group chunk cap for granularity normalization:
      no single staged chunk may claim more than ``sram_bytes /
      (n_tasks * buffers * 2)`` bytes, so every task's buffers fit
      (floored at 2 KiB so tiny platforms still converge);
    * ``cap`` — compute cycles per segment.  Segment boundaries are the
      only preemption points, so the longest segment bounds
      priority-inversion blocking; capping sections at ``min_deadline /
      NP_CAP_DIVISOR`` keeps total blocking a modest deadline fraction
      while EXP-F9 shows the latency cost is ~1%;
    * ``macs_cap`` — MACs per refined layer, so one layer fits ``cap``
      at ~5 cycles/MAC (the worst kind).
    """
    chunk = max(2048, sram_bytes // (n_tasks * buffers * 2))
    cap = max(1000, min_deadline // NP_CAP_DIVISOR)
    macs_cap = max(1000, (cap - 4000) // 5)
    return chunk, cap, macs_cap


def lone_chunk(sram_bytes: int, buffers: int) -> int:
    """Refinement chunk cap for one model planned alone in ``sram_bytes``.

    The single-model tools (EXP-F3/F9/F11/F14, ``rtmdm inspect``) have
    no co-runners, so :func:`granularity`'s per-task share and its
    compute cap (which bounds the blocking a task inflicts on others) do
    not apply.  They refine to a quarter of one of ``buffers`` slots,
    twice as fine as :func:`granularity` would for one task, and leave
    the segmentation search to merge chunks back within the budget.
    """
    return max(2048, sram_bytes // (4 * buffers))


def plan_lone_model(
    model: Model, platform: Platform, sram_bytes: int
) -> Tuple[Model, SegmentedModel]:
    """Refine ``model`` at :func:`lone_chunk` and segment it alone.

    Returns the refined model and its double-buffered segmentation
    within the whole ``sram_bytes``; raises
    :class:`~repro.core.segmentation.SegmentationError` if none fits.
    """
    refined = refine_model(model, INT8, lone_chunk(sram_bytes, 2))
    return refined, search_segmentation(refined, platform, sram_bytes, INT8, buffers=2)


def sram_budgets(
    refined: Sequence[Tuple[str, Model]],
    platform: Platform,
    quant: Quantization,
    buffers: int,
    capacity: int,
) -> Optional[Dict[str, int]]:
    """Split ``capacity`` SRAM bytes among the staged ``refined`` models.

    Each task gets its minimum (finest-granularity) need, ``buffers``
    slots of its largest layer plus its peak activations; the remainder
    is distributed proportionally to model weight size (bigger models
    benefit more from coarser segments).  ``{}`` when nothing is staged,
    None when even the minima don't fit.
    """
    if not refined:
        return {}
    minima = {}
    weights = {}
    for name, model in refined:
        costs = model_costs(model, platform, quant)
        minima[name] = buffers * costs.max_weight + costs.activation_bytes
        weights[name] = max(1, costs.prefix_w[-1])
    total_min = sum(minima.values())
    if total_min > capacity:
        return None
    leftover = capacity - total_min
    total_weight = sum(weights.values())
    return {
        name: minima[name] + int(leftover * weights[name] / total_weight)
        for name, _ in refined
    }


@dataclass(frozen=True)
class TaskSpec:
    """One DNN inference task as specified by the user.

    Attributes:
        name: Unique task name.
        model: The DNN to run.
        period_s: Release period in seconds.
        deadline_s: Relative deadline in seconds (defaults to the period).
    """

    name: str
    model: Model
    period_s: float
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError(f"task {self.name}: period_s must be positive")
        if self.deadline_s is not None and not 0 < self.deadline_s <= self.period_s:
            raise ValueError(
                f"task {self.name}: deadline_s must be in (0, period_s]"
            )


@dataclass(frozen=True)
class Configuration:
    """A fully-planned multi-DNN deployment.

    Attributes:
        platform: Target hardware.
        quant: Deployment quantization.
        taskset: Prioritized, segmented periodic tasks (cycles).
        segmented: Per-task segmented models.
        sram_plan: Concrete SRAM layout.
        analysis: Admission analysis result.
        feasible: False when SRAM could not hold the task set at all.
        infeasible_reason: Human-readable reason when not feasible.
    """

    platform: Platform
    quant: Quantization
    taskset: Optional[TaskSet]
    segmented: Dict[str, SegmentedModel]
    sram_plan: Optional[SramPlan]
    analysis: Optional[AnalysisResult]
    feasible: bool
    infeasible_reason: str = ""
    placement: Optional[FlashPlacement] = None

    @property
    def admitted(self) -> bool:
        """True iff the deployment is feasible *and* analysed schedulable."""
        return (
            self.feasible
            and self.analysis is not None
            and self.analysis.schedulable
        )

    def simulate(
        self,
        duration_s: Optional[float] = None,
        policy: CpuPolicy = CpuPolicy.FP_NP,
        phases: Optional[Sequence[int]] = None,
        record_trace: bool = False,
        abort_on_miss: bool = False,
    ) -> SimResult:
        """Run the discrete-event simulator on this configuration.

        Args:
            duration_s: Release horizon in seconds; defaults to two
                hyperperiods capped at 200 jobs of the slowest task.
            policy: CPU policy (default matches the analysis model).
            phases: Optional per-task release offsets in cycles.
            record_trace: Keep a full execution trace.
            abort_on_miss: Stop at the first deadline miss.
        """
        if not self.feasible or self.taskset is None:
            raise RuntimeError(
                f"cannot simulate an infeasible configuration: {self.infeasible_reason}"
            )
        taskset = self.taskset
        if phases is not None:
            taskset = taskset.with_phases(list(phases))
        config = SimConfig(
            policy=policy,
            dma_arbitration=self.platform.dma.arbitration,
            horizon=self.horizon_cycles(duration_s),
            record_trace=record_trace,
            abort_on_miss=abort_on_miss,
        )
        return simulate(taskset, config)

    def horizon_cycles(self, duration_s: Optional[float] = None) -> int:
        """Simulation release horizon in cycles.

        ``duration_s`` converted to cycles, or by default two
        hyperperiods capped at 200 jobs of the slowest task.  Raises
        ``ValueError`` for a duration that is not a positive, finite
        cycle count.
        """
        if duration_s is None:
            from repro.sched.rta import try_hyperperiod

            periods = [t.period for t in self.taskset]
            hp = try_hyperperiod(periods)
            cap = 200 * max(periods)
            return min(2 * hp, cap) if hp else cap
        horizon = self.platform.mcu.seconds_to_cycles(duration_s)
        if horizon <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        return horizon

    def report_rows(self) -> List[dict]:
        """Per-task summary rows (the case-study table)."""
        if not self.feasible or self.taskset is None:
            return []
        mcu = self.platform.mcu
        rows = []
        for task in self.taskset.sorted_by_priority():
            segmented = self.segmented[task.name]
            bound = self.analysis.wcrt[task.name] if self.analysis else None
            plan = self.sram_plan.plan_for(task.name) if self.sram_plan else None
            rows.append(
                {
                    "task": task.name,
                    "model": segmented.model.name,
                    "priority": task.priority,
                    "period_ms": mcu.cycles_to_ms(task.period),
                    "deadline_ms": mcu.cycles_to_ms(task.deadline),
                    "segments": task.num_segments,
                    "sram_kib": (plan.total_bytes / 1024) if plan else 0.0,
                    "latency_ms": mcu.cycles_to_ms(segmented.isolated_latency()),
                    "wcrt_ms": mcu.cycles_to_ms(bound) if bound is not None else None,
                    "weights_in": (
                        "flash"
                        if self.placement and self.placement.is_resident(task.name)
                        else "external"
                    ),
                    "admitted": bound is not None
                    and bound <= task.deadline,
                }
            )
        return rows


class RtMdm:
    """Builder for multi-DNN deployments on an MCU with external memory.

    Typical use::

        rt = RtMdm(get_platform("f746-qspi"))
        rt.add_task("kws", build_model("ds-cnn"), period_s=0.032)
        rt.add_task("vww", build_model("mobilenet-v1-0.25"), period_s=0.250)
        config = rt.configure()
        assert config.admitted
        result = config.simulate()
    """

    def __init__(
        self,
        platform: Platform,
        quant: Quantization = INT8,
        buffers: int = 2,
        analysis_method: str = "rtmdm",
        use_internal_flash: bool = False,
        code_reserve_bytes: int = 256 * 1024,
    ) -> None:
        if buffers < 1:
            raise ValueError(f"buffers must be >= 1, got {buffers}")
        if code_reserve_bytes < 0:
            raise ValueError(
                f"code_reserve_bytes must be >= 0, got {code_reserve_bytes}"
            )
        self.platform = platform
        self.quant = quant
        self.buffers = buffers
        self.analysis_method = analysis_method
        self.use_internal_flash = use_internal_flash
        self.code_reserve_bytes = code_reserve_bytes
        self._specs: List[TaskSpec] = []

    def add_task(
        self,
        name: str,
        model: Model,
        period_s: float,
        deadline_s: Optional[float] = None,
    ) -> "RtMdm":
        """Register one DNN inference task; returns self for chaining."""
        if any(s.name == name for s in self._specs):
            raise ValueError(f"duplicate task name {name!r}")
        self._specs.append(
            TaskSpec(name=name, model=model, period_s=period_s, deadline_s=deadline_s)
        )
        return self

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _infeasible(
        self,
        reason: str,
        segmented: Optional[Dict[str, SegmentedModel]] = None,
        sram_plan: Optional[SramPlan] = None,
        placement: Optional[FlashPlacement] = None,
    ) -> Configuration:
        return Configuration(
            platform=self.platform,
            quant=self.quant,
            taskset=None,
            segmented=segmented or {},
            sram_plan=sram_plan,
            analysis=None,
            feasible=False,
            infeasible_reason=reason,
            placement=placement,
        )

    def _place_weights(self) -> FlashPlacement:
        """Decide which models stay in internal flash (if enabled)."""
        if not self.use_internal_flash:
            return FlashPlacement(resident=(), flash_used=0, flash_budget=0)
        budget = self.platform.mcu.flash_bytes - self.code_reserve_bytes
        return choose_flash_residents(
            [(s.name, s.model, s.period_s) for s in self._specs],
            flash_budget=budget,
            quant=self.quant,
        )

    def configure(self) -> Configuration:
        """Plan the deployment end to end (see module docstring)."""
        if not self._specs:
            raise RuntimeError("add at least one task before configure()")
        mcu = self.platform.mcu
        min_deadline = min(
            mcu.seconds_to_cycles(
                spec.deadline_s if spec.deadline_s is not None else spec.period_s
            )
            for spec in self._specs
        )
        chunk, cap, macs_cap = granularity(
            self.platform.usable_sram_bytes, len(self._specs), self.buffers, min_deadline
        )
        self._specs = [
            TaskSpec(
                name=spec.name,
                model=refine_model(spec.model, self.quant, chunk, macs_cap),
                period_s=spec.period_s,
                deadline_s=spec.deadline_s,
            )
            for spec in self._specs
        ]
        placement = self._place_weights()
        segmented: Dict[str, SegmentedModel] = {}
        resident_sram = 0
        for spec in self._specs:
            if placement.is_resident(spec.name):
                segmented[spec.name] = resident_segmentation(
                    spec.model, self.platform, self.quant, max_segment_compute=cap
                )
                resident_sram += segmented[spec.name].sram_need_bytes() + BUFFER_ALIGN
        external_specs = [
            s for s in self._specs if not placement.is_resident(s.name)
        ]
        # Every staged task reserves alignment slack for its buffers and
        # activations; the split shares what is left.
        budgets = sram_budgets(
            [(s.name, s.model) for s in external_specs],
            self.platform,
            self.quant,
            self.buffers,
            self.platform.usable_sram_bytes
            - resident_sram
            - len(external_specs) * (self.buffers + 1) * BUFFER_ALIGN,
        )
        if budgets is None:
            return self._infeasible(
                "SRAM cannot hold the finest-granularity buffers of all tasks",
                placement=placement,
            )
        try:
            for spec in external_specs:
                segmented[spec.name] = search_segmentation(
                    spec.model,
                    self.platform,
                    budgets[spec.name],
                    quant=self.quant,
                    buffers=self.buffers,
                    max_segment_compute=cap,
                )
        except SegmentationError as error:
            return self._infeasible(str(error), placement=placement)
        sram_plan = plan_sram(
            [(spec.name, segmented[spec.name]) for spec in self._specs],
            self.platform,
        )
        if not sram_plan.fits:
            return self._infeasible(
                f"SRAM plan exceeds capacity by {-sram_plan.free_bytes} bytes",
                segmented=segmented,
                sram_plan=sram_plan,
                placement=placement,
            )
        tasks = []
        for spec in self._specs:
            period = mcu.seconds_to_cycles(spec.period_s)
            deadline = (
                mcu.seconds_to_cycles(spec.deadline_s)
                if spec.deadline_s is not None
                else period
            )
            tasks.append(
                segmented[spec.name].to_task(
                    period=period, deadline=deadline, name=spec.name
                )
            )
        taskset = TaskSet.of(tasks)
        prioritized = assign_priorities(taskset, "dm+audsley", self.analysis_method)
        if prioritized is None:
            prioritized = deadline_monotonic(taskset)  # best effort for reports
        analysis = analyze(prioritized, self.analysis_method)
        return Configuration(
            platform=self.platform,
            quant=self.quant,
            taskset=prioritized,
            segmented=segmented,
            sram_plan=sram_plan,
            analysis=analysis,
            feasible=True,
            placement=placement,
        )
