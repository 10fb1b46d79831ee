"""Per-request admission control for the online runtime.

Every ``ADMIT`` runs a four-stage pipeline, each stage reusing the
existing offline machinery so decisions stay fast:

1. **Online re-segmentation** — the requested model is planned into the
   currently *free* SRAM through :mod:`repro.core.segcache` (the same
   granularity/budget policy as the offline planner); repeat requests
   for the same model at similar budgets hit the plan cache.  No fit →
   rejection with an ``sram`` justification.
2. **Fast screen** — the candidate union is checked with the
   suspension-oblivious bound, the ``oblivious`` analysis of
   :mod:`repro.core.analysis` itself (serialized per-job demand,
   segment-granular non-preemptive blocking, chained release jitter).
   Only where the screen provably dominates the configured analysis
   (:func:`screen_decides`: ``oblivious``, ``overlap`` or ``rtmdm``
   with no fault budget) does a pass admit and skip the analysis.
3. **Full analysis** — otherwise the configured analysis runs via
   :func:`repro.core.segcache.cached_analyze`, on the fault-inflated
   set (:func:`~repro.sched.task.inflate_loads`) when a budget is set.
4. **Degradation ladder** — on analysis failure the request is retried
   at stretched periods and/or as a reduced fallback variant
   (:func:`degrade_ladder`, shared with the fleet service) before any
   hard rejection.

``REMOVE`` always succeeds (dropping releases only removes
interference); ``RESCALE`` goes through the mode-change protocols in
:mod:`repro.online.modechange`.  Every decision — including each
rejection's justification — is recorded as a :class:`Decision`.

SRAM is accounted conservatively: a departing instance's buffers stay
reserved until its last possible residual job has completed, so a new
admission can never overlap buffers with a draining predecessor.

Candidate-set priorities are deadline-monotonic over a global total
order ``(deadline, instance name)``; per-decision analyses and the final
union simulation both derive their priorities from this same order, so
relative priorities agree everywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import segcache
from repro.core.analysis import METHODS, analyze
from repro.core.buffers import BUFFER_ALIGN
from repro.core.framework import granularity
from repro.core.segmentation import SegmentationError
from repro.dnn.quantization import INT8, Quantization
from repro.hw.platform import Platform
from repro.online.events import Request, RequestKind
from repro.online.modechange import Protocol, drain_start
from repro.robust.overload import degraded_variant
from repro.sched.task import PeriodicTask, Segment, TaskSet, inflate_loads

#: Analyses a nominal screen pass implies (``tests/test_prop_screen.py``
#: checks the dominance).  ``holistic`` is not dominated.
SCREEN_DOMINATED = ("oblivious", "overlap", "rtmdm")


@dataclass(frozen=True)
class Instance:
    """One admitted incarnation of a logical task.

    Re-admissions and rescales create fresh instances (unique
    ``instance`` names), so the union of all instances ever admitted is
    a valid task set for one simulation run.
    """

    instance: str
    task: str
    model: str
    segments: Tuple[Segment, ...]
    period: int
    deadline: int
    buffers: int
    sram_bytes: int
    mode: str
    start_cycle: int
    stop_cycle: Optional[int] = None

    def to_periodic(self, priority: int = 0, phase: int = 0) -> PeriodicTask:
        """Materialize as a schedulable task (analysis or simulation)."""
        return PeriodicTask(
            name=self.instance,
            segments=self.segments,
            period=self.period,
            deadline=self.deadline,
            priority=priority,
            phase=phase,
            buffers=self.buffers,
        )

    def to_dict(self) -> Dict:
        """Plain-data form (checkpoint payloads, chaos comparisons).

        Segments are embedded in full, so a restored instance never
        consults the plan cache — checkpoints are plan-cache-independent
        by construction.
        """
        return {
            "instance": self.instance,
            "task": self.task,
            "model": self.model,
            "segments": [
                {
                    "name": s.name,
                    "load_cycles": s.load_cycles,
                    "compute_cycles": s.compute_cycles,
                    "load_bytes": s.load_bytes,
                    "xip_bytes": s.xip_bytes,
                }
                for s in self.segments
            ],
            "period": self.period,
            "deadline": self.deadline,
            "buffers": self.buffers,
            "sram_bytes": self.sram_bytes,
            "mode": self.mode,
            "start_cycle": self.start_cycle,
            "stop_cycle": self.stop_cycle,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "Instance":
        return cls(
            instance=d["instance"],
            task=d["task"],
            model=d["model"],
            segments=tuple(Segment(**s) for s in d["segments"]),
            period=d["period"],
            deadline=d["deadline"],
            buffers=d["buffers"],
            sram_bytes=d["sram_bytes"],
            mode=d["mode"],
            start_cycle=d["start_cycle"],
            stop_cycle=d["stop_cycle"],
        )


@dataclass(frozen=True)
class Decision:
    """One recorded admission decision (the decision log entry).

    ``outcome`` is one of ``admitted`` / ``rejected`` / ``removed`` /
    ``rescaled`` / ``ignored``.  For admissions, ``mode`` says at what
    service level (``full``, ``rate/<f>``, ``variant``,
    ``variant+rate/<f>``) and ``reason`` which test justified it
    (``rta-oblivious`` fast screen or ``analysis``).  For rejections,
    ``reason`` carries the justification (``sram: ...``, ``rta: ...``,
    ``rta-transition: ...``, ``drain-unbounded: ...``).
    """

    seq: int
    time_s: float
    kind: str
    task: str
    outcome: str
    model: str = ""
    mode: str = ""
    reason: str = ""
    protocol: str = ""
    instance: str = ""
    sram_bytes: int = 0
    start_cycle: int = -1
    latency_us: float = 0.0

    def to_dict(self) -> Dict:
        # latency_us is deliberately absent: the JSON event log must be
        # bit-identical across same-seed runs; wall-clock decision
        # latency is reported via the benchmark suite meta instead.
        return {
            "seq": self.seq,
            "time_s": self.time_s,
            "kind": self.kind,
            "task": self.task,
            "outcome": self.outcome,
            "model": self.model,
            "mode": self.mode,
            "reason": self.reason,
            "protocol": self.protocol,
            "instance": self.instance,
            "sram_bytes": self.sram_bytes,
            "start_cycle": self.start_cycle,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "Decision":
        """Rebuild a decision from :meth:`to_dict` output.

        ``latency_us`` is intentionally not round-tripped (it is
        wall-clock, excluded from the serialized form); restored
        decisions carry ``0.0`` there, which keeps the *serialized*
        decision log bit-identical across checkpoint/restore.
        """
        return cls(**d)


class CheckpointError(RuntimeError):
    """A checkpoint payload cannot be restored into this controller."""


class AdmissionController:
    """Stateful per-request admission control over one platform."""

    def __init__(
        self,
        platform: Platform,
        quant: Quantization = INT8,
        buffers: int = 2,
        method: str = "rtmdm",
        protocol: Protocol = Protocol.AUTO,
        stretch_factors: Sequence[float] = (1.25, 1.5, 2.0),
        degrade_factor: float = 0.5,
        retry_budget: int = 0,
        fault_overhead_cycles: int = 0,
    ) -> None:
        if buffers < 1:
            raise ValueError(f"buffers must be >= 1, got {buffers}")
        if method not in METHODS:
            raise ValueError(
                f"unknown analysis method {method!r} (known: {', '.join(METHODS)})"
            )
        if not all(1.0 < f < math.inf for f in stretch_factors):
            raise ValueError(
                f"stretch factors must be finite and > 1, got {stretch_factors}"
            )
        if not 0.0 < degrade_factor <= 1.0:
            raise ValueError(f"degrade_factor must be in (0, 1], got {degrade_factor}")
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        if fault_overhead_cycles < 0:
            raise ValueError(
                f"fault_overhead_cycles must be >= 0, got {fault_overhead_cycles}"
            )
        self._platform = platform
        self._quant = quant
        self._buffers = buffers
        self._method = method
        self._protocol = protocol
        self._stretch = tuple(stretch_factors)
        self._degrade_factor = degrade_factor
        # Fault-aware admission: every job may suffer up to retry_budget
        # transfer faults, each costing fault_overhead_cycles of extra
        # DMA demand (derive the cost from the handler config via
        # repro.robust.escalation.fault_overhead_cycles).  Zero budget
        # (the default) keeps decisions bit-identical to fault-oblivious
        # admission.
        self._retry_budget = retry_budget
        self._fault_overhead = fault_overhead_cycles
        self._screen_decides = screen_decides(
            method, retry_budget, fault_overhead_cycles
        )
        self._resident: Dict[str, Instance] = {}
        self._retired: List[Instance] = []
        self._reservations: List[Tuple[int, int]] = []
        self._counters: Dict[str, int] = {}
        self.decisions: List[Decision] = []

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------
    @property
    def platform(self) -> Platform:
        """The platform this controller admits against."""
        return self._platform

    @property
    def resident(self) -> Dict[str, Instance]:
        """Live instances by logical task name (read-only view)."""
        return dict(self._resident)

    @property
    def retry_budget(self) -> int:
        """Per-job fault tolerance the admission guarantee covers."""
        return self._retry_budget

    def all_instances(self) -> List[Instance]:
        """Every instance ever admitted (live + stopped), in admit order."""
        live = sorted(self._resident.values(), key=lambda i: i.instance)
        return self._retired + live

    def reserved_sram(self, at_cycle: int) -> int:
        """Total SRAM held at ``at_cycle``: resident + draining buffers.

        Pure query (no reservation pruning) — the invariant monitor calls
        it between decisions without perturbing controller state.
        """
        used = sum(i.sram_bytes for i in self._resident.values())
        used += sum(b for until, b in self._reservations if until > at_cycle)
        return used

    def free_sram(self, at_cycle: int) -> int:
        """Unreserved SRAM at ``at_cycle`` (draining buffers still held)."""
        self._reservations = [
            (until, b) for until, b in self._reservations if until > at_cycle
        ]
        return self._platform.usable_sram_bytes - self.reserved_sram(at_cycle)

    def _instance_name(self, logical: str) -> str:
        count = self._counters.get(logical, 0) + 1
        self._counters[logical] = count
        return logical if count == 1 else f"{logical}#{count}"

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def config_echo(self) -> Dict:
        """The decision-relevant configuration, for checkpoint validation.

        Two controllers with equal echoes make identical decisions on
        identical request streams, so restoring across a mismatch would
        silently break replay determinism — :meth:`restore` rejects it.
        """
        return {
            "platform": self._platform.name,
            "sram_bytes": self._platform.usable_sram_bytes,
            "quant": self._quant.name,
            "buffers": self._buffers,
            "method": self._method,
            "protocol": self._protocol.value,
            "stretch": list(self._stretch),
            "degrade_factor": self._degrade_factor,
            "retry_budget": self._retry_budget,
            "fault_overhead_cycles": self._fault_overhead,
        }

    def snapshot(self) -> Dict:
        """Full decision-relevant state as plain JSON-serializable data.

        Captures resident and retired instances (segments embedded, so
        no plan-cache dependency), SRAM drain reservations, instance-name
        counters (degradation-ladder / re-admission positions), and the
        decision log.  ``restore()`` of this payload into a controller
        with the same configuration is state-equivalent: every later
        request gets a bit-identical decision.
        """
        return {
            "schema": "rtmdm-checkpoint/1",
            "config": self.config_echo(),
            "counters": dict(self._counters),
            "resident": [
                self._resident[task].to_dict() for task in self._resident
            ],
            "retired": [inst.to_dict() for inst in self._retired],
            "reservations": [[until, b] for until, b in self._reservations],
            "decisions": [d.to_dict() for d in self.decisions],
        }

    def restore(self, state: Dict) -> None:
        """Replace this controller's state with a :meth:`snapshot` payload.

        Raises:
            CheckpointError: unknown schema, or the payload was taken
                under a different decision-relevant configuration.
        """
        schema = state.get("schema")
        if schema != "rtmdm-checkpoint/1":
            raise CheckpointError(f"unknown checkpoint schema {schema!r}")
        echo = self.config_echo()
        recorded = state.get("config", {})
        if recorded != echo:
            diff = {
                k: (recorded.get(k), echo.get(k))
                for k in set(recorded) | set(echo)
                if recorded.get(k) != echo.get(k)
            }
            raise CheckpointError(
                f"checkpoint was taken under a different configuration: "
                f"{diff} (recorded vs restoring)"
            )
        try:
            resident = [Instance.from_dict(d) for d in state["resident"]]
            retired = [Instance.from_dict(d) for d in state["retired"]]
            reservations = [
                (int(until), int(b)) for until, b in state["reservations"]
            ]
            decisions = [Decision.from_dict(d) for d in state["decisions"]]
            counters = {str(k): int(v) for k, v in state["counters"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc
        self._resident = {inst.task: inst for inst in resident}
        self._retired = retired
        self._reservations = reservations
        self._counters = counters
        self.decisions = decisions

    # ------------------------------------------------------------------
    # Planning and schedulability
    # ------------------------------------------------------------------
    def _plan(
        self, model_name: str, deadline: int, budget: int
    ) -> Tuple[Tuple[Segment, ...], int]:
        """Segment ``model_name`` into ``budget`` bytes (framework policy).

        Raises:
            SegmentationError: no segmentation fits the budget.
        """
        return plan_segments(
            self._platform, model_name, deadline, budget,
            quant=self._quant, buffers=self._buffers,
        )

    def _rank(self, instances: Sequence[Instance]) -> List[PeriodicTask]:
        """Deadline-monotonic tasks over the global total order."""
        ordered = sorted(instances, key=lambda i: (i.deadline, i.instance))
        return [inst.to_periodic(priority=rank) for rank, inst in enumerate(ordered)]

    def _schedulable(self, tasks: Sequence[PeriodicTask]) -> Tuple[bool, str]:
        """Admission test: the fast screen where its pass proves the
        configured analysis passes (:func:`screen_decides`), otherwise
        the analysis itself."""
        if self._screen_decides and oblivious_screen(tasks):
            return True, "rta-oblivious"
        taskset = TaskSet.of(tasks)
        if self._retry_budget > 0 and self._fault_overhead > 0:
            taskset = inflate_loads(
                taskset, self._retry_budget, self._fault_overhead
            )
        result = segcache.cached_analyze(taskset, self._method)
        return result.schedulable, "analysis"

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Decision:
        """Decide one request; append to and return the decision log entry."""
        start_ns = time.perf_counter_ns()
        t = self._platform.mcu.seconds_to_cycles(request.time_s)
        if request.kind is RequestKind.ADMIT:
            decision = self._admit(request, t)
        elif request.kind is RequestKind.REMOVE:
            decision = self._remove(request, t)
        else:
            decision = self._rescale(request, t)
        decision = replace(
            decision,
            seq=len(self.decisions),
            latency_us=(time.perf_counter_ns() - start_ns) / 1000.0,
        )
        self.decisions.append(decision)
        return decision

    def _decision(self, request: Request, **kwargs) -> Decision:
        return Decision(
            seq=0,
            time_s=request.time_s,
            kind=request.kind.value,
            task=request.task,
            model=kwargs.pop("model", request.model),
            **kwargs,
        )

    def _request_timing(self, request: Request) -> Tuple[int, int]:
        cycles = self._platform.mcu.seconds_to_cycles
        period = max(1, cycles(request.period_s))
        deadline = cycles(request.deadline_s) if request.deadline_s else period
        return period, min(period, max(1, deadline))

    def _admit(self, request: Request, t: int) -> Decision:
        if request.task in self._resident:
            return self._decision(
                request, outcome="ignored", reason="already-resident"
            )
        period, deadline = self._request_timing(request)
        budget = self.free_sram(t)
        try:
            segments, cost = self._plan(request.model, deadline, budget)
        except SegmentationError as exc:
            return self._decision(request, outcome="rejected", reason=f"sram: {exc}")
        name = self._instance_name(request.task)
        for mode, p, d, segs in degrade_ladder(
            period, deadline, segments, self._stretch, self._degrade_factor
        ):
            candidate = Instance(
                instance=name,
                task=request.task,
                model=request.model,
                segments=segs,
                period=p,
                deadline=d,
                buffers=self._buffers,
                sram_bytes=cost,
                mode=mode,
                start_cycle=t,
            )
            ok, path = self._schedulable(
                self._rank([*self._resident.values(), candidate])
            )
            if ok:
                start, protocol = self._admit_switch(t)
                candidate = replace(candidate, start_cycle=start)
                self._resident[request.task] = candidate
                return self._decision(
                    request,
                    outcome="admitted",
                    mode=mode,
                    reason=path,
                    protocol=protocol,
                    instance=name,
                    sram_bytes=cost,
                    start_cycle=start,
                )
        return self._decision(
            request,
            outcome="rejected",
            reason=(
                "rta: unschedulable in every mode (full, rate-stretch "
                f"{self._stretch}, variant x{self._degrade_factor})"
            ),
        )

    def _admit_switch(self, t: int) -> Tuple[int, str]:
        """Switch cycle for an admit (see :mod:`repro.online.modechange`).

        Immediate is always sound for admits (the union analysis just
        passed), so a forced drain falls back to immediate when no
        finite idle-instant bound exists.
        """
        if self._protocol is Protocol.DRAIN and self._resident:
            start = drain_start(
                t, [i.to_periodic() for i in self._resident.values()]
            )
            if start is not None:
                return start, "drain"
        return t, "immediate"

    def _remove(self, request: Request, t: int) -> Decision:
        instance = self._resident.pop(request.task, None)
        if instance is None:
            return self._decision(request, outcome="ignored", reason="not-resident")
        self._retired.append(replace(instance, stop_cycle=t))
        # Residual jobs (released before t) complete within one deadline;
        # their staging buffers stay reserved until then.
        self._reservations.append((t + instance.deadline, instance.sram_bytes))
        return self._decision(
            request,
            outcome="removed",
            model=instance.model,
            instance=instance.instance,
            protocol="immediate",
        )

    def _rescale(self, request: Request, t: int) -> Decision:
        old = self._resident.get(request.task)
        if old is None:
            return self._decision(request, outcome="ignored", reason="not-resident")
        period, deadline = self._request_timing(request)
        try:
            segments, cost = self._plan(old.model, deadline, self.free_sram(t))
        except SegmentationError as exc:
            return self._decision(
                request, outcome="rejected", model=old.model,
                reason=f"sram: {exc}",
            )
        name = self._instance_name(request.task)
        new = Instance(
            instance=name,
            task=request.task,
            model=old.model,
            segments=segments,
            period=period,
            deadline=deadline,
            buffers=self._buffers,
            sram_bytes=cost,
            mode="full",
            start_cycle=t,
        )
        if self._protocol is not Protocol.DRAIN:
            # Transitional union: others + outgoing + incoming, sporadic.
            ok, path = self._schedulable(
                self._rank([*self._resident.values(), new])
            )
            if ok:
                self._switch_instance(request.task, old, new, t, t)
                return self._decision(
                    request,
                    outcome="rescaled",
                    model=old.model,
                    mode="full",
                    reason=path,
                    protocol="immediate",
                    instance=name,
                    sram_bytes=cost,
                    start_cycle=t,
                )
            if self._protocol is Protocol.IMMEDIATE:
                return self._decision(
                    request,
                    outcome="rejected",
                    model=old.model,
                    reason="rta-transition: transitional union unschedulable",
                )
        start = drain_start(
            t, [i.to_periodic() for i in self._resident.values()]
        )
        if start is None:
            return self._decision(
                request,
                outcome="rejected",
                model=old.model,
                reason=(
                    "drain-unbounded: serialized utilization >= 1, "
                    "no finite idle-instant bound"
                ),
            )
        others = [i for i in self._resident.values() if i.task != request.task]
        ok, path = self._schedulable(self._rank([*others, new]))
        if not ok:
            return self._decision(
                request,
                outcome="rejected",
                model=old.model,
                reason="rta: new rate unschedulable even after drain",
            )
        self._switch_instance(request.task, old, new, t, start)
        return self._decision(
            request,
            outcome="rescaled",
            model=old.model,
            mode="full",
            reason=path,
            protocol="drain",
            instance=name,
            sram_bytes=cost,
            start_cycle=start,
        )

    def _switch_instance(
        self, logical: str, old: Instance, new: Instance, stop: int, start: int
    ) -> None:
        """Commit a rescale: stop ``old`` at ``stop``, start ``new`` at ``start``."""
        self._retired.append(replace(old, stop_cycle=stop))
        self._reservations.append(
            (max(stop + old.deadline, start), old.sram_bytes)
        )
        self._resident[logical] = replace(new, start_cycle=start)


# ----------------------------------------------------------------------
# The shared planning policy (per-device controller + fleet service)
# ----------------------------------------------------------------------


def plan_segments(
    platform: Platform,
    model_name: str,
    deadline: int,
    budget: int,
    quant: Quantization = INT8,
    buffers: int = 2,
) -> Tuple[Tuple[Segment, ...], int]:
    """Segment ``model_name`` into ``budget`` bytes (framework policy).

    The single online planning policy: granularity from
    :func:`repro.core.framework.granularity` for one task with this
    deadline in the free-SRAM budget, everything routed through
    :mod:`repro.core.segcache` (and through the persistent
    :mod:`repro.core.planstore` tier when one is configured).  Both
    :class:`AdmissionController` and the fleet service call this
    function, so a fleet admission plans bit-identically to a
    single-device admission with the same inputs.

    Returns:
        ``(segments, cost_bytes)`` where ``cost_bytes`` includes the
        aligned buffer slack actually reserved.

    Raises:
        SegmentationError: no segmentation fits the budget.
    """
    model = segcache.cached_build_model(model_name)
    chunk, cap, macs_cap = granularity(budget, 1, buffers, deadline)
    refined = segcache.cached_refine_model(model, quant, chunk, macs_cap)
    seg = segcache.cached_search_segmentation(
        refined,
        platform,
        budget,
        quant=quant,
        buffers=buffers,
        max_segment_compute=cap,
    )
    cost = seg.sram_need_bytes() + (buffers + 1) * BUFFER_ALIGN
    if cost > budget:
        raise SegmentationError(
            f"{model_name}: segmentation needs {cost} B with alignment "
            f"slack but only {budget} B are free"
        )
    return seg.segments(), cost


def degrade_ladder(
    period: int,
    deadline: int,
    segments: Tuple[Segment, ...],
    stretch_factors: Sequence[float],
    degrade_factor: float,
) -> Iterator[Tuple[str, int, int, Tuple[Segment, ...]]]:
    """The degradation ladder: full service first, then fallbacks.

    Yields ``(mode, period, deadline, segments)`` rungs: ``full``, one
    ``rate/<f>`` per stretch factor, then (when ``degrade_factor < 1``)
    ``variant`` and ``variant+rate/<last f>``.  Rate stretches reuse the
    original segmentation (the granularity cap came from the tighter
    original deadline, so it stays valid); the variant rungs shrink
    every segment with :func:`repro.robust.overload.degraded_variant`,
    standing in for a smaller model variant at unchanged buffer
    reservations (recovery to full service needs no re-planning).  The
    variant is computed lazily, once the earlier rungs are consumed.

    Callers own the policy over the rungs: the controller screens and
    then analyzes each, the fleet service screens only.
    """
    yield "full", period, deadline, segments

    def stretch(factor: float) -> Tuple[int, int]:
        p = int(round(period * factor))
        return p, min(p, int(round(deadline * factor)))

    for factor in stretch_factors:
        yield (f"rate/{factor:g}", *stretch(factor), segments)
    if degrade_factor < 1.0:
        task = PeriodicTask("variant", segments, period, deadline)
        variant = degraded_variant(task, degrade_factor)
        yield "variant", period, deadline, variant
        if stretch_factors:
            factor = stretch_factors[-1]
            yield (f"variant+rate/{factor:g}", *stretch(factor), variant)


# ----------------------------------------------------------------------
# The admission screen (shared by the per-request controller and the
# fleet service)
# ----------------------------------------------------------------------


def screen_decides(method: str, retry_budget: int = 0, fault_overhead: int = 0) -> bool:
    """Whether an :func:`oblivious_screen` pass may stand in for ``method``.

    True only where the screen dominates the analysis: a method in
    :data:`SCREEN_DOMINATED` with no fault budget.  Everywhere else a
    screen pass proves nothing, and admission runs the analysis.
    """
    return method in SCREEN_DOMINATED and retry_budget * fault_overhead == 0


def oblivious_screen(tasks: Sequence[PeriodicTask]) -> bool:
    """The admission screen: the verdict of the ``oblivious`` analysis.

    Serialized per-job demand ``sum(C) + sum(L)``, segment-granular
    non-preemptive blocking (``n_seg * max_lp_C + n_load * max_lp_L``)
    and release jitter ``R_j - E_j`` chained in priority order.  Every
    term dominates the corresponding term of the ``overlap`` analysis,
    so a pass implies ``rtmdm`` passes too; it does not imply
    ``holistic`` passes (:func:`screen_decides` says where a pass may
    admit).  Plain :func:`~repro.core.analysis.analyze`, not the cached
    one: the screen stays off the analysis cache and its counters.
    """
    return analyze(TaskSet.of(tasks), "oblivious").schedulable


def mass_screen(task_lists: Sequence[Sequence[PeriodicTask]]) -> List[bool]:
    """:func:`oblivious_screen` over many candidate rankings, in order.

    The fleet service's screen entry point: one verdict per list.
    """
    return [oblivious_screen(t) for t in task_lists]
