"""The serve loop: replay a request trace, then execute the result.

:class:`OnlineRuntime` wires the pieces together.  Decisions are purely
analytic and happen in request order (each one sees exactly the state
earlier decisions left behind), so after the replay the full instance
schedule — who runs, from which cycle, to which cycle — is determined.
The whole trace then executes as *one* :class:`DynamicSimulator` run
over the union of every instance ever admitted, which is what the
soundness invariant is checked against: in a fault-free run, no job of
any admitted instance may miss its deadline.

The execution may inject external-memory faults (``escalation=`` /
``recovery=``): afterwards a **health monitor** compares each logical
task's observed fault rate against the retry budget the admission
analysis tolerated, and drives over-budget tasks through the regular
mode-change path (rescale to the largest stretch factor, or removal for
quarantined tasks) — the observed-fault feedback loop closing admission
control over the fault model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dnn.quantization import INT8, Quantization
from repro.hw.platform import Platform
from repro.online.admission import AdmissionController, Decision, Instance
from repro.online.events import Request, RequestKind, RequestTrace
from repro.online.modechange import Protocol
from repro.online.sim import simulate_dynamic
from repro.robust.escalation import EscalationConfig
from repro.robust.recovery import RecoveryConfig
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, SimResult
from repro.sched.task import TaskSet


@dataclass
class ServeReport:
    """Outcome of one trace replay (decision log + execution).

    ``health`` is present only when the execution injected faults
    (``escalation=``): per-logical-task observed fault rates, the
    tolerated retry budget, and the mode-change actions the health
    monitor triggered for over-budget or quarantined tasks.
    """

    platform_name: str
    protocol: str
    duration_s: float
    decisions: List[Decision]
    instances: List[Instance]
    sim: Optional[SimResult]
    health: Optional[Dict] = field(default=None)

    # ------------------------------------------------------------------
    # Decision-log aggregates (deterministic)
    # ------------------------------------------------------------------
    def _count(self, **fields) -> int:
        return sum(
            1
            for d in self.decisions
            if all(getattr(d, k) == v for k, v in fields.items())
        )

    @property
    def requests(self) -> int:
        return len(self.decisions)

    @property
    def admit_requests(self) -> int:
        """ADMIT requests that were actually decided (not ignored)."""
        return sum(
            1
            for d in self.decisions
            if d.kind == "admit" and d.outcome != "ignored"
        )

    @property
    def admitted(self) -> int:
        return self._count(outcome="admitted")

    @property
    def degraded(self) -> int:
        """Admissions that needed the degradation ladder."""
        return sum(
            1
            for d in self.decisions
            if d.outcome == "admitted" and d.mode != "full"
        )

    @property
    def rejected_sram(self) -> int:
        return sum(
            1
            for d in self.decisions
            if d.outcome == "rejected" and d.reason.startswith("sram")
        )

    @property
    def rejected_rta(self) -> int:
        """Rejections justified by a failed schedulability argument."""
        return sum(
            1
            for d in self.decisions
            if d.outcome == "rejected" and not d.reason.startswith("sram")
        )

    @property
    def admission_ratio(self) -> float:
        n = self.admit_requests
        return self.admitted / n if n else 1.0

    @property
    def decision_latencies_us(self) -> List[float]:
        """Wall-clock decision latencies (non-deterministic; report-only)."""
        return [d.latency_us for d in self.decisions]

    @property
    def decision_latency_stats(self) -> Dict:
        """p50/p95/p99 decision-latency summary in microseconds.

        The same n/mean/p50/p95/p99/max shape :class:`repro.eval.fleet.
        FleetReport` reports, so single-device and fleet metrics stay
        field-compatible.  Wall-clock, hence non-deterministic across
        runs (the decision *log* stays bit-identical; see
        :meth:`Decision.to_dict`).
        """
        from repro.eval.metrics import latency_stats

        return latency_stats(self.decision_latencies_us)

    @property
    def sound(self) -> bool:
        """True iff no admitted job missed a deadline in the execution."""
        return self.sim is None or self.sim.no_misses

    def to_dict(self, mcu=None) -> Dict:
        """Machine-readable event log (the ``rtmdm serve --json`` payload)."""
        payload: Dict = {
            "schema": "rtmdm-serve/1",
            "platform": self.platform_name,
            "protocol": self.protocol,
            "duration_s": self.duration_s,
            "requests": self.requests,
            "admit_requests": self.admit_requests,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "rejected_sram": self.rejected_sram,
            "rejected_rta": self.rejected_rta,
            "removed": self._count(outcome="removed"),
            "rescaled": self._count(outcome="rescaled"),
            "ignored": self._count(outcome="ignored"),
            "admission_ratio": round(self.admission_ratio, 4),
            "sound": self.sound,
            "decision_latency_us": self.decision_latency_stats,
            "decisions": [d.to_dict() for d in self.decisions],
        }
        if self.sim is not None:
            stats = {}
            for name, s in sorted(self.sim.stats.items()):
                worst = s.max_response
                stats[name] = {
                    "jobs": s.jobs,
                    "misses": s.misses,
                    "unfinished": s.unfinished,
                    "worst_ms": (
                        round(mcu.cycles_to_ms(worst), 3)
                        if mcu is not None and worst is not None
                        else worst
                    ),
                }
            payload["sim"] = {
                "total_misses": self.sim.total_misses,
                "end_ms": (
                    round(mcu.cycles_to_ms(self.sim.end_time), 1)
                    if mcu is not None
                    else self.sim.end_time
                ),
                "tasks": stats,
            }
        if self.health is not None:
            payload["health"] = self.health
        return payload


class OnlineRuntime:
    """Replay a :class:`~repro.online.events.RequestTrace` end to end."""

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
        self.platform = platform
        self.protocol = protocol
        self._stretch = tuple(stretch_factors)
        self._controller_args = dict(
            quant=quant,
            buffers=buffers,
            method=method,
            protocol=protocol,
            stretch_factors=tuple(stretch_factors),
            degrade_factor=degrade_factor,
            retry_budget=retry_budget,
            fault_overhead_cycles=fault_overhead_cycles,
        )
        # Build one controller now so a bad argument raises here, at
        # construction, rather than when serving starts.
        self.controller()

    def controller(self) -> AdmissionController:
        """A fresh admission controller with this runtime's configuration.

        The factory :mod:`repro.online.durable` hands to journal
        recovery: a recovered controller must be configured exactly like
        the one that wrote the journal, and this is the single place
        both come from.
        """
        return AdmissionController(self.platform, **self._controller_args)

    def serve(
        self,
        trace: RequestTrace,
        simulate: bool = True,
        record_trace: bool = False,
        escalation: Optional[EscalationConfig] = None,
        recovery: Optional[RecoveryConfig] = None,
        monitor: bool = False,
    ) -> ServeReport:
        """Decide every request, then execute the admitted schedule.

        With ``escalation`` set the execution injects external-memory
        faults (optionally recovered through ``recovery``) and the
        health monitor afterwards feeds observed fault rates back into
        the admission controller's mode-change path.  Both default to
        ``None``, leaving decisions and execution bit-identical to the
        fault-oblivious runtime.

        ``monitor=True`` runs the :class:`repro.online.durable.
        InvariantMonitor` inline after every decision; violations raise
        immediately (fail-loud) instead of surfacing as downstream
        simulation misses.
        """
        from repro.online.durable import InvariantMonitor

        controller = self.controller()
        mon = InvariantMonitor(controller) if monitor else None
        for request in trace:
            controller.handle(request)
            if mon is not None:
                mon.check(self.platform.mcu.seconds_to_cycles(request.time_s))
        return self.report(
            controller,
            trace.duration_s,
            simulate=simulate,
            record_trace=record_trace,
            escalation=escalation,
            recovery=recovery,
        )

    def report(
        self,
        controller: AdmissionController,
        duration_s: float,
        simulate: bool = True,
        record_trace: bool = False,
        escalation: Optional[EscalationConfig] = None,
        recovery: Optional[RecoveryConfig] = None,
    ) -> ServeReport:
        """Package a decided controller into a :class:`ServeReport`.

        Split out of :meth:`serve` so the durable serving path (which
        owns its own decision loop: journal, ingress gate, crash hooks)
        produces reports through the exact same code.
        """
        instances = controller.all_instances()
        sim = (
            self._execute(
                duration_s, instances, record_trace, escalation, recovery
            )
            if simulate
            else None
        )
        health = None
        if sim is not None and escalation is not None and not escalation.is_null:
            health = self._health_monitor(controller, duration_s, sim, instances)
        return ServeReport(
            platform_name=self.platform.name,
            protocol=self.protocol.value,
            duration_s=duration_s,
            decisions=list(controller.decisions),
            instances=instances,
            sim=sim,
            health=health,
        )

    def _execute(
        self,
        duration_s: float,
        instances: Sequence[Instance],
        record_trace: bool,
        escalation: Optional[EscalationConfig] = None,
        recovery: Optional[RecoveryConfig] = None,
    ) -> Optional[SimResult]:
        horizon = self.platform.mcu.seconds_to_cycles(duration_s)
        started = [
            i
            for i in instances
            if i.start_cycle < horizon
            and (i.stop_cycle is None or i.stop_cycle > i.start_cycle)
        ]
        if not started:
            return None
        ordered = sorted(started, key=lambda i: (i.deadline, i.instance))
        tasks = [
            inst.to_periodic(priority=rank, phase=inst.start_cycle)
            for rank, inst in enumerate(ordered)
        ]
        stops = {
            inst.instance: inst.stop_cycle
            for inst in ordered
            if inst.stop_cycle is not None
        }
        config = SimConfig(
            policy=CpuPolicy.FP_NP,
            dma_arbitration=self.platform.dma.arbitration,
            horizon=horizon,
            record_trace=record_trace,
            escalation=escalation,
            recovery=recovery,
        )
        return simulate_dynamic(TaskSet.of(tasks), config, stops)

    def _health_monitor(
        self,
        controller: AdmissionController,
        duration_s: float,
        sim: SimResult,
        instances: Sequence[Instance],
    ) -> Dict:
        """Feed observed fault rates back into the mode-change path.

        The admission guarantee covers ``retry_budget`` faults per job;
        a logical task observed above that rate has left the analysed
        regime, so the monitor reacts through the *regular* controller
        requests (so the actions land in the decision log with full
        justifications): quarantined tasks are removed, over-budget
        tasks are rescaled to the largest stretch factor (degrade), and
        removed outright if even the stretched rate is rejected.  The
        synthetic requests are stamped at ``duration_s`` — the moment
        the observation window closed.
        """
        logical_of = {inst.instance: inst.task for inst in instances}
        jobs: Dict[str, int] = {}
        faults: Dict[str, int] = {}
        for name, stats in sim.stats.items():
            logical = logical_of.get(name)
            if logical is not None:
                jobs[logical] = jobs.get(logical, 0) + stats.jobs
        for event in sim.fault_events:
            logical = logical_of.get(event.task)
            if logical is not None:
                faults[logical] = faults.get(logical, 0) + 1
        quarantined = {
            logical_of[name] for name in sim.quarantined if name in logical_of
        }
        tolerance = controller.retry_budget
        now = duration_s
        report: Dict[str, Dict] = {}
        for logical in sorted(set(jobs) | set(faults) | quarantined):
            n_jobs = jobs.get(logical, 0)
            n_faults = faults.get(logical, 0)
            # Integer-exact over-budget test: faults-per-job > tolerance.
            over = n_faults > tolerance * n_jobs
            resident = controller.resident.get(logical)
            action = "over-budget" if over else "ok"
            if logical in quarantined:
                action = "quarantined"
                if resident is not None:
                    controller.handle(
                        Request(time_s=now, kind=RequestKind.REMOVE, task=logical)
                    )
                    action = "removed"
            elif over and resident is not None:
                factor = self._stretch[-1]
                period_s = self.platform.mcu.cycles_to_seconds(
                    int(round(resident.period * factor))
                )
                decision = controller.handle(
                    Request(
                        time_s=now,
                        kind=RequestKind.RESCALE,
                        task=logical,
                        period_s=period_s,
                    )
                )
                if decision.outcome == "rescaled":
                    action = "rescaled"
                else:
                    controller.handle(
                        Request(time_s=now, kind=RequestKind.REMOVE, task=logical)
                    )
                    action = "removed"
            report[logical] = {
                "jobs": n_jobs,
                "faults": n_faults,
                "rate": round(n_faults / n_jobs, 4) if n_jobs else None,
                "action": action,
            }
        return {"tolerance": tolerance, "tasks": report}
