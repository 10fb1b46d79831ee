"""Online admission control and mode-change runtime.

Everything else in the library is *offline*: a scenario is fixed up
front, planned once, and simulated to completion.  This package adds the
deployment-time layer on top of that stack — DNN tasks arrive, depart
and change rate at runtime, and every change is admitted only if the
whole system provably stays schedulable:

* :mod:`repro.online.events` — timestamped request traces
  (``ADMIT`` / ``REMOVE`` / ``RESCALE`` events) with JSON round-trip.
* :mod:`repro.online.admission` — per-request admission control: online
  re-segmentation through the plan cache, a fast screen (the
  ``oblivious`` analysis of :mod:`repro.core.analysis`), the configured
  RT-MDM analysis, and a degradation ladder (reduced rate / smaller
  variant) before any hard rejection.
* :mod:`repro.online.modechange` — sound mode-change protocols:
  immediate switch where analysis covers the transition, otherwise
  drain-then-switch behind an idle-instant bound.
* :mod:`repro.online.sim` — a simulator variant whose tasks can stop
  releasing mid-run (departures, rescale switch-overs).
* :mod:`repro.online.runtime` — the serve loop: replay a trace, decide
  every request, then execute the whole admitted schedule on the
  simulator and check that no admitted job ever misses.  Execution can
  inject external-memory faults (:mod:`repro.robust.escalation` /
  :mod:`repro.robust.recovery`); a post-run health monitor compares
  observed fault rates against the admitted retry budget and drives
  over-budget tasks through the mode-change path.
* :mod:`repro.online.durable` — crash tolerance for the serve loop: a
  CRC-tagged write-ahead decision journal, controller checkpoint /
  restore with suffix-only replay, an ingress gate normalizing
  at-least-once delivery, and an inline runtime invariant monitor.
"""

from repro.online.admission import (
    AdmissionController,
    CheckpointError,
    Decision,
    Instance,
)
from repro.online.durable import (
    DecisionJournal,
    DurableServeResult,
    Envelope,
    IngressGate,
    InjectedCrash,
    InvariantMonitor,
    InvariantViolation,
    JournalError,
    RecoveryReport,
    StreamError,
    envelope_stream,
    recover,
    scan_journal,
    serve_durable,
    serve_trace_durable,
)
from repro.online.events import (
    Request,
    RequestKind,
    RequestTrace,
    TraceFormatError,
)
from repro.online.modechange import Protocol, drain_start, idle_instant_bound
from repro.online.runtime import OnlineRuntime, ServeReport
from repro.online.sim import DynamicSimulator

__all__ = [
    "AdmissionController",
    "CheckpointError",
    "Decision",
    "DecisionJournal",
    "DurableServeResult",
    "DynamicSimulator",
    "Envelope",
    "IngressGate",
    "InjectedCrash",
    "Instance",
    "InvariantMonitor",
    "InvariantViolation",
    "JournalError",
    "OnlineRuntime",
    "Protocol",
    "RecoveryReport",
    "Request",
    "RequestKind",
    "RequestTrace",
    "ServeReport",
    "StreamError",
    "TraceFormatError",
    "drain_start",
    "envelope_stream",
    "idle_instant_bound",
    "recover",
    "scan_journal",
    "serve_durable",
    "serve_trace_durable",
]
