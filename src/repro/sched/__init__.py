"""Real-time scheduling substrate: task model, simulator, and analyses.

This package is independent of DNNs: it schedules *segmented periodic
tasks* on a two-resource platform (one CPU + one DMA engine).  The
RT-MDM analyses themselves live in :mod:`repro.core.analysis`.

* :mod:`repro.sched.task` — segments, periodic tasks, jobs, task sets.
* :mod:`repro.sched.policies` — CPU scheduling policies (FP/EDF ×
  preemptive/non-preemptive at segment granularity).
* :mod:`repro.sched.simulator` — deterministic discrete-event simulator.
* :mod:`repro.sched.trace` — execution traces and ASCII Gantt charts.
* :mod:`repro.sched.rta` — task-set, hyperperiod and EDF demand helpers.
"""

from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, SimResult, Simulator, simulate
from repro.sched.svg import trace_to_svg, write_svg
from repro.sched.task import PeriodicTask, Segment, TaskSet, with_dispatch_overhead
from repro.sched.trace import Trace, TraceEvent

__all__ = [
    "Segment",
    "PeriodicTask",
    "TaskSet",
    "CpuPolicy",
    "Simulator",
    "SimConfig",
    "SimResult",
    "simulate",
    "Trace",
    "TraceEvent",
    "trace_to_svg",
    "write_svg",
    "with_dispatch_overhead",
]
