"""Whole-job non-preemptive baseline.

The job still pipelines its own loads internally (double buffering), but
the scheduler offers no inter-task switch points until the job finishes:
one job = one non-preemptive section of its isolated pipelined latency.
This is how a runtime without a segment-level scheduler behaves, and it
isolates the schedulability benefit of RT-MDM's segment boundaries.

During the job the DMA is dedicated to it, so the section length is the
isolated latency and no DMA leg is exposed to other tasks.
"""

from __future__ import annotations

from repro.core.pipeline import isolated_latency
from repro.sched.task import PeriodicTask, Segment


def whole_job(task: PeriodicTask) -> PeriodicTask:
    """Collapse a segmented task into one non-preemptive section."""
    section = Segment(
        name=f"{task.name}/whole",
        load_cycles=0,
        compute_cycles=isolated_latency(task.segments, task.buffers),
        load_bytes=sum(s.load_bytes for s in task.segments),
    )
    return PeriodicTask(
        name=task.name,
        segments=(section,),
        period=task.period,
        deadline=task.deadline,
        priority=task.priority,
        phase=task.phase,
        buffers=task.buffers,
    )
