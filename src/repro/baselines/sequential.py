"""Sequential baseline: staging with no transfer/compute overlap.

This is what a straightforward port of a TinyML runtime to external
memory does: for each segment, the CPU kicks the transfer and busy-waits,
then runs the kernels.  The loads therefore consume CPU time and the DMA
is never contended (there is at most one transfer in flight system-wide,
always owned by the running task).

Modelled by folding each segment's load cycles into its compute cycles
and dropping the DMA leg.
"""

from __future__ import annotations

from repro.sched.task import PeriodicTask, Segment


def sequentialize(task: PeriodicTask) -> PeriodicTask:
    """The sequential (busy-wait staging) version of a segmented task."""
    segments = tuple(
        Segment(
            name=s.name,
            load_cycles=0,
            compute_cycles=s.compute_cycles + s.load_cycles,
            load_bytes=s.load_bytes,
        )
        for s in task.segments
    )
    return PeriodicTask(
        name=task.name,
        segments=segments,
        period=task.period,
        deadline=task.deadline,
        priority=task.priority,
        phase=task.phase,
        buffers=1,
    )
