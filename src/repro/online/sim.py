"""Simulator variant for dynamic task sets.

The offline :class:`~repro.sched.simulator.Simulator` releases every
task from its phase to the horizon.  The online runtime needs tasks
that *stop* releasing mid-run (departures, and outgoing instances of a
rescale): :class:`DynamicSimulator` takes a per-task stop cycle and
suppresses releases from that cycle on.  Jobs released before the stop
still run to completion — exactly the drain semantics the mode-change
protocols assume.

Starts need no extension: an instance's start cycle is its ``phase``.

:func:`simulate_dynamic` sends runs without stops through
:func:`~repro.sched.simulator.simulate`, so they run on simcore (and
fold steady state there) whenever it models the config; only runs with
stop cycles need the scalar subclass.
"""

from __future__ import annotations

from typing import Mapping

from repro.sched.simulator import SimConfig, Simulator, SimResult, simulate
from repro.sched.task import PeriodicTask, TaskSet


class DynamicSimulator(Simulator):
    """A :class:`Simulator` whose tasks can stop releasing mid-run."""

    def __init__(
        self,
        taskset: TaskSet,
        config: SimConfig,
        stops: Mapping[str, int] = (),
    ) -> None:
        super().__init__(taskset, config)
        self._stops = dict(stops)
        for name, stop in self._stops.items():
            taskset.by_name(name)  # raises KeyError on unknown names
            if stop < 0:
                raise ValueError(f"stop cycle for {name!r} must be >= 0, got {stop}")

    def _release(
        self, time: int, task: PeriodicTask, task_pos: int, index: int
    ) -> bool:
        stop = self._stops.get(task.name)
        if stop is not None and time >= stop:
            # The task departed: no job, and no further releases (they
            # would all be at or after this one).
            return False
        return super()._release(time, task, task_pos, index)


def simulate_dynamic(
    taskset: TaskSet, config: SimConfig, stops: Mapping[str, int] = ()
) -> SimResult:
    """Run ``taskset`` to completion, stopping releases at ``stops``.

    Without stops this is :func:`~repro.sched.simulator.simulate`: the
    same result as :class:`DynamicSimulator` in every field but the fold
    telemetry.
    """
    if not stops:
        return simulate(taskset, config)
    return DynamicSimulator(taskset, config, stops).run()
