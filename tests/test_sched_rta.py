"""Unit tests for the task-set, hyperperiod and EDF demand helpers."""

import pytest

from repro.sched.rta import (
    HYPERPERIOD_CAP,
    HyperperiodError,
    RtaTask,
    edf_demand_schedulable,
    hyperperiod,
    try_hyperperiod,
    utilization,
)


class TestEdfDemand:
    def test_implicit_deadline_full_utilization_schedulable(self):
        tasks = [
            RtaTask("a", 5, 10, 10, 0),
            RtaTask("b", 10, 20, 20, 1),
        ]
        assert utilization(tasks) == pytest.approx(1.0)
        assert edf_demand_schedulable(tasks)

    def test_over_utilized_rejected(self):
        tasks = [
            RtaTask("a", 6, 10, 10, 0),
            RtaTask("b", 10, 20, 20, 1),
        ]
        assert not edf_demand_schedulable(tasks)

    def test_constrained_deadline_demand_violation(self):
        tasks = [
            RtaTask("a", 5, 10, 5, 0),
            RtaTask("b", 4, 20, 8, 1),
        ]
        assert not edf_demand_schedulable(tasks)

    def test_zero_exec_trivially_schedulable(self):
        tasks = [RtaTask("a", 0, 10, 10, 0)]
        assert edf_demand_schedulable(tasks)


class TestHelpers:
    def test_hyperperiod(self):
        assert hyperperiod([10, 15, 35]) == 210
        with pytest.raises(ValueError):
            hyperperiod([])

    def test_hyperperiod_cap(self):
        # Large co-prime periods: pairwise LCMs explode multiplicatively.
        primes = [999999937, 998244353, 1000000007, 1000000009]
        with pytest.raises(HyperperiodError, match="cap"):
            hyperperiod(primes)
        with pytest.raises(HyperperiodError):
            hyperperiod([7, 11], cap=10)
        # cap=None disables the guard entirely.
        import math

        assert hyperperiod(primes, cap=None) == math.lcm(*primes)
        assert hyperperiod([10, 15], cap=30) == 30  # boundary: == cap is fine

    def test_hyperperiod_validation(self):
        with pytest.raises(ValueError):
            hyperperiod([10, 0])
        with pytest.raises(ValueError):
            hyperperiod([10], cap=0)

    def test_try_hyperperiod(self):
        assert try_hyperperiod([10, 15, 35]) == 210
        assert try_hyperperiod([7, 11], cap=10) is None
        assert HYPERPERIOD_CAP > 10**18
        with pytest.raises(ValueError):  # non-cap errors still raise
            try_hyperperiod([])

    def test_rta_task_validation(self):
        with pytest.raises(ValueError):
            RtaTask("x", -1, 10, 10, 0)
        with pytest.raises(ValueError):
            RtaTask("x", 1, 10, 11, 0)
        with pytest.raises(ValueError):
            RtaTask("x", 1, 0, 0, 0)
