"""Unit tests for the online admission-control runtime (``repro.online``)."""

from __future__ import annotations

import math
import random

import pytest

from conftest import make_task
from repro.core import segcache
from repro.hw.presets import get_platform
from repro.online.admission import AdmissionController
from repro.online.events import Request, RequestKind, RequestTrace
from repro.online.modechange import (
    Protocol,
    idle_instant_bound,
    serialized_utilization,
)
from repro.online.runtime import OnlineRuntime
from repro.online.sim import DynamicSimulator, simulate_dynamic
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig
from repro.sched.task import TaskSet
from repro.workload.arrivals import bursty_trace, poisson_trace

PLATFORM = get_platform("f746-qspi")


@pytest.fixture(autouse=True)
def fresh_caches():
    segcache.clear_all()
    yield
    segcache.clear_all()


def _admit(time_s, task, model="tinyconv", period_s=0.2, deadline_s=0.0):
    return Request(
        time_s=time_s, kind=RequestKind.ADMIT, task=task, model=model,
        period_s=period_s, deadline_s=deadline_s,
    )


def _remove(time_s, task):
    return Request(time_s=time_s, kind=RequestKind.REMOVE, task=task)


def _rescale(time_s, task, period_s):
    return Request(
        time_s=time_s, kind=RequestKind.RESCALE, task=task, period_s=period_s
    )


class TestEvents:
    def test_request_validation(self):
        with pytest.raises(ValueError, match="time"):
            _admit(-1.0, "a")
        with pytest.raises(ValueError, match="task"):
            Request(time_s=0, kind=RequestKind.REMOVE, task="")
        with pytest.raises(ValueError, match="model"):
            Request(time_s=0, kind=RequestKind.ADMIT, task="a", period_s=1.0)
        with pytest.raises(ValueError, match="period"):
            Request(time_s=0, kind=RequestKind.ADMIT, task="a", model="lenet5")
        with pytest.raises(ValueError, match="period"):
            Request(time_s=0, kind=RequestKind.RESCALE, task="a")
        with pytest.raises(ValueError, match="deadline"):
            _admit(0.0, "a", period_s=0.2, deadline_s=0.3)

    def test_trace_ordering_and_validation(self):
        trace = RequestTrace.of(
            [_admit(2.0, "b"), _admit(1.0, "a")], duration_s=5.0
        )
        assert [r.task for r in trace] == ["a", "b"]
        with pytest.raises(ValueError):
            RequestTrace.of([_admit(6.0, "a")], duration_s=5.0)

    def test_json_round_trip(self):
        trace = RequestTrace.of(
            [
                _admit(0.5, "kws", model="ds-cnn", period_s=0.25),
                _rescale(1.0, "kws", period_s=0.5),
                _remove(2.0, "kws"),
            ],
            duration_s=4.0,
        )
        restored = RequestTrace.from_json(trace.to_json())
        assert restored == trace
        assert '"rtmdm-trace/1"' in trace.to_json()

    def test_generated_trace_round_trip(self):
        trace = poisson_trace(6.0, 1.5, seed=11)
        assert RequestTrace.from_json(trace.to_json()) == trace
        # Pure function of the arguments.
        assert poisson_trace(6.0, 1.5, seed=11) == trace
        assert poisson_trace(6.0, 1.5, seed=12) != trace

    def test_bursty_trace_round_trip_and_determinism(self):
        trace = bursty_trace(6.0, 1.5, seed=11)
        assert RequestTrace.from_json(trace.to_json()) == trace
        assert bursty_trace(6.0, 1.5, seed=11) == trace
        assert bursty_trace(6.0, 1.5, seed=12) != trace
        # Different process than Poisson at the same seed.
        assert trace != poisson_trace(6.0, 1.5, seed=11)

    def test_bursty_trace_preserves_mean_rate(self):
        # The MMPP's OFF rate is solved so the long-run mean matches
        # rate_hz; over many seeds the ADMIT count should straddle the
        # Poisson expectation within a loose band.
        rate, duration = 2.0, 20.0
        admits = [
            sum(
                1
                for r in bursty_trace(duration, rate, seed=s)
                if r.kind is RequestKind.ADMIT
            )
            for s in range(12)
        ]
        mean = sum(admits) / len(admits)
        assert 0.7 * rate * duration < mean < 1.3 * rate * duration

    def test_bursty_trace_clusters_arrivals(self):
        # With a high burst factor the coefficient of variation of
        # inter-arrival gaps must exceed the Poisson baseline (~1).
        def cv(trace):
            times = sorted(
                r.time_s for r in trace if r.kind is RequestKind.ADMIT
            )
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return (var ** 0.5) / mean

        bursty_cv = sum(
            cv(bursty_trace(30.0, 3.0, seed=s, burst_factor=8.0, duty=0.1))
            for s in range(5)
        )
        poisson_cv = sum(cv(poisson_trace(30.0, 3.0, seed=s)) for s in range(5))
        assert bursty_cv > 1.3 * poisson_cv

    def test_bursty_trace_validation(self):
        with pytest.raises(ValueError, match="burst_factor"):
            bursty_trace(5.0, 1.0, seed=1, burst_factor=0.5)
        with pytest.raises(ValueError, match="duty"):
            bursty_trace(5.0, 1.0, seed=1, duty=1.5)
        with pytest.raises(ValueError, match="OFF rate"):
            bursty_trace(5.0, 1.0, seed=1, burst_factor=8.0, duty=0.25)
        with pytest.raises(ValueError, match="mean_cycle_s"):
            bursty_trace(5.0, 1.0, seed=1, mean_cycle_s=0.0)

    @pytest.mark.parametrize("make", [poisson_trace, bursty_trace])
    @pytest.mark.parametrize("name", ["duration_s", "rate_hz", "mean_lifetime_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, make, name, value):
        # NaN or infinite horizons and rates would never end the
        # arrival loop; an infinite lifetime mean divides by zero.
        kwargs = {"duration_s": 5.0, "rate_hz": 1.0, "seed": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"burst_factor": float("nan")}, "burst_factor"),
        ({"mean_cycle_s": float("inf")}, "mean_cycle_s"),
        ({"mean_cycle_s": float("nan")}, "mean_cycle_s"),
    ])
    def test_bursty_non_finite_phase_parameters_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            bursty_trace(5.0, 1.0, seed=1, **kwargs)


class TestModeChange:
    def test_empty_set_is_idle_now(self):
        assert idle_instant_bound([]) == 0

    def test_overutilized_has_no_bound(self):
        task = make_task("t", [(400, 700)], period=1000)
        assert serialized_utilization([task]) > 1.0
        assert idle_instant_bound([task]) is None

    def test_known_fixpoint(self):
        # Serialized demand 300 per 1000 plus 200 per 800: L* solves
        # L = ceil(L/1000)*300 + ceil(L/800)*200 -> 500.
        a = make_task("a", [(100, 200)], period=1000)
        b = make_task("b", [(0, 200)], period=800)
        assert idle_instant_bound([a, b]) == 500

    def test_bound_dominates_simulated_busy_period(self):
        rng = random.Random(42)
        for _ in range(10):
            tasks = []
            for i in range(rng.randint(2, 4)):
                period = rng.randint(500, 3000)
                compute = rng.randint(1, period // 8)
                load = rng.randint(0, period // 16)
                tasks.append(
                    make_task(f"t{i}", [(load, compute)], period=period,
                              priority=i)
                )
            bound = idle_instant_bound(tasks)
            assert bound is not None  # util <= 3/8 by construction
            # One synchronous job per task (stop right after the first
            # release): the whole backlog must clear within L*.
            result = simulate_dynamic(
                TaskSet.of(tasks),
                SimConfig(policy=CpuPolicy.FP_NP, horizon=2 * bound + 10),
                stops={t.name: 1 for t in tasks},
            )
            makespan = max(
                result.max_response(t.name) for t in tasks
            )
            assert all(s.unfinished == 0 for s in result.stats.values())
            assert makespan <= bound


class TestDynamicSimulator:
    def test_stop_suppresses_releases(self):
        task = make_task("t", [(0, 10)], period=100)
        config = SimConfig(policy=CpuPolicy.FP_NP, horizon=1000)
        full = simulate_dynamic(TaskSet.of([task]), config)
        stopped = simulate_dynamic(TaskSet.of([task]), config, {"t": 500})
        assert full.stats["t"].jobs == 10
        assert stopped.stats["t"].jobs == 5  # releases at 0..400 only

    def test_job_released_before_stop_completes(self):
        task = make_task("t", [(0, 80)], period=100)
        config = SimConfig(policy=CpuPolicy.FP_NP, horizon=1000)
        result = simulate_dynamic(TaskSet.of([task]), config, {"t": 1})
        assert result.stats["t"].jobs == 1
        assert result.stats["t"].unfinished == 0
        assert result.max_response("t") == 80

    def test_unknown_stop_name_rejected(self):
        task = make_task("t", [(0, 10)], period=100)
        config = SimConfig(policy=CpuPolicy.FP_NP, horizon=1000)
        with pytest.raises(KeyError):
            DynamicSimulator(TaskSet.of([task]), config, {"ghost": 5})
        with pytest.raises(ValueError):
            DynamicSimulator(TaskSet.of([task]), config, {"t": -1})


class TestAdmissionController:
    def test_admit_then_remove(self):
        ctrl = AdmissionController(PLATFORM)
        d = ctrl.handle(_admit(0.0, "kws", model="ds-cnn", period_s=0.4))
        assert d.outcome == "admitted" and d.mode == "full"
        assert d.reason in ("rta-oblivious", "analysis")
        assert d.protocol == "immediate"
        assert "kws" in ctrl.resident
        d2 = ctrl.handle(_remove(1.0, "kws"))
        assert d2.outcome == "removed"
        assert "kws" not in ctrl.resident
        # Retired instance keeps its stop cycle for the final execution.
        stopped = [i for i in ctrl.all_instances() if i.stop_cycle is not None]
        assert len(stopped) == 1
        assert stopped[0].stop_cycle == PLATFORM.mcu.seconds_to_cycles(1.0)

    def test_duplicate_admit_ignored(self):
        ctrl = AdmissionController(PLATFORM)
        ctrl.handle(_admit(0.0, "a"))
        d = ctrl.handle(_admit(0.5, "a"))
        assert d.outcome == "ignored" and d.reason == "already-resident"

    def test_remove_unknown_ignored(self):
        ctrl = AdmissionController(PLATFORM)
        d = ctrl.handle(_remove(0.0, "nobody"))
        assert d.outcome == "ignored" and d.reason == "not-resident"

    def test_sram_rejection_reason(self):
        tiny = PLATFORM.with_sram_bytes(24 * 1024)  # ~8 KiB usable
        ctrl = AdmissionController(tiny)
        d = ctrl.handle(_admit(0.0, "big", model="resnet8", period_s=0.8))
        assert d.outcome == "rejected"
        assert d.reason.startswith("sram:")

    def test_sram_freed_after_drain_window(self):
        ctrl = AdmissionController(PLATFORM)
        d = ctrl.handle(_admit(0.0, "a", model="ds-cnn", period_s=0.4))
        free_before = ctrl.free_sram(PLATFORM.mcu.seconds_to_cycles(0.1))
        ctrl.handle(_remove(1.0, "a"))
        cycles = PLATFORM.mcu.seconds_to_cycles
        # Still reserved while a residual job may run...
        assert ctrl.free_sram(cycles(1.1)) == free_before
        # ...and released after the departing instance's deadline passed.
        assert ctrl.free_sram(cycles(1.5)) == free_before + d.sram_bytes

    def test_degradation_ladder_before_rejection(self):
        ctrl = AdmissionController(PLATFORM)
        # resnet8's isolated latency (~173 ms) exceeds this deadline, so
        # full service cannot pass; the ladder must kick in.
        d = ctrl.handle(_admit(0.0, "fast", model="resnet8", period_s=0.1))
        assert d.outcome == "admitted"
        assert d.mode != "full"

    def test_hopeless_rate_rejected_with_rta_reason(self):
        ctrl = AdmissionController(
            PLATFORM, stretch_factors=(1.25,), degrade_factor=1.0
        )
        # No variant fallback and only a tiny stretch: a deadline far
        # below resnet8's latency exhausts the whole ladder.
        d = ctrl.handle(_admit(0.0, "fast", model="resnet8", period_s=0.1))
        assert d.outcome == "rejected"
        assert d.reason.startswith("rta:")

    def test_rescale_resident_task(self):
        ctrl = AdmissionController(PLATFORM)
        ctrl.handle(_admit(0.0, "kws", model="ds-cnn", period_s=0.4))
        d = ctrl.handle(_rescale(1.0, "kws", period_s=0.8))
        assert d.outcome == "rescaled"
        assert d.protocol in ("immediate", "drain")
        assert ctrl.resident["kws"].instance == "kws#2"
        assert ctrl.resident["kws"].period == PLATFORM.mcu.seconds_to_cycles(0.8)

    def test_rescale_unknown_ignored(self):
        ctrl = AdmissionController(PLATFORM)
        d = ctrl.handle(_rescale(0.0, "nobody", period_s=0.5))
        assert d.outcome == "ignored"

    def test_drain_protocol_delays_start(self):
        ctrl = AdmissionController(PLATFORM, protocol=Protocol.DRAIN)
        ctrl.handle(_admit(0.0, "a", model="ds-cnn", period_s=0.4))
        d = ctrl.handle(_admit(1.0, "b", model="lenet5", period_s=0.2))
        assert d.outcome == "admitted"
        assert d.protocol == "drain"
        assert d.start_cycle > PLATFORM.mcu.seconds_to_cycles(1.0)

    def test_decision_log_sequencing(self):
        ctrl = AdmissionController(PLATFORM)
        ctrl.handle(_admit(0.0, "a"))
        ctrl.handle(_remove(1.0, "a"))
        assert [d.seq for d in ctrl.decisions] == [0, 1]
        assert all(d.latency_us >= 0 for d in ctrl.decisions)

    @pytest.mark.parametrize("buffers", [0, -1])
    def test_rejects_buffers_below_one(self, buffers):
        with pytest.raises(ValueError, match="buffers"):
            AdmissionController(PLATFORM, buffers=buffers)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="bogus"):
            AdmissionController(PLATFORM, method="bogus")

    @pytest.mark.parametrize("factor", [1.0, 0.5, math.inf, math.nan])
    def test_rejects_stretch_factors_outside_one_to_infinity(self, factor):
        """An infinite factor would otherwise pass construction and die
        with an OverflowError at the first request that reaches a rate
        rung; the runtime raises it at construction."""
        with pytest.raises(ValueError, match="stretch factors"):
            AdmissionController(PLATFORM, stretch_factors=(1.25, factor))
        with pytest.raises(ValueError, match="stretch factors"):
            OnlineRuntime(PLATFORM, stretch_factors=(factor,))


class TestOnlineRuntime:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"stretch_factors": (math.inf,)}, "stretch factors"),
            ({"buffers": 0}, "buffers"),
            ({"method": "nope"}, "nope"),
            ({"degrade_factor": 0}, "degrade_factor"),
            ({"retry_budget": -1}, "retry_budget"),
            ({"fault_overhead_cycles": -1}, "fault_overhead_cycles"),
        ],
    )
    def test_rejects_bad_controller_arguments_at_construction(self, kwargs, match):
        """The runtime stores its controller arguments for later
        controllers (serving, journal recovery); a bad one raises when
        the runtime is built, not when serving starts."""
        with pytest.raises(ValueError, match=match):
            OnlineRuntime(PLATFORM, **kwargs)


class TestServeReport:
    def test_aggregates_and_dict(self):
        runtime = OnlineRuntime(PLATFORM)
        trace = RequestTrace.of(
            [
                _admit(0.1, "kws", model="ds-cnn", period_s=0.4),
                _admit(0.2, "wake", model="tinyconv", period_s=0.2),
                _remove(2.0, "wake"),
                _remove(3.0, "ghost"),
            ],
            duration_s=4.0,
        )
        report = runtime.serve(trace)
        assert report.requests == 4
        assert report.admit_requests == 2
        assert report.admitted == 2
        assert report.admission_ratio == 1.0
        assert report.sound
        payload = report.to_dict(mcu=PLATFORM.mcu)
        assert payload["schema"] == "rtmdm-serve/1"
        assert payload["ignored"] == 1
        assert len(payload["decisions"]) == 4
        assert payload["sim"]["total_misses"] == 0
        latency = payload["decision_latency_us"]
        assert latency["n"] == 4
        assert set(latency) == {"n", "mean", "p50", "p95", "p99", "max"}
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]

    def test_serve_without_simulation(self):
        runtime = OnlineRuntime(PLATFORM)
        trace = RequestTrace.of([_admit(0.0, "a")], duration_s=1.0)
        report = runtime.serve(trace, simulate=False)
        assert report.sim is None
        assert report.sound  # vacuously: decisions only
        assert "sim" not in report.to_dict()


class TestSoundnessInvariant:
    """ISSUE acceptance: across seeded random request traces, no admitted
    job misses a deadline in fault-free execution, and every rejection is
    justified by a failed schedulability argument or SRAM infeasibility.
    """

    GRID = [
        (seed, rate, kib, proto)
        for seed in range(4)
        for rate, kib in ((1.0, 160), (2.5, 256))
        for proto in (Protocol.AUTO, Protocol.IMMEDIATE, Protocol.DRAIN)
    ]  # 24 traces

    @pytest.mark.parametrize("seed,rate,kib,proto", GRID)
    def test_admitted_never_miss(self, seed, rate, kib, proto):
        platform = get_platform("f746-qspi").with_sram_bytes(kib * 1024)
        trace = poisson_trace(8.0, rate, seed=9000 + 37 * seed)
        report = OnlineRuntime(platform, protocol=proto).serve(trace)
        assert report.sound, (
            f"admitted instance missed a deadline (seed={seed}, rate={rate}, "
            f"sram={kib}KiB, protocol={proto.value})"
        )
        for d in report.decisions:
            if d.outcome == "rejected":
                assert d.reason.startswith(
                    ("sram:", "rta:", "rta-transition:", "drain-unbounded:")
                ), f"unjustified rejection: {d}"

    def test_decision_paths_all_exercised(self):
        """The invariant grid is only meaningful if it actually exercises
        admissions, degradations and both rejection families."""
        totals = {"admitted": 0, "degraded": 0, "sram": 0, "rta": 0}
        for seed, rate, kib, proto in self.GRID:
            platform = get_platform("f746-qspi").with_sram_bytes(kib * 1024)
            trace = poisson_trace(8.0, rate, seed=9000 + 37 * seed)
            report = OnlineRuntime(platform, protocol=proto).serve(
                trace, simulate=False
            )
            totals["admitted"] += report.admitted
            totals["degraded"] += report.degraded
            totals["sram"] += report.rejected_sram
            totals["rta"] += report.rejected_rta
        assert all(v > 0 for v in totals.values()), totals


class TestRescaleTransitions:
    """RESCALE transitional-union edge cases (mode-change accounting)."""

    def _monitor_ok(self, ctrl, time_s):
        from repro.online.durable import InvariantMonitor

        InvariantMonitor(ctrl).check(PLATFORM.mcu.seconds_to_cycles(time_s))

    def test_zero_stretch_rescale_to_same_period(self):
        """A RESCALE to the current period is a no-op rate-wise but still
        a full instance switch: the transitional union contains the task
        twice at the same rate and must pass without special-casing."""
        ctrl = AdmissionController(PLATFORM)
        ctrl.handle(_admit(0.0, "kws", model="ds-cnn", period_s=0.4))
        old = ctrl.resident["kws"]
        d = ctrl.handle(_rescale(1.0, "kws", period_s=0.4))
        assert d.outcome == "rescaled"
        new = ctrl.resident["kws"]
        assert new.instance == "kws#2"
        assert new.period == old.period
        retired = [i for i in ctrl.all_instances() if i.stop_cycle is not None]
        assert [i.instance for i in retired] == ["kws"]
        assert new.start_cycle >= retired[0].stop_cycle
        self._monitor_ok(ctrl, 1.0)

    def test_back_to_back_rescales_chain_cleanly(self):
        """Two RESCALEs on the same task before the first drain window
        closes: each switch must retire its predecessor, keep start/stop
        ordered along the chain, and hold both drain reservations."""
        ctrl = AdmissionController(PLATFORM)
        ctrl.handle(_admit(0.0, "kws", model="ds-cnn", period_s=0.4))
        d1 = ctrl.handle(_rescale(0.5, "kws", period_s=0.8))
        d2 = ctrl.handle(_rescale(0.6, "kws", period_s=0.3))
        assert d1.outcome == d2.outcome == "rescaled"
        assert ctrl.resident["kws"].instance == "kws#3"
        chain = [i for i in ctrl.all_instances() if i.task == "kws"]
        chain.sort(key=lambda i: i.start_cycle)
        for prev, nxt in zip(chain, chain[1:]):
            assert prev.stop_cycle is not None
            assert nxt.start_cycle >= prev.stop_cycle
        # Both retired instances still hold their drain reservations.
        t = PLATFORM.mcu.seconds_to_cycles(0.6)
        draining = ctrl.reserved_sram(t) - sum(
            i.sram_bytes for i in ctrl.resident.values()
        )
        assert draining >= sum(
            i.sram_bytes for i in chain if i.stop_cycle is not None
        )
        self._monitor_ok(ctrl, 0.6)

    def test_rescale_racing_remove(self):
        """REMOVE arriving between a drained RESCALE's decision and its
        delayed start must retire the not-yet-started successor without
        corrupting the accounting, and free the SRAM only after both
        drain windows close."""
        ctrl = AdmissionController(PLATFORM, protocol=Protocol.DRAIN)
        ctrl.handle(_admit(0.0, "a", model="ds-cnn", period_s=0.4))
        ctrl.handle(_admit(0.1, "b", model="lenet5", period_s=0.2))
        d = ctrl.handle(_rescale(1.0, "a", period_s=0.8))
        assert d.outcome == "rescaled"
        assert d.protocol == "drain"
        start = d.start_cycle
        assert start > PLATFORM.mcu.seconds_to_cycles(1.0)
        removed_at = PLATFORM.mcu.seconds_to_cycles(1.001)
        d = ctrl.handle(_remove(1.001, "a"))
        assert d.outcome == "removed"
        assert "a" not in ctrl.resident
        # The whole chain is stopped; nothing of "a" survives as live.
        chain = [i for i in ctrl.all_instances() if i.task == "a"]
        assert all(i.stop_cycle is not None for i in chain)
        # The successor's buffers stay reserved through its own drain
        # window even though it never released a job.
        assert ctrl.reserved_sram(removed_at) > sum(
            i.sram_bytes for i in ctrl.resident.values()
        )
        self._monitor_ok(ctrl, 1.001)
        # Far past every drain window all of "a"'s SRAM is back.
        horizon = PLATFORM.mcu.seconds_to_cycles(60.0)
        assert ctrl.reserved_sram(horizon) == sum(
            i.sram_bytes for i in ctrl.resident.values()
        )

    def test_rescale_after_remove_is_ignored(self):
        """The inverse race: the REMOVE wins outright, so the late
        RESCALE must be a no-op, not a resurrection."""
        ctrl = AdmissionController(PLATFORM)
        ctrl.handle(_admit(0.0, "kws", model="ds-cnn", period_s=0.4))
        ctrl.handle(_remove(1.0, "kws"))
        d = ctrl.handle(_rescale(1.1, "kws", period_s=0.2))
        assert d.outcome == "ignored"
        assert d.reason == "not-resident"
        assert "kws" not in ctrl.resident
        self._monitor_ok(ctrl, 1.1)


class TestTraceFormat:
    """Hardened JSON round-trip (satellite of the durable-serving work)."""

    def test_round_trip_carries_schema_and_version(self):
        from repro.online.events import TRACE_FORMAT_VERSION, TRACE_SCHEMA
        import json as _json

        trace = RequestTrace.of([_admit(0.5, "kws")], duration_s=2.0)
        payload = _json.loads(trace.to_json())
        assert payload["schema"] == TRACE_SCHEMA
        assert payload["version"] == TRACE_FORMAT_VERSION
        assert RequestTrace.from_json(trace.to_json()).requests == trace.requests

    def test_unknown_schema_and_version_rejected(self):
        from repro.online.events import TraceFormatError

        with pytest.raises(TraceFormatError, match="schema"):
            RequestTrace.from_json('{"schema": "bogus/9"}')
        with pytest.raises(TraceFormatError, match="version"):
            RequestTrace.from_json(
                '{"schema": "rtmdm-trace/1", "version": 99}'
            )

    def test_unknown_kind_lists_known_kinds_with_location(self):
        from repro.online.events import TraceFormatError

        text = (
            '{\n'
            '  "schema": "rtmdm-trace/1",\n'
            '  "version": 1,\n'
            '  "duration_s": 2.0,\n'
            '  "requests": [\n'
            '    {"time_s": 0.1, "kind": "admit", "task": "a",'
            ' "model": "tinyconv", "period_s": 0.2},\n'
            '    {"time_s": 0.5, "kind": "explode", "task": "b"}\n'
            '  ]\n'
            '}\n'
        )
        with pytest.raises(TraceFormatError) as excinfo:
            RequestTrace.from_json(text)
        error = excinfo.value
        assert "explode" in str(error)
        assert "admit, remove, rescale" in str(error)
        assert error.index == 1
        assert error.line == 7  # points at the bad request's line

    def test_missing_fields_and_bad_json(self):
        from repro.online.events import TraceFormatError

        with pytest.raises(TraceFormatError, match="missing required"):
            RequestTrace.from_json('{"schema": "rtmdm-trace/1"}')
        with pytest.raises(TraceFormatError) as excinfo:
            RequestTrace.from_json('{"schema": "rtmdm-trace/1",\n  broken')
        assert excinfo.value.line == 2

    def test_request_level_semantic_error_is_typed(self):
        from repro.online.events import Request, TraceFormatError

        with pytest.raises(TraceFormatError, match="period_s"):
            Request.from_dict(
                {"time_s": 0.1, "kind": "rescale", "task": "a"}, index=3
            )
        with pytest.raises(TraceFormatError, match="request #3"):
            Request.from_dict({"time_s": 0.1, "kind": "admit"}, index=3)
