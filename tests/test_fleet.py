"""Unit tests for the fleet-scale sharded admission service."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import segcache
from repro.eval.fleet import (
    DEFAULT_COHORTS,
    CohortSpec,
    FleetConfig,
    FleetService,
    decision_identity,
    fleet_trace,
    shard_of,
)
from repro.online.durable import canonical_json, scan_journal
from repro.online.events import RequestKind


@pytest.fixture(autouse=True)
def fresh_caches():
    segcache.clear_all()
    yield
    segcache.clear_all()


def small_trace(arrival="poisson", n_devices=600, duration_s=2.0, seed=7):
    return fleet_trace(
        n_devices, duration_s, 0.35, seed=seed, arrival=arrival
    )


class TestFleetTrace:
    def test_deterministic_and_ordered(self):
        trace = small_trace()
        again = small_trace()
        assert trace == again
        assert small_trace(seed=8) != trace
        times = [r.time_s for r in trace.requests]
        assert times == sorted(times)
        assert [r.seq for r in trace.requests] == list(range(len(times)))

    def test_device_naming_and_cohort_assignment(self):
        trace = small_trace()
        for request in trace.requests:
            assert request.device.startswith("d")
            index = int(request.device[1:])
            assert 0 <= index < trace.n_devices
        # Cohorts partition the fleet by index modulo.
        assert trace.cohorts == DEFAULT_COHORTS

    def test_admit_tasks_unique_per_device(self):
        trace = small_trace()
        seen = set()
        for request in trace.requests:
            if request.kind is RequestKind.ADMIT:
                key = (request.device, request.task)
                assert key not in seen
                seen.add(key)

    def test_bursty_arrival_model(self):
        trace = small_trace(arrival="bursty")
        assert trace.arrival == "bursty"
        assert trace != small_trace()
        with pytest.raises(ValueError, match="arrival"):
            fleet_trace(10, 1.0, 1.0, seed=1, arrival="uniform")

    def test_validation(self):
        with pytest.raises(ValueError, match="n_devices"):
            fleet_trace(0, 1.0, 1.0, seed=1)
        with pytest.raises(ValueError, match="duration_s"):
            fleet_trace(10, 0.0, 1.0, seed=1)
        with pytest.raises(ValueError, match="rate_per_device"):
            fleet_trace(10, 1.0, 0.0, seed=1)
        with pytest.raises(ValueError, match="cohorts"):
            fleet_trace(10, 1.0, 1.0, seed=1, cohorts=())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", [
        "duration_s", "rate_per_device_hz", "mean_lifetime_s",
    ])
    def test_non_finite_parameters_rejected(self, name, value):
        kwargs = {
            "n_devices": 10, "duration_s": 1.0, "rate_per_device_hz": 1.0,
            "seed": 1, name: value,
        }
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            fleet_trace(**kwargs)

    def test_aggregate_rate_overflow_rejected(self):
        # Each factor is finite, their product is not: an infinite rate
        # would add 0.0 per arrival draw and never reach the horizon.
        with pytest.raises(ValueError, match="n_devices \\* rate"):
            fleet_trace(10, 1.0, 1e308, seed=1)


class TestSharding:
    def test_shard_of_is_stable_and_in_range(self):
        for n_shards in (1, 3, 8):
            for index in range(50):
                shard = shard_of(f"d{index:07d}", n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_of(f"d{index:07d}", n_shards)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_shards"):
            FleetConfig(n_shards=0)
        with pytest.raises(ValueError, match="batch_size"):
            FleetConfig(batch_size=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            FleetConfig(max_queue_depth=0)
        with pytest.raises(ValueError, match="service_us"):
            FleetConfig(service_us=0.0)

    @pytest.mark.parametrize("field, value", [
        ("service_us", float("nan")),
        ("service_us", float("inf")),
        ("timeout_ms", float("nan")),
        ("timeout_ms", float("inf")),
        ("backoff_ms", float("nan")),
        ("backoff_cap_ms", float("nan")),
        ("backoff_cap_ms", float("inf")),
        ("stretch_factors", (float("nan"),)),
        ("stretch_factors", (1.5, float("inf"))),
    ])
    def test_config_rejects_non_finite(self, field, value):
        name = "stretch factors" if field == "stretch_factors" else field
        with pytest.raises(ValueError, match=name):
            FleetConfig(**{field: value})

    @pytest.mark.parametrize("buffers", [0, -1])
    def test_config_rejects_buffers_below_one(self, buffers):
        with pytest.raises(ValueError, match="buffers"):
            FleetConfig(buffers=buffers)

    def test_config_rejects_unknown_method(self, tmp_path):
        with pytest.raises(ValueError, match="bogus"):
            FleetConfig(method="bogus", journal_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestIdentity:
    """Sharded decisions must be bit-identical to the serial run."""

    def test_identity_across_shard_counts_and_batches(self):
        trace = small_trace()
        oracle = None
        for n_shards, batch_size in ((1, 64), (2, 64), (5, 64), (8, 7), (3, 1)):
            report = FleetService(
                config=FleetConfig(n_shards=n_shards, batch_size=batch_size)
            ).run(trace)
            assert report.shed == 0
            identity = decision_identity(report.decisions)
            if oracle is None:
                oracle = identity
            else:
                assert identity == oracle

    def test_identity_under_bursty_arrivals(self):
        trace = small_trace(arrival="bursty")
        serial = FleetService(config=FleetConfig(n_shards=1)).run(trace)
        sharded = FleetService(config=FleetConfig(n_shards=6)).run(trace)
        assert serial.shed == sharded.shed == 0
        assert decision_identity(sharded.decisions) == decision_identity(
            serial.decisions
        )

    def test_per_device_decision_order_preserved(self):
        trace = small_trace()
        report = FleetService(config=FleetConfig(n_shards=4)).run(trace)
        per_device = {}
        for decision in report.decisions:
            per_device.setdefault(decision.device, []).append(decision.seq)
        for seqs in per_device.values():
            assert seqs == sorted(seqs)


class TestService:
    def test_counts_are_consistent(self):
        trace = small_trace()
        report = FleetService(config=FleetConfig(n_shards=4)).run(trace)
        assert report.requests == len(trace.requests)
        assert report.requests == (
            report.admitted + report.rejected_sram + report.rejected_rta
            + report.removed + report.ignored + report.shed
        )
        assert report.decided == report.requests - report.shed
        assert len(report.decisions) == report.decided
        assert report.admitted > 0
        assert report.removed > 0
        assert sum(s["decided"] for s in report.shard_stats) == report.decided

    def test_backpressure_sheds_and_bounds_depth(self):
        trace = small_trace()
        depth = 5
        report = FleetService(
            config=FleetConfig(
                n_shards=1,
                batch_size=4,
                max_queue_depth=depth,
                service_us=200_000.0,  # 0.2 s/decision: shard saturates
            )
        ).run(trace)
        assert report.shed > 0
        assert report.peak_queue_depth <= depth
        assert report.requests == report.decided + report.shed

    def test_cohort_sram_shapes_rejections(self):
        trace = fleet_trace(
            200, 2.0, 0.6, seed=3,
            cohorts=(CohortSpec("tiny", "f746-qspi", sram_kib=48),),
        )
        tiny = FleetService(
            cohorts=(CohortSpec("tiny", "f746-qspi", sram_kib=48),),
            config=FleetConfig(n_shards=2),
        ).run(trace)
        roomy = FleetService(
            cohorts=(CohortSpec("roomy", "f746-qspi", sram_kib=320),),
            config=FleetConfig(n_shards=2),
        ).run(trace)
        assert tiny.rejected_sram > roomy.rejected_sram
        assert roomy.admitted > tiny.admitted

    def test_report_dict_shape(self):
        trace = small_trace(n_devices=120)
        report = FleetService(config=FleetConfig(n_shards=2)).run(trace)
        payload = report.to_dict()
        assert payload["schema"] == "rtmdm-fleet/1"
        assert payload["n_shards"] == 2
        assert "decisions" not in payload
        assert set(payload["queueing_latency_ms"]) == {
            "n", "mean", "p50", "p95", "p99", "max",
        }
        assert len(payload["shards"]) == 2
        with_decisions = report.to_dict(include_decisions=True)
        assert len(with_decisions["decisions"]) == report.decided

    def test_virtual_queueing_is_deterministic(self):
        trace = small_trace(n_devices=300)
        config = FleetConfig(n_shards=3)
        first = FleetService(config=config).run(trace)
        second = FleetService(config=config).run(trace)
        assert first.queueing_latency_ms == second.queueing_latency_ms
        assert first.shard_stats == second.shard_stats


class TestJournals:
    def test_per_shard_journals_round_trip(self, tmp_path):
        trace = small_trace(n_devices=200)
        config = FleetConfig(n_shards=3, journal_dir=str(tmp_path))
        report = FleetService(config=config).run(trace)
        total = 0
        for stats in report.shard_stats:
            path = tmp_path / f"shard{stats['shard']:03d}.journal"
            assert path.exists()
            scan = scan_journal(str(path))
            assert scan.truncated_lines == 0
            assert scan.header["config"]["shard"] == stats["shard"]
            intents = [r for r in scan.records if r["type"] == "intent"]
            commits = [r for r in scan.records if r["type"] == "commit"]
            assert len(intents) == len(commits) == stats["decided"]
            # records_written counts the header line; scan.records doesn't.
            assert stats["journal_records"] == len(scan.records) + 1
            total += len(intents)
        assert total == report.decided


def storm_trace():
    return fleet_trace(60, 2.0, 20.0, seed=11, arrival="bursty")


TIGHT = dict(
    n_shards=2, batch_size=4, max_queue_depth=8, service_us=400.0
)


class TestCrashRecovery:
    def test_crash_recovery_identity_and_bounded_replay(self, tmp_path):
        trace = small_trace(n_devices=150)
        base = FleetService(config=FleetConfig(n_shards=3)).run(trace)
        config = FleetConfig(
            n_shards=3, journal_dir=str(tmp_path), checkpoint_interval=16,
            crash_at=((0, 3), (1, 10), (2, 7)),
        )
        report = FleetService(config=config).run(trace)
        assert report.recovered == 3
        assert decision_identity(report.all_decisions()) == decision_identity(
            base.all_decisions()
        )
        bound = max(config.checkpoint_interval, config.batch_size)
        for stats in report.shard_stats:
            assert stats["recovered"] == 1
            for recovery in stats["recoveries"]:
                assert recovery["decisions_replayed"] <= bound
                assert not recovery["startup"]

    def test_crash_at_requires_journal_dir(self):
        with pytest.raises(ValueError, match="journal_dir"):
            FleetConfig(crash_at=((0, 1),))
        with pytest.raises(ValueError, match="crash_at"):
            FleetConfig(
                n_shards=2, journal_dir="/tmp/x", crash_at=((5, 1),)
            )

    def test_restart_resumes_journal_not_clobbers(self, tmp_path):
        # Regression: journals used to be re-created (truncated) on every
        # run, so a restarted service could never replay its history.
        trace = small_trace(n_devices=100)
        config = FleetConfig(n_shards=2, journal_dir=str(tmp_path))
        first = FleetService(config=config).run(trace)
        records_before = {
            s["shard"]: s["journal_records"] for s in first.shard_stats
        }
        second = FleetService(config=config).run(trace)
        assert second.recovered == 2  # startup recovery on both shards
        for stats in second.shard_stats:
            assert all(rec["startup"] for rec in stats["recoveries"])
            path = tmp_path / f"shard{stats['shard']:03d}.journal"
            scan = scan_journal(str(path))
            # Appended past run one's history, never truncated.
            assert len(scan.records) + 1 > records_before[stats["shard"]]

    def test_restart_rejects_changed_config(self, tmp_path):
        from repro.online.durable import JournalError

        trace = small_trace(n_devices=100)
        FleetService(
            config=FleetConfig(n_shards=2, journal_dir=str(tmp_path))
        ).run(trace)
        with pytest.raises(JournalError, match="config"):
            FleetService(
                config=FleetConfig(
                    n_shards=2, batch_size=32, journal_dir=str(tmp_path)
                )
            ).run(trace)

    def test_cold_process_replay_is_reason_stable(self, tmp_path):
        # Regression: segcache collapses every byte-infeasible SRAM
        # budget onto one canonical negative entry, and used to cache
        # the first minter's message (with *its* budget numbers baked
        # in).  A warm process then journaled reasons a cold restart
        # could never re-derive, so startup recovery tripped its
        # replay-divergence check on perfectly good journals.  Reasons
        # must be a pure function of the decision inputs.
        # Two shards share one process-wide segcache (the canonical
        # entry's minter can live on the *other* shard), and a small
        # checkpoint interval keeps the original minter out of the
        # replayed suffix — the two ways a cold process is forced to
        # re-render a message the warm process got from its cache.
        segcache.clear_all()
        trace = fleet_trace(100, 1.5, 6.0, seed=3)
        config = FleetConfig(
            n_shards=2, batch_size=4, service_us=150.0,
            journal_dir=str(tmp_path), checkpoint_interval=16,
        )
        first = FleetService(config=config).run(trace)
        sram_rejects = [
            d for d in first.all_decisions()
            if d.reason.startswith("sram:")
        ]
        assert len(sram_rejects) > 50  # the collision-prone shape
        # Simulate a fresh process: cold caches, same journals.
        # Startup recovery re-decides each shard's journal suffix and
        # verifies it against the warm process's commits — which used
        # to raise JournalError the moment a canonical "cannot fit"
        # message embedded the first minter's budget instead of the
        # deciding caller's.
        segcache.clear_all()
        second = FleetService(config=config).run(trace)
        assert second.recovered == 2
        for stats in second.shard_stats:
            assert all(
                rec["commits_repaired"] == 0 for rec in stats["recoveries"]
            )

    def test_shed_events_journaled_and_reconciled(self, tmp_path):
        trace = small_trace()
        config = FleetConfig(
            n_shards=1, batch_size=4, max_queue_depth=5,
            service_us=200_000.0, journal_dir=str(tmp_path),
            checkpoint_interval=4,
        )
        first = FleetService(config=config).run(trace)
        assert first.shed > 0
        path = tmp_path / "shard000.journal"
        scan = scan_journal(str(path))
        sheds = [
            r for r in scan.records
            if r["type"] == "event" and r["kind"] == "shed"
        ]
        assert len(sheds) == first.shed
        # A restarted service counts only its own run's sheds; the
        # journal keeps both runs' shed events.
        second = FleetService(config=config).run(trace)
        assert second.shard_stats[0]["shed"] == second.shed
        scan = scan_journal(str(path))
        sheds = [
            r for r in scan.records
            if r["type"] == "event" and r["kind"] == "shed"
        ]
        assert len(sheds) == first.shed + second.shed

    #: (shard, decided, shed, timeouts, degraded_admits, recovered) of
    #: ``_storm_config``'s run and of a second run resuming its journals,
    #: recorded when shards still checkpointed journal-cumulative
    #: shed/timeout/degraded counters and reconciled them on recovery.
    RECORDED_STORM_STATS = (
        [[0, 298, 86, 152, 24, 1], [1, 359, 83, 135, 46, 1]],
        [[0, 298, 86, 152, 3, 2], [1, 359, 83, 135, 8, 2]],
    )

    @staticmethod
    def _storm_config(journal_dir):
        """Crash on both shards, 4 ms timeouts and the degrade ladder."""
        return FleetConfig(
            n_shards=2, batch_size=4, max_queue_depth=8, service_us=900.0,
            degrade_watermark=4, timeout_ms=4.0, checkpoint_interval=16,
            journal_dir=str(journal_dir), crash_at=((0, 15), (1, 25)),
        )

    @staticmethod
    def _stats(report):
        keys = ("shard", "decided", "shed", "timeouts", "degraded_admits",
                "recovered")
        return [[s[k] for k in keys] for s in report.shard_stats]

    def test_shard_stats_counted_from_decisions_match_recorded(self, tmp_path):
        from repro.robust.chaos import fleet_invariants

        trace = fleet_trace(30, 1.0, 20.0, seed=11, arrival="bursty")
        config = self._storm_config(tmp_path)
        runs = [FleetService(config=config).run(trace) for _ in range(2)]
        assert [self._stats(r) for r in runs] == list(self.RECORDED_STORM_STATS)
        for report in runs:
            counts = fleet_invariants(report, max_retries=config.max_retries)
            assert counts["shard-stats-consistent"] == config.n_shards

    def test_checkpoint_with_counter_keys_still_restores(self, tmp_path):
        """Checkpoints that also carry ``shed``/``timeouts``/``degraded``
        counters (the older payload, same schema tag) restore as before:
        the reader takes ``devices`` and ignores the rest."""
        from repro.eval.fleet import FLEET_CHECKPOINT_SCHEMA
        from repro.online.durable import DecisionJournal
        from repro.online.events import Request

        trace = fleet_trace(30, 1.0, 20.0, seed=11, arrival="bursty")
        new, old = tmp_path / "new", tmp_path / "old"
        FleetService(config=self._storm_config(new)).run(trace)
        old.mkdir()
        for shard in range(2):
            name = f"shard{shard:03d}.journal"
            scan = scan_journal(str(new / name))
            journal = DecisionJournal.create(
                str(old / name), scan.header["config"]
            )
            shed = timeouts = degraded = 0
            for r in scan.records:
                if r["type"] == "intent":
                    journal.append_intent(
                        r["seq"], Request.from_dict(r["request"]),
                        extra=r.get("extra"),
                    )
                elif r["type"] == "commit":
                    d = r["decision"]
                    degraded += d["outcome"] == "admitted" and d["mode"] != "full"
                    journal.append_commit(r["seq"], d)
                elif r["type"] == "event":
                    shed += r["kind"] == "shed"
                    timeouts += r["kind"] == "timeout"
                    journal.append_event(r["kind"], r["payload"])
                elif r["type"] == "checkpoint":
                    assert r["state"]["schema"] == FLEET_CHECKPOINT_SCHEMA
                    assert set(r["state"]) == {"schema", "devices"}
                    journal.append_checkpoint(r["seq"], canonical_json({
                        **r["state"], "shed": shed, "timeouts": timeouts,
                        "degraded": degraded,
                    }))
            journal.close()
        resumed = {
            d: FleetService(config=self._storm_config(tmp_path / d)).run(trace)
            for d in ("new", "old")
        }
        assert decision_identity(resumed["old"].all_decisions()) == (
            decision_identity(resumed["new"].all_decisions())
        )
        assert self._stats(resumed["old"]) == self._stats(resumed["new"])
        assert self._stats(resumed["old"]) == self.RECORDED_STORM_STATS[1]


class TestJournalDamage:
    """A restarted service recovers a damaged shard journal: the torn or
    corrupt tail is cut off, lost commits are repaired, serving goes on."""

    @pytest.mark.parametrize("mode", ["truncate-journal", "corrupt-journal"])
    def test_restart_recovers_damaged_shard_journal(self, tmp_path, mode):
        from repro.robust.chaos import damage_journal, fleet_invariants

        trace = small_trace(n_devices=100)
        config = FleetConfig(n_shards=2, journal_dir=str(tmp_path))
        FleetService(config=config).run(trace)
        path = str(tmp_path / "shard000.journal")
        damage_journal(path, mode, seed=0)
        damaged = scan_journal(path)
        with open(path, "rb") as handle:
            prefix = handle.read()[:damaged.valid_bytes]

        report = FleetService(config=config).run(trace)
        (recovery,) = report.shard_stats[0]["recoveries"]
        assert recovery["startup"]
        assert recovery["truncated_lines"] == damaged.truncated_lines > 0
        with open(path, "rb") as handle:
            assert handle.read().startswith(prefix)
        healed = scan_journal(path)
        assert healed.truncated_lines == 0
        # The repaired commits come first after the valid prefix, one
        # per surviving intent whose commit was lost.
        intents = {r["seq"] for r in damaged.records if r["type"] == "intent"}
        commits = {r["seq"] for r in damaged.records if r["type"] == "commit"}
        lost = sorted(intents - commits)
        assert lost and recovery["commits_repaired"] == len(lost)
        appended = healed.records[len(damaged.records):]
        assert [
            (r["type"], r["seq"]) for r in appended[:len(lost)]
        ] == [("commit", seq) for seq in lost]
        fleet_invariants(report, max_retries=config.max_retries)


class TestMalformedJournals:
    """CRC-valid but malformed shard journals fail with JournalError."""

    def _header_config(self, tmp_path, config):
        FleetService(config=config).run(small_trace(n_devices=10))
        return scan_journal(str(tmp_path / "shard000.journal")).header["config"]

    def test_checkpoint_without_devices(self, tmp_path):
        from repro.eval.fleet import FLEET_CHECKPOINT_SCHEMA
        from repro.online.durable import DecisionJournal, JournalError

        config = FleetConfig(n_shards=1, journal_dir=str(tmp_path))
        header = self._header_config(tmp_path, config)
        journal = DecisionJournal.create(
            str(tmp_path / "shard000.journal"), header
        )
        journal.append_checkpoint(0, canonical_json({
            "schema": FLEET_CHECKPOINT_SCHEMA,
            "shed": 0, "timeouts": 0, "degraded": 0,
        }))
        journal.close()
        with pytest.raises(JournalError, match="malformed fleet checkpoint"):
            FleetService(config=config).run(small_trace(n_devices=10))

    def test_intent_task_without_device(self, tmp_path):
        from repro.online.durable import DecisionJournal, JournalError
        from repro.online.events import Request

        config = FleetConfig(n_shards=1, journal_dir=str(tmp_path))
        header = self._header_config(tmp_path, config)
        journal = DecisionJournal.create(
            str(tmp_path / "shard000.journal"), header
        )
        journal.append_intent(
            0,
            Request(
                time_s=0.0, kind=RequestKind.ADMIT, task="m0",
                model="lenet5", period_s=0.2,
            ),
            extra={"seq": 0},
        )
        journal.close()
        with pytest.raises(JournalError, match="device-qualified"):
            FleetService(config=config).run(small_trace(n_devices=10))


class TestTimeouts:
    def test_backoff_delays_double_up_to_cap(self):
        from repro.robust.recovery import ExponentialBackoff

        backoff = ExponentialBackoff(base_ms=2.0, cap_ms=64.0)
        delays = [backoff.delay_ms(attempt) for attempt in range(8)]
        assert delays == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 64.0, 64.0]
        assert backoff.delay_s(0) == pytest.approx(0.002)
        with pytest.raises(ValueError, match="base_ms"):
            ExponentialBackoff(base_ms=0.0)
        with pytest.raises(ValueError, match="cap_ms"):
            ExponentialBackoff(base_ms=4.0, cap_ms=2.0)

    def test_timeouts_retry_then_decide_exactly_once(self):
        config = FleetConfig(
            n_shards=2, batch_size=4, service_us=2000.0,
            timeout_ms=2.0, max_retries=2,
        )
        report = FleetService(config=config).run(storm_trace())
        assert report.timeout_retries > 0
        assert report.timeout_retries == len(report.timeout_decisions)
        # Exactly-once: every request still gets exactly one final.
        seqs = [d.seq for d in report.decisions]
        assert sorted(seqs) == list(range(report.requests))
        retries = {}
        for record in report.timeout_decisions:
            assert record.outcome == "timeout"
            retries[record.seq] = retries.get(record.seq, 0) + 1
        assert max(retries.values()) <= config.max_retries
        assert set(retries) <= set(seqs)
        # Timeout records interleave into the full stream by attempt.
        stream = report.all_decisions()
        assert [d.seq for d in stream] == sorted(d.seq for d in stream)

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="timeout_ms"):
            FleetConfig(timeout_ms=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            FleetConfig(max_retries=-1)


class TestDegradeLadder:
    def test_ladder_strictly_reduces_shed(self):
        trace = storm_trace()
        off = FleetService(config=FleetConfig(**TIGHT)).run(trace)
        on = FleetService(
            config=FleetConfig(**TIGHT, degrade_watermark=4)
        ).run(trace)
        assert off.shed > 0
        assert on.shed < off.shed
        assert on.degraded_admits > 0
        modes = set()
        for d in on.decisions:
            if d.outcome == "admitted" and d.mode != "full":
                assert d.reason == "rta-oblivious"
                assert d.mode.startswith(("rate/", "variant"))
                modes.add(d.mode)
        assert modes
        payload = on.to_dict()
        assert payload["degraded_admits"] == on.degraded_admits
        assert payload["timeout_retries"] == on.timeout_retries
        assert payload["recovered"] == 0

    def test_watermark_validation(self):
        with pytest.raises(ValueError, match="degrade_watermark"):
            FleetConfig(max_queue_depth=4, degrade_watermark=5)
        with pytest.raises(ValueError, match="stretch factors"):
            FleetConfig(degrade_watermark=4, stretch_factors=(0.5,))
        with pytest.raises(ValueError, match="degrade_factor"):
            FleetConfig(degrade_watermark=4, degrade_factor=0.0)

    def test_resilience_counters_ride_segcache(self):
        before = segcache.snapshot()
        report = FleetService(
            config=FleetConfig(**TIGHT, degrade_watermark=4, timeout_ms=5.0)
        ).run(storm_trace())
        delta = segcache.delta_since(before)
        assert "fleet.resilience" in delta
        names = ("degraded_admits", "timeout_retries", "recovered", "crashes")
        vals = dict(zip(names, delta["fleet.resilience"]))
        assert vals["degraded_admits"] == report.degraded_admits
        assert vals["timeout_retries"] == report.timeout_retries
        assert vals["recovered"] == 0


class TestJournalEncoding:
    """Shard journals stay in their canonical on-disk form, and
    checkpoints assembled from cached per-device fragments always equal
    the state encoded from scratch."""

    @staticmethod
    def _check_checkpoints(monkeypatch):
        """Make every shard checkpoint assert it equals a from-scratch
        encoding of the shard's residents; returns the checked texts."""
        from repro.eval.fleet import FLEET_CHECKPOINT_SCHEMA, _resident_state

        checked = []
        cached = FleetService._shard_state

        def from_scratch(self, shard):
            text = cached(self, shard)
            assert text == canonical_json({
                "schema": FLEET_CHECKPOINT_SCHEMA,
                "devices": {
                    device: [_resident_state(r) for r in residents.values()]
                    for device, residents in shard.devices.items()
                    if residents
                },
            })
            checked.append(text)
            return text

        monkeypatch.setattr(FleetService, "_shard_state", from_scratch)
        return checked

    def test_storm_journals_canonical_through_crash_and_resume(
        self, tmp_path, monkeypatch
    ):
        from conftest import journal_lines_canonical

        checked = self._check_checkpoints(monkeypatch)
        trace = fleet_trace(30, 1.0, 20.0, seed=11, arrival="bursty")
        config = TestCrashRecovery._storm_config(tmp_path)
        runs = [FleetService(config=config).run(trace) for _ in range(2)]
        # Removes, ladder admits, timeouts, sheds, an injected crash per
        # shard, then a rerun resuming both journals.
        for report in runs:
            assert report.removed and report.degraded_admits
            assert report.timeout_retries and report.shed
        assert [r.recovered for r in runs] == [2, 4]
        for shard in range(config.n_shards):
            path = str(tmp_path / f"shard{shard:03d}.journal")
            seen = journal_lines_canonical(path)
            assert seen["header"] == 1
            for kind in ("intent", "commit", "checkpoint", "event", "fsync"):
                assert seen[kind], kind
        assert len(checked) == sum(
            journal_lines_canonical(str(tmp_path / f"shard{s:03d}.journal"))[
                "checkpoint"
            ]
            for s in range(config.n_shards)
        )

    def test_fragment_cache_never_serves_stale_state(
        self, tmp_path, monkeypatch
    ):
        from repro.eval.fleet import FleetRequest, FleetTrace

        checked = self._check_checkpoints(monkeypatch)
        a, b = "d0000000", "d0000003"
        steps = [
            (a, RequestKind.ADMIT, "m0", "lenet5", 0.4),
            (a, RequestKind.ADMIT, "m1", "tinyconv", 0.4),
            # A checkpoint falls before every even step.  Remove and
            # re-admit m0 (new period) between two checkpoints: same
            # resident count, different residents.
            (a, RequestKind.REMOVE, "m0", "", 0.0),
            (a, RequestKind.ADMIT, "m0", "lenet5", 0.8),
            (a, RequestKind.REMOVE, "m0", "", 0.0),
            (a, RequestKind.ADMIT, "m0", "lenet5", 0.4),
            (b, RequestKind.ADMIT, "m0", "tinyconv", 0.4),
            (b, RequestKind.ADMIT, "m1", "lenet5", 0.8),
            (a, RequestKind.REMOVE, "m1", "", 0.0),
            (b, RequestKind.REMOVE, "m0", "", 0.0),
            (a, RequestKind.ADMIT, "m2", "tinyconv", 0.2),
        ]
        trace = FleetTrace(
            requests=tuple(
                FleetRequest(
                    seq=i, time_s=0.1 * i, device=device, kind=kind,
                    task=task, model=model, period_s=period,
                )
                for i, (device, kind, task, model, period) in enumerate(steps)
            ),
            duration_s=2.0, n_devices=4, cohorts=DEFAULT_COHORTS,
            arrival="poisson",
        )
        config = FleetConfig(
            n_shards=1, batch_size=1, checkpoint_interval=2,
            journal_dir=str(tmp_path),
        )
        first = FleetService(config=config).run(trace)
        assert [d.outcome for d in first.decisions] == [
            "admitted", "admitted", "removed", "admitted", "removed",
            "admitted", "admitted", "admitted", "removed", "removed",
            "admitted",
        ]
        assert len(checked) == 5
        # A shard rebuilt by checkpoint restore plus replay: a startup
        # resume, and an in-run crash whose replay rebuilds residents
        # the cache saw before the crash.
        crashed = FleetService(
            config=replace(config, crash_at=((0, 5),))
        ).run(trace)
        assert crashed.recovered == 2
        assert {"admitted", "removed"} <= {d.outcome for d in crashed.decisions}
        assert len(checked) == 10
