"""Unit tests for the crash-tolerant serving layer (``repro.online.durable``)."""

from __future__ import annotations

import gc
import json
import os
import sys
import types
import warnings

import pytest
from conftest import journal_lines_canonical

from repro.core import segcache
from repro.hw.presets import get_platform
from repro.online.admission import AdmissionController, CheckpointError
from repro.online.durable import (
    DecisionJournal,
    Envelope,
    IngressGate,
    InjectedCrash,
    InvariantMonitor,
    InvariantViolation,
    JournalError,
    StreamError,
    _crc,
    canonical_json,
    envelope_stream,
    recover,
    scan_journal,
    serve_durable,
    serve_trace_durable,
)
from repro.online.events import Request, RequestKind, TraceFormatError
from repro.online.runtime import OnlineRuntime
from repro.workload.arrivals import poisson_trace

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


def _trace(duration_s=4.0, rate_hz=1.5, seed=7):
    return poisson_trace(duration_s, rate_hz, seed=seed)


def _decision_log(controller):
    return [d.to_dict() for d in controller.decisions]


class TestJournal:
    def test_create_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = DecisionJournal.create(path, {"k": 1}, fsync_interval=2)
        journal.append_intent(0, _admit(0.1, "a"))
        journal.append_commit(0, {"outcome": "admitted"})
        journal.append_checkpoint(1, canonical_json({"state": True}))
        journal.close()
        scan = scan_journal(path)
        assert scan.header["config"] == {"k": 1}
        assert scan.truncated_lines == 0
        types_seen = [r["type"] for r in scan.records]
        assert "intent" in types_seen
        assert "commit" in types_seen
        assert "checkpoint" in types_seen
        assert "fsync" in types_seen  # durability markers present
        assert scan.valid_bytes == os.path.getsize(path)

    def test_corrupt_line_stops_scan(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = DecisionJournal.create(path, {}, fsync_interval=100)
        for seq in range(3):
            journal.append_intent(seq, _admit(0.1 * (seq + 1), f"t{seq}"))
        journal.close()
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = raw.splitlines(keepends=True)
        # Flip one byte inside the second intent record's payload
        # (line 0 is the header, line 1 the create-time fsync marker).
        target = lines[3]
        lines[3] = target[:-10] + bytes([target[-10] ^ 0xFF]) + target[-9:]
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
        scan = scan_journal(path)
        assert scan.truncated_lines == 2  # the corrupt line and its tail
        assert [r["seq"] for r in scan.records if r["type"] == "intent"] == [0]

    def test_torn_tail_keeps_valid_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = DecisionJournal.create(path, {}, fsync_interval=100)
        journal.append_intent(0, _admit(0.1, "a"))
        journal.append_intent(1, _admit(0.2, "b"))
        journal.close()
        os.truncate(path, os.path.getsize(path) - 7)
        scan = scan_journal(path)
        assert scan.truncated_lines == 1
        assert [r["seq"] for r in scan.records if r["type"] == "intent"] == [0]

    def test_checkpoint_state_must_be_json_text(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = DecisionJournal.create(path, {})
        with pytest.raises(TypeError, match="state_json"):
            journal.append_checkpoint(0, {"state": True})
        journal.close()
        assert [r["type"] for r in scan_journal(path).records] == ["fsync"]

    def test_scan_journal_closes_its_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "j.jsonl")
        DecisionJournal.create(path, {}).close()
        # With ResourceWarning as an error, a leaked handle raises in the
        # file object's finalizer, which Python reports as unraisable.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            scan_journal(path)
            gc.collect()
        assert unraisable == []

    def test_noncontiguous_intent_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = DecisionJournal.create(path, {})
        journal.append_intent(0, _admit(0.1, "a"))
        with pytest.raises(JournalError, match="non-contiguous"):
            journal.append_intent(2, _admit(0.2, "b"))
        journal.close()

    def test_closed_journal_rejects_appends(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = DecisionJournal.create(path, {})
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append_intent(0, _admit(0.1, "a"))

    def test_missing_and_headerless_files(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            scan_journal(str(tmp_path / "absent.jsonl"))
        path = tmp_path / "bad.jsonl"
        record = {"type": "intent", "seq": 0}
        record["crc"] = _crc(record)
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(JournalError, match="header"):
            scan_journal(str(path))


class TestSnapshotRestore:
    def _controller(self, platform=PLATFORM):
        return AdmissionController(platform)

    def test_round_trip_preserves_decisions_and_state(self):
        controller = self._controller()
        for request in _trace(duration_s=3.0):
            controller.handle(request)
        state = controller.snapshot()
        clone = self._controller()
        clone.restore(state)
        assert _decision_log(clone) == _decision_log(controller)
        assert sorted(clone.resident) == sorted(controller.resident)
        horizon = PLATFORM.mcu.seconds_to_cycles(10.0)
        assert clone.reserved_sram(horizon) == controller.reserved_sram(horizon)
        # Future decisions stay bit-identical too.
        follow = _admit(3.5, "late", model="lenet5", period_s=0.4)
        assert clone.handle(follow).to_dict() == controller.handle(follow).to_dict()

    def test_config_mismatch_rejected(self):
        controller = self._controller()
        state = controller.snapshot()
        other = self._controller(PLATFORM.with_sram_bytes(64 * 1024))
        with pytest.raises(CheckpointError, match="configuration"):
            other.restore(state)

    def test_snapshot_is_segcache_independent(self):
        controller = self._controller()
        for request in _trace(duration_s=3.0):
            controller.handle(request)
        state = json.loads(json.dumps(controller.snapshot()))  # wire round trip
        segcache.clear_all()  # a cold restart has no warm plan cache
        clone = self._controller()
        clone.restore(state)
        for inst in clone.resident.values():
            assert inst.segments  # full segment payloads travelled along
        follow = _admit(3.5, "late", model="lenet5", period_s=0.4)
        assert clone.handle(follow).outcome == controller.handle(follow).outcome


class TestRecover:
    def test_crash_recovery_replays_only_suffix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        runtime = OnlineRuntime(PLATFORM)
        trace = _trace()
        baseline = runtime.serve(trace, simulate=False)
        with pytest.raises(InjectedCrash):
            serve_trace_durable(
                runtime, trace, path, checkpoint_interval=4, crash_at=5
            )
        result = serve_trace_durable(
            runtime, trace, path, checkpoint_interval=4, restore=True
        )
        rec = result.recovery
        assert rec is not None
        assert rec.checkpoint_seq == 4
        # Intents 4 and 5 hit the journal before the crash (the crash
        # fires after intent 5 is durable), so exactly those replay.
        assert rec.decisions_replayed == 2
        assert rec.commits_repaired == 1  # intent 5 never committed
        assert rec.truncated_lines == 0
        assert [d.to_dict() for d in result.report.decisions] == [
            d.to_dict() for d in baseline.decisions
        ]

    def test_journal_lines_stay_canonical(self, tmp_path):
        """Header, intents, commits, checkpoints, fsync markers and the
        commits recovery repairs are all written as canonical JSON with
        a CRC that verifies -- the journal's on-disk form."""
        path = str(tmp_path / "j.jsonl")
        runtime = OnlineRuntime(PLATFORM)
        trace = _trace()
        with pytest.raises(InjectedCrash):
            serve_trace_durable(
                runtime, trace, path, checkpoint_interval=4, crash_at=5
            )
        result = serve_trace_durable(
            runtime, trace, path, checkpoint_interval=4, restore=True
        )
        assert result.recovery.commits_repaired == 1
        seen = journal_lines_canonical(path)
        assert seen["header"] == 1
        assert all(seen[t] for t in ("intent", "commit", "checkpoint", "fsync"))
        # The checkpoint text restores to the controller it was taken of.
        checkpoint = [
            r for r in scan_journal(path).records if r["type"] == "checkpoint"
        ][-1]
        clone = AdmissionController(PLATFORM)
        clone.restore(checkpoint["state"])
        assert len(clone.decisions) == checkpoint["seq"]

    def test_replay_divergence_detected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        runtime = OnlineRuntime(PLATFORM)
        serve_trace_durable(runtime, _trace(), path, checkpoint_interval=100)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        out = []
        for line in lines:
            record = json.loads(line)
            if record["type"] == "commit" and record["seq"] == 2:
                record["decision"]["outcome"] = "rejected"
                record["crc"] = _crc(record)
            out.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(out) + "\n")
        with pytest.raises(JournalError, match="divergence"):
            recover(path, runtime.controller)

    def test_config_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        serve_trace_durable(OnlineRuntime(PLATFORM), _trace(), path)
        small = OnlineRuntime(PLATFORM.with_sram_bytes(64 * 1024))
        with pytest.raises(CheckpointError, match="different configuration"):
            recover(path, small.controller)

    def test_truncated_tail_is_cut_and_replayed_past(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        runtime = OnlineRuntime(PLATFORM)
        trace = _trace()
        baseline = runtime.serve(trace, simulate=False)
        serve_trace_durable(runtime, trace, path, checkpoint_interval=4)
        os.truncate(path, os.path.getsize(path) - 11)
        result = serve_trace_durable(
            runtime, trace, path, checkpoint_interval=4, restore=True
        )
        assert result.recovery.truncated_lines == 1
        assert [d.to_dict() for d in result.report.decisions] == [
            d.to_dict() for d in baseline.decisions
        ]


class TestEnvelope:
    def test_round_trip(self):
        env = Envelope(seq=3, request_id="r3", request=_admit(0.5, "kws"))
        again = Envelope.from_dict(env.to_dict())
        assert again == env

    def test_missing_fields_and_bad_seq(self):
        with pytest.raises(StreamError, match="JSON object"):
            Envelope.from_dict([1, 2])
        with pytest.raises(StreamError, match="request_id"):
            Envelope.from_dict({"seq": 0, "request": {}})
        base = {"request_id": "x", "request": _admit(0.1, "a").to_dict()}
        with pytest.raises(StreamError, match="seq"):
            Envelope.from_dict({**base, "seq": -1})
        with pytest.raises(StreamError, match="seq"):
            Envelope.from_dict({**base, "seq": True})

    def test_malformed_body_raises_trace_error(self):
        with pytest.raises(TraceFormatError, match="kind"):
            Envelope.from_dict(
                {"seq": 0, "request_id": "x", "request": {"time_s": 0.0}}
            )


class TestIngressGate:
    def _envs(self, n):
        return [
            Envelope(seq=i, request_id=f"r{i}", request=_admit(0.1 * (i + 1), f"t{i}"))
            for i in range(n)
        ]

    def test_in_order_passthrough(self):
        gate = IngressGate()
        out = [r.task for env in self._envs(3) for r in gate.offer(env)]
        assert out == ["t0", "t1", "t2"]
        assert gate.stats.duplicates == 0

    def test_duplicates_and_stale_absorbed(self):
        gate = IngressGate()
        envs = self._envs(3)
        assert gate.offer(envs[0])
        assert gate.offer(envs[0]) == []  # stale: seq already emitted
        assert gate.offer(envs[2]) == []  # buffered, waiting on 1
        assert gate.offer(envs[2]) == []  # duplicate of a buffered seq
        emitted = gate.offer(envs[1])
        assert [r.task for r in emitted] == ["t1", "t2"]
        assert gate.stats.stale == 1
        assert gate.stats.duplicates == 1
        assert gate.stats.emitted == 3

    def test_reorder_within_holdback(self):
        gate = IngressGate(holdback=4)
        envs = self._envs(4)
        order = [2, 0, 3, 1]
        out = [r.task for i in order for r in gate.offer(envs[i])]
        assert out == ["t0", "t1", "t2", "t3"]
        # The final offer briefly holds {2, 3, 1} before the emit loop
        # drains the buffer.
        assert gate.stats.max_buffered == 3

    def test_gap_beyond_holdback_fails_loudly(self):
        gate = IngressGate(holdback=2)
        envs = self._envs(5)
        with pytest.raises(StreamError, match="holdback"):
            gate.offer(envs[4])

    def test_dedup_by_request_id_across_retransmits(self):
        gate = IngressGate()
        envs = self._envs(2)
        gate.offer(envs[0])
        # Same id retransmitted under a *future* sequence number must
        # still be dropped by the id window, not replayed.
        clone = Envelope(seq=5, request_id="r0", request=envs[0].request)
        assert gate.offer(clone) == []
        assert gate.stats.duplicates == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="holdback"):
            IngressGate(holdback=0)
        with pytest.raises(ValueError, match="dedup_window"):
            IngressGate(dedup_window=0)
        with pytest.raises(ValueError, match="next_seq"):
            IngressGate(next_seq=-1)


class TestInvariantMonitor:
    def _served_controller(self):
        controller = AdmissionController(PLATFORM)
        monitor = InvariantMonitor(controller)
        for request in _trace():
            controller.handle(request)
            monitor.check(PLATFORM.mcu.seconds_to_cycles(request.time_s))
        return controller, monitor

    def test_all_checks_run_on_clean_serve(self):
        _, monitor = self._served_controller()
        assert set(monitor.counts) == set(InvariantMonitor.CHECKS)
        assert all(count > 0 for count in monitor.counts.values())

    def test_oversubscribed_sram_caught(self):
        controller, monitor = self._served_controller()
        victim_key = next(iter(controller.resident))
        victim = controller.resident[victim_key]
        object.__setattr__(
            victim, "sram_bytes", PLATFORM.usable_sram_bytes + 1
        )
        with pytest.raises(InvariantViolation, match="sram-capacity"):
            monitor.check(0)

    def test_skipped_screen_caught(self):
        controller = AdmissionController(PLATFORM)
        monitor = InvariantMonitor(controller)
        # Tamper the *instance* so every admission test passes without
        # running: the classic "skipped screen" failure mode.
        controller._schedulable = types.MethodType(
            lambda self, tasks: (True, "tampered"), controller
        )
        t = 0.1
        admitted = 0
        for index in range(8):  # overload far past schedulability
            request = _admit(
                t, f"hog{index}", model="resnet8", period_s=0.05
            )
            admitted += controller.handle(request).outcome == "admitted"
            t += 0.05
        assert admitted >= 2  # the tampered test let the overload in
        with pytest.raises(InvariantViolation, match="admitted-screen"):
            monitor.check(PLATFORM.mcu.seconds_to_cycles(t))

    def test_decision_log_tampering_caught(self):
        controller, monitor = self._served_controller()
        from dataclasses import replace

        controller.decisions[1] = replace(controller.decisions[1], seq=7)
        # Check at a cycle past the served horizon: the monitor is only
        # meaningful at the controller's current time or later (earlier
        # reservations have already been pruned away).
        with pytest.raises(InvariantViolation, match="decision-log"):
            monitor.check(PLATFORM.mcu.seconds_to_cycles(100.0))


class TestServeDurable:
    def test_bit_identical_to_plain_serve(self, tmp_path):
        runtime = OnlineRuntime(PLATFORM)
        trace = _trace()
        baseline = runtime.serve(trace, simulate=False)
        result = serve_trace_durable(
            runtime, trace, str(tmp_path / "j.jsonl"), checkpoint_interval=4
        )
        assert [d.to_dict() for d in result.report.decisions] == [
            d.to_dict() for d in baseline.decisions
        ]
        assert [i.to_dict() for i in result.report.instances] == [
            i.to_dict() for i in baseline.instances
        ]
        n = len(baseline.decisions)
        assert result.invariants == {name: n for name in InvariantMonitor.CHECKS}
        assert result.checkpoints_written == n // 4

    def test_perturbed_stream_decides_identically(self, tmp_path):
        runtime = OnlineRuntime(PLATFORM)
        trace = _trace()
        baseline = runtime.serve(trace, simulate=False)
        envelopes = envelope_stream(trace)
        # duplicate every envelope, swap adjacent pairs
        delivery = []
        for i in range(0, len(envelopes) - 1, 2):
            delivery += [envelopes[i + 1], envelopes[i], envelopes[i]]
        if len(envelopes) % 2:
            delivery.append(envelopes[-1])
        result = serve_durable(
            runtime, delivery, trace.duration_s, str(tmp_path / "j.jsonl")
        )
        assert [d.to_dict() for d in result.report.decisions] == [
            d.to_dict() for d in baseline.decisions
        ]
        assert result.gate.duplicates + result.gate.stale > 0

    def test_monitor_off_records_no_checks(self, tmp_path):
        runtime = OnlineRuntime(PLATFORM)
        result = serve_trace_durable(
            runtime, _trace(duration_s=2.0), str(tmp_path / "j.jsonl"),
            monitor=False,
        )
        assert result.invariants == {}

    def test_checkpoint_interval_validated(self, tmp_path):
        runtime = OnlineRuntime(PLATFORM)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            serve_trace_durable(
                runtime, _trace(), str(tmp_path / "j.jsonl"),
                checkpoint_interval=0,
            )
