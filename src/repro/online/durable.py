"""Crash-tolerant serving: decision journal, checkpoint/restore, ingress.

The plain :class:`~repro.online.runtime.OnlineRuntime` assumes the
admission controller never dies and every request arrives exactly once,
in order.  This module drops both assumptions while keeping decisions
**bit-identical** to the uninterrupted run:

* **Write-ahead decision journal** (:class:`DecisionJournal`) — a
  versioned ``rtmdm-journal/1`` JSON-lines file.  Every request is
  appended as an *intent* record **before** the controller mutates any
  state, and the resulting decision as a *commit* record after.  Every
  record is CRC-tagged; ``fsync`` marker records delimit durable
  prefixes.  Because admission decisions are a deterministic function of
  (controller state, request), replaying the journaled intents through a
  fresh controller reproduces the exact decision log — commit records
  exist to *verify* that replay, not to drive it.
* **Checkpoint/restore** — :meth:`AdmissionController.snapshot` payloads
  are embedded in the journal every ``checkpoint_interval`` decisions,
  so recovery replays only the journal suffix past the last checkpoint.
* **Idempotent, validated ingress** (:class:`IngressGate`) — requests
  travel in :class:`Envelope` wrappers carrying a producer-assigned
  monotonic sequence number and a unique request id.  The gate
  deduplicates (id window + stale-sequence check), reorders out-of-order
  deliveries through a bounded-holdback buffer, and rejects malformed
  envelopes with typed errors — so duplicated / reordered /
  retransmitted streams decide exactly like the canonical stream.
* **Runtime invariant monitor** (:class:`InvariantMonitor`) — inline
  checks after every decision: SRAM reservations never exceed capacity,
  the admitted union always passes an independent schedulability
  re-check, mode changes never leave a draining predecessor's buffers
  unaccounted, and the decision log stays dense and time-ordered.
  Violations raise :class:`InvariantViolation` (fail-loud; the chaos
  harness and CI treat any skipped check as a failure).

:func:`serve_durable` wires the pieces into the serve loop and
:func:`recover` rebuilds a controller from a (possibly torn or
corrupted) journal, truncating the invalid tail and repairing missing
commit records through :func:`replay_journal` — the one reader of the
journal record layout, which every fleet shard's recovery
(:class:`repro.eval.fleet.FleetService`) runs too.
:mod:`repro.robust.chaos` drives both under injected crashes, journal
damage, and adversarial delivery patterns.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.online.admission import AdmissionController, CheckpointError
from repro.online.events import Request

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.online.events import RequestTrace
    from repro.online.runtime import OnlineRuntime, ServeReport

#: Journal file schema tag (first record of every journal).
JOURNAL_SCHEMA = "rtmdm-journal/1"


class JournalError(RuntimeError):
    """The journal is unusable: bad header, sequence gap, or divergence."""


class InjectedCrash(RuntimeError):
    """Raised by :func:`serve_durable` at a chaos-selected decision index.

    Models the controller process dying after the intent record hit the
    journal but before the decision committed — the worst crash point,
    since the in-memory state is lost mid-decision.
    """

    def __init__(self, seq: int) -> None:
        super().__init__(f"injected crash at decision seq {seq}")
        self.seq = seq


# ----------------------------------------------------------------------
# Journal records
# ----------------------------------------------------------------------


def canonical_json(obj: Any) -> str:
    """The journal's one JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _crc32(text: str) -> str:
    return f"{zlib.crc32(text.encode('utf-8')):08x}"


def _crc(record: Dict) -> str:
    """CRC32 (hex) over the canonical JSON of ``record`` minus ``crc``."""
    return _crc32(canonical_json({k: v for k, v in record.items() if k != "crc"}))


class DecisionJournal:
    """Append-only write-ahead journal of admission decisions.

    One JSON object per line; record types: ``header`` (first line),
    ``intent`` (request, written before any state mutation), ``commit``
    (the decision), ``checkpoint`` (full controller snapshot), ``event``
    (a non-mutating observation — e.g. a fleet shard's shed or timeout
    record — kept for the audit trail; recovery never replays it), and
    ``fsync``
    (durability marker — the file is flushed and fsynced right after
    the marker is written).
    """

    def __init__(self, path: str, handle, fsync_interval: int = 8) -> None:
        if fsync_interval < 1:
            raise ValueError(
                f"fsync_interval must be >= 1, got {fsync_interval}"
            )
        self.path = path
        self._handle = handle
        self._fsync_interval = fsync_interval
        self._since_sync = 0
        self.records_written = 0
        self._last_seq = -1

    @classmethod
    def create(
        cls, path: str, config: Dict, fsync_interval: int = 8
    ) -> "DecisionJournal":
        """Start a fresh journal (truncates ``path``) with a header record."""
        handle = open(path, "w", encoding="utf-8")
        journal = cls(path, handle, fsync_interval)
        header = {"type": "header", "schema": JOURNAL_SCHEMA, "config": config}
        # ``config`` sorts before ``crc``, so the header alone is encoded
        # with its crc in place rather than spliced in front.
        journal._write(canonical_json({**header, "crc": _crc(header)}))
        journal.sync()
        return journal

    @classmethod
    def resume(cls, path: str, fsync_interval: int = 8) -> "DecisionJournal":
        """Reopen an existing journal for appending (after recovery)."""
        handle = open(path, "a", encoding="utf-8")
        return cls(path, handle, fsync_interval)

    def _write(self, line: str) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        self._handle.write(line + "\n")
        self.records_written += 1
        self._since_sync += 1

    def _append_body(self, body: str) -> None:
        # ``body`` is the record's canonical JSON without ``crc``; every
        # non-header key sorts after ``crc``, so it is spliced in front.
        self._write(f'{{"crc":"{_crc32(body)}",{body[1:]}')

    def _append(self, record: Dict) -> None:
        self._append_body(canonical_json(record))

    def _maybe_sync(self) -> None:
        if self._since_sync >= self._fsync_interval:
            self.sync()

    def append_intent(
        self, seq: int, request: Request, extra: Optional[Dict] = None
    ) -> None:
        """Journal the request *before* the controller mutates state.

        ``extra`` carries caller metadata replay needs verbatim (the
        fleet layer stores its trace seq, retry attempt and degrade tag
        there); it never influences the contiguity check.
        """
        if seq != self._last_seq + 1 and self._last_seq >= 0:
            raise JournalError(
                f"non-contiguous intent seq {seq} after {self._last_seq}"
            )
        self._last_seq = seq
        record: Dict = {
            "type": "intent", "seq": seq, "request": request.to_dict()
        }
        if extra:
            record["extra"] = extra
        self._append(record)
        self._maybe_sync()

    def append_event(self, kind: str, payload: Dict) -> None:
        """Journal a non-mutating observation (shed, timeout, ...).

        Events carry no ``seq`` and never advance the intent contiguity
        counter: they record what happened (e.g. which request was shed)
        but recovery never replays them through the decision engine.
        """
        self._append({"type": "event", "kind": kind, "payload": payload})
        self._maybe_sync()

    def append_commit(self, seq: int, decision: Dict) -> None:
        """Journal the decision the controller reached for intent ``seq``."""
        self._append({"type": "commit", "seq": seq, "decision": decision})
        self._maybe_sync()

    def append_checkpoint(self, seq: int, state_json: str) -> None:
        """Embed a controller snapshot covering decisions ``< seq``, given
        as its :func:`canonical_json` text (callers may cache its parts)."""
        if not isinstance(state_json, str):
            raise TypeError(f"state_json must be str, got {type(state_json).__name__}")
        self._append_body(
            f'{{"seq":{canonical_json(seq)},"state":{state_json},'
            f'"type":"checkpoint"}}'
        )
        self.sync()  # checkpoints are durability barriers by definition

    def sync(self) -> None:
        """Write an fsync marker, flush, and fsync the journal file."""
        self._append({"type": "fsync", "seq": self._last_seq})
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            finally:
                self._handle.close()
                self._handle = None


@dataclass(frozen=True)
class JournalScan:
    """Validated prefix of a journal file.

    ``records`` holds every record whose line parsed and whose CRC
    matched, in file order (header excluded); scanning stops at the
    first torn or corrupt line — everything after it is counted in
    ``truncated_lines`` and ignored, standard WAL-prefix semantics.
    """

    header: Dict
    records: Tuple[Dict, ...]
    valid_bytes: int
    truncated_lines: int


def scan_journal(path: str) -> JournalScan:
    """Parse the valid prefix of a journal (CRC-checked, torn-tail safe).

    Raises:
        JournalError: the file is missing, empty, or its first record is
            not a valid ``rtmdm-journal/1`` header.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    records: List[Dict] = []
    header: Optional[Dict] = None
    valid_bytes = 0
    truncated = 0
    offset = 0
    for line in raw.splitlines(keepends=True):
        end = offset + len(line)
        text = line.strip()
        if text:
            record = _parse_record(text)
            if record is None:
                truncated += sum(
                    1 for rest in raw[offset:].splitlines() if rest.strip()
                )
                break
            if header is None:
                if record.get("type") != "header" or record.get(
                    "schema"
                ) != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"{path}: first record is not an {JOURNAL_SCHEMA} "
                        f"header"
                    )
                header = record
            else:
                records.append(record)
            valid_bytes = end
        offset = end
    if header is None:
        raise JournalError(f"{path}: no valid journal header")
    return JournalScan(
        header=header,
        records=tuple(records),
        valid_bytes=valid_bytes,
        truncated_lines=truncated,
    )


def _parse_record(text: bytes) -> Optional[Dict]:
    """One journal line -> record dict, or None if torn/corrupt."""
    try:
        record = json.loads(text)
    except ValueError:
        return None
    if not isinstance(record, dict) or "type" not in record or "crc" not in record:
        return None
    if record["crc"] != _crc(record):
        return None
    return record


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What one journal recovery did (the replay counters chaos asserts)."""

    checkpoint_seq: int
    decisions_replayed: int
    records_scanned: int
    truncated_lines: int
    commits_verified: int
    commits_repaired: int
    recovery_us: float  # wall clock; report-only, never bit-compared

    def to_dict(self) -> Dict:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "decisions_replayed": self.decisions_replayed,
            "records_scanned": self.records_scanned,
            "truncated_lines": self.truncated_lines,
            "commits_verified": self.commits_verified,
            "commits_repaired": self.commits_repaired,
            "recovery_us": round(self.recovery_us, 1),
        }


class ReplayedDecision(NamedTuple):
    """One replayed intent's decision; ``verified`` is False when its
    commit record was lost and has been repaired."""

    seq: int
    decision: Any
    verified: bool


class JournalReplay(NamedTuple):
    """What :func:`replay_journal` rebuilt."""

    journal: DecisionJournal
    report: RecoveryReport
    decisions: List[ReplayedDecision]


def replay_journal(
    path: str,
    scan: JournalScan,
    restore: Callable[[Optional[Dict]], None],
    decide: Callable[[Request, Dict], Any],
    fsync_interval: int = 8,
    started_ns: Optional[int] = None,
) -> JournalReplay:
    """The write-ahead-journal replay shared by every durable engine.

    Hands the last checkpoint's state (``None`` without one) to
    ``restore`` and replays each intent past it through
    ``decide(request, extra)``; a replayed decision's ``to_dict()`` must
    equal its surviving commit record.  Then truncates the torn/corrupt
    tail off ``path``, reopens the journal for appending and appends a
    commit for every replayed intent whose commit was lost.  Header and
    checkpoint-schema checks stay with the caller; ``started_ns`` (a
    ``perf_counter_ns`` reading) lets ``recovery_us`` include its scan.

    Raises:
        JournalError: intent sequence gap, or a replayed decision
            diverging from its journaled commit.
    """
    start_ns = time.perf_counter_ns() if started_ns is None else started_ns
    checkpoint_pos = -1
    checkpoint: Optional[Dict] = None
    for pos, record in enumerate(scan.records):
        if record["type"] == "checkpoint":
            checkpoint, checkpoint_pos = record, pos
    restore(None if checkpoint is None else checkpoint["state"])
    checkpoint_seq = 0 if checkpoint is None else checkpoint["seq"]
    commits: Dict[int, Dict] = {}
    intents: List[Dict] = []
    for record in scan.records[checkpoint_pos + 1:]:
        kind = record["type"]
        if kind == "intent":
            intents.append(record)
        elif kind == "commit":
            commits[record["seq"]] = record["decision"]
    next_seq = checkpoint_seq
    replayed: List[ReplayedDecision] = []
    for record in intents:
        seq = record["seq"]
        if seq < next_seq:
            continue  # covered by the checkpoint already
        if seq != next_seq:
            raise JournalError(
                f"{path}: journal gap — intent seq {seq} but replay is "
                f"at {next_seq}"
            )
        decision = decide(
            Request.from_dict(record["request"]), record.get("extra", {})
        )
        next_seq += 1
        want = commits.get(seq)
        if want is not None and decision.to_dict() != want:
            raise JournalError(
                f"{path}: replay divergence at seq {seq}: replay "
                f"decided {decision.to_dict()!r}, journal committed "
                f"{want!r}"
            )
        replayed.append(ReplayedDecision(seq, decision, want is not None))
    if scan.truncated_lines:
        os.truncate(path, scan.valid_bytes)
    journal = DecisionJournal.resume(path, fsync_interval)
    journal._last_seq = next_seq - 1
    repaired = [r for r in replayed if not r.verified]
    for r in repaired:
        journal.append_commit(r.seq, r.decision.to_dict())
    report = RecoveryReport(
        checkpoint_seq=checkpoint_seq,
        decisions_replayed=len(replayed),
        records_scanned=len(scan.records) + 1,
        truncated_lines=scan.truncated_lines,
        commits_verified=len(replayed) - len(repaired),
        commits_repaired=len(repaired),
        recovery_us=(time.perf_counter_ns() - start_ns) / 1000.0,
    )
    return JournalReplay(journal, report, replayed)


def recover(
    path: str,
    factory: Callable[[], AdmissionController],
    fsync_interval: int = 8,
) -> Tuple[AdmissionController, DecisionJournal, RecoveryReport]:
    """Rebuild a controller from a journal and reopen it for appending.

    Checks the journal header against the controller's configuration,
    then runs :func:`replay_journal` with the controller's
    :meth:`~AdmissionController.restore` and
    :meth:`~AdmissionController.handle`.

    Raises:
        JournalError: unreadable journal, intent sequence gap, or a
            replayed decision diverging from its journaled commit.
        CheckpointError: the journal (or its checkpoint) was written
            under a different controller configuration.
    """
    start_ns = time.perf_counter_ns()
    scan = scan_journal(path)
    controller = factory()
    recorded = scan.header.get("config")
    echo = controller.config_echo()
    if recorded != echo:
        raise CheckpointError(
            f"journal {path} was written under a different configuration "
            f"(recorded {recorded!r}, restoring {echo!r})"
        )

    def restore(state: Optional[Dict]) -> None:
        if state is not None:
            controller.restore(state)

    replay = replay_journal(
        path, scan, restore, lambda request, extra: controller.handle(request),
        fsync_interval, started_ns=start_ns,
    )
    return controller, replay.journal, replay.report


# ----------------------------------------------------------------------
# Idempotent, validated ingress
# ----------------------------------------------------------------------


class StreamError(ValueError):
    """An envelope stream violated its integrity contract."""


@dataclass(frozen=True)
class Envelope:
    """Transport wrapper around one request.

    Attributes:
        seq: Producer-assigned monotonic sequence number (0-based
            position in the canonical stream).
        request_id: Globally unique id; the dedup key under
            at-least-once delivery.
        request: The request body.
        arrival_s: Transport timestamp.  Informational only — decisions
            key off the request's *logical* ``time_s``, so transport
            clock skew cannot change any decision.
    """

    seq: int
    request_id: str
    request: Request
    arrival_s: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "seq": self.seq,
            "request_id": self.request_id,
            "request": self.request.to_dict(),
            "arrival_s": self.arrival_s,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "Envelope":
        """Strictly validate a transport dict.

        Raises:
            StreamError: missing/invalid envelope fields.
            TraceFormatError: malformed request body.
        """
        if not isinstance(d, dict):
            raise StreamError(
                f"envelope must be a JSON object, got {type(d).__name__}"
            )
        for fieldname in ("seq", "request_id", "request"):
            if fieldname not in d:
                raise StreamError(f"envelope missing field {fieldname!r}")
        seq = d["seq"]
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise StreamError(f"envelope seq must be an int >= 0, got {seq!r}")
        request = Request.from_dict(d["request"])
        return cls(
            seq=seq,
            request_id=str(d["request_id"]),
            request=request,
            arrival_s=float(d.get("arrival_s", 0.0)),
        )


def envelope_stream(trace: "RequestTrace") -> List[Envelope]:
    """The canonical (in-order, exactly-once) envelopes of a trace."""
    return [
        Envelope(
            seq=i,
            request_id=f"r{i:06d}",
            request=request,
            arrival_s=request.time_s,
        )
        for i, request in enumerate(trace)
    ]


@dataclass
class GateStats:
    """Ingress accounting: what the gate absorbed to keep order exact."""

    delivered: int = 0
    emitted: int = 0
    duplicates: int = 0
    stale: int = 0
    max_buffered: int = 0

    def to_dict(self) -> Dict:
        return {
            "delivered": self.delivered,
            "emitted": self.emitted,
            "duplicates": self.duplicates,
            "stale": self.stale,
            "max_buffered": self.max_buffered,
        }


class IngressGate:
    """Normalize an at-least-once, possibly-reordered delivery stream.

    Emits each canonical request exactly once, in sequence order.
    Duplicates (by request id, or by an already-emitted sequence number)
    are silently absorbed; out-of-order envelopes wait in a bounded
    buffer until the gap fills.  A gap wider than ``holdback`` means a
    message was truly lost beyond the reordering window — that raises
    :class:`StreamError` rather than silently skipping decisions.
    """

    def __init__(
        self,
        holdback: int = 64,
        dedup_window: int = 256,
        next_seq: int = 0,
    ) -> None:
        if holdback < 1:
            raise ValueError(f"holdback must be >= 1, got {holdback}")
        if dedup_window < 1:
            raise ValueError(f"dedup_window must be >= 1, got {dedup_window}")
        if next_seq < 0:
            raise ValueError(f"next_seq must be >= 0, got {next_seq}")
        self._holdback = holdback
        self._next = next_seq
        self._buffer: Dict[int, Envelope] = {}
        self._recent_ids: deque = deque(maxlen=dedup_window)
        self._recent_set: set = set()
        self.stats = GateStats()

    def _remember(self, request_id: str) -> None:
        if len(self._recent_ids) == self._recent_ids.maxlen:
            self._recent_set.discard(self._recent_ids[0])
        self._recent_ids.append(request_id)
        self._recent_set.add(request_id)

    def offer(self, envelope: Envelope) -> List[Request]:
        """Accept one delivery; return newly in-order requests (maybe [])."""
        self.stats.delivered += 1
        if envelope.seq < self._next:
            self.stats.stale += 1
            return []
        if envelope.request_id in self._recent_set or envelope.seq in self._buffer:
            self.stats.duplicates += 1
            return []
        if envelope.seq - self._next > self._holdback:
            raise StreamError(
                f"reordering holdback exceeded: delivery seq {envelope.seq} "
                f"while still waiting for {self._next} "
                f"(holdback {self._holdback})"
            )
        self._buffer[envelope.seq] = envelope
        self.stats.max_buffered = max(self.stats.max_buffered, len(self._buffer))
        ready: List[Request] = []
        while self._next in self._buffer:
            env = self._buffer.pop(self._next)
            self._remember(env.request_id)
            ready.append(env.request)
            self._next += 1
            self.stats.emitted += 1
        return ready


# ----------------------------------------------------------------------
# Runtime invariant monitor
# ----------------------------------------------------------------------


class InvariantViolation(RuntimeError):
    """An inline runtime invariant failed (always a real bug somewhere)."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


class InvariantMonitor:
    """Inline re-checks of the properties admission control relies on.

    Independent by construction: the checks go through
    :class:`AdmissionController`'s *class* methods and public state
    views, so a controller whose instance methods were tampered with
    (or whose state was corrupted) is still caught.  ``counts`` records
    how often each check ran — CI fails if any stayed at zero, so a
    silently-skipped invariant cannot pass a chaos gate.
    """

    CHECKS = (
        "sram-capacity",
        "admitted-screen",
        "modechange-accounting",
        "decision-log",
    )

    def __init__(
        self, controller: AdmissionController, check_screen: bool = True
    ) -> None:
        self._controller = controller
        self._check_screen = check_screen
        self.counts: Dict[str, int] = {name: 0 for name in self.CHECKS}

    def check(self, at_cycle: int) -> List[str]:
        """Run every enabled invariant; raise on the first violation."""
        ran = [
            self._sram_capacity(at_cycle),
            self._modechange_accounting(at_cycle),
            self._decision_log(),
        ]
        if self._check_screen:
            ran.append(self._admitted_screen())
        return ran

    def _passed(self, name: str) -> str:
        self.counts[name] += 1
        return name

    def _sram_capacity(self, at_cycle: int) -> str:
        c = self._controller
        reserved = c.reserved_sram(at_cycle)
        capacity = c.platform.usable_sram_bytes
        if reserved > capacity:
            raise InvariantViolation(
                "sram-capacity",
                f"reserved {reserved} B exceeds capacity {capacity} B "
                f"at cycle {at_cycle}",
            )
        return self._passed("sram-capacity")

    def _admitted_screen(self) -> str:
        c = self._controller
        resident = list(c.resident.values())
        if resident:
            # Class-level call on purpose: an instance-level override
            # (the "skipped screen" failure mode) must not fool the
            # monitor into re-using the tampered test.
            ranked = AdmissionController._rank(c, resident)
            ok, _ = AdmissionController._schedulable(c, ranked)
            if not ok:
                names = ", ".join(sorted(i.instance for i in resident))
                raise InvariantViolation(
                    "admitted-screen",
                    f"admitted union {{{names}}} fails the independent "
                    f"schedulability re-check",
                )
        return self._passed("admitted-screen")

    def _modechange_accounting(self, at_cycle: int) -> str:
        c = self._controller
        instances = c.all_instances()
        by_task: Dict[str, List] = {}
        for inst in sorted(instances, key=lambda i: i.start_cycle):
            by_task.setdefault(inst.task, []).append(inst)
        draining = 0
        for chain in by_task.values():
            for pos, inst in enumerate(chain):
                if inst.stop_cycle is None:
                    continue
                successor = chain[pos + 1] if pos + 1 < len(chain) else None
                if successor is not None and (
                    successor.start_cycle < inst.stop_cycle
                ):
                    raise InvariantViolation(
                        "modechange-accounting",
                        f"{successor.instance} starts at "
                        f"{successor.start_cycle} before its predecessor "
                        f"{inst.instance} stops at {inst.stop_cycle}",
                    )
                until = inst.stop_cycle + inst.deadline
                if successor is not None:
                    until = max(until, successor.start_cycle)
                if until > at_cycle:
                    draining += inst.sram_bytes
        reserved = c.reserved_sram(at_cycle) - sum(
            i.sram_bytes for i in c.resident.values()
        )
        if reserved < draining:
            raise InvariantViolation(
                "modechange-accounting",
                f"draining instances still need {draining} B but only "
                f"{reserved} B are reserved at cycle {at_cycle}",
            )
        return self._passed("modechange-accounting")

    def _decision_log(self) -> str:
        decisions = self._controller.decisions
        for pos, decision in enumerate(decisions):
            if decision.seq != pos:
                raise InvariantViolation(
                    "decision-log",
                    f"decision at position {pos} carries seq {decision.seq}",
                )
        times = [d.time_s for d in decisions]
        if any(b < a for a, b in zip(times, times[1:])):
            raise InvariantViolation(
                "decision-log", "decision timestamps are not non-decreasing"
            )
        return self._passed("decision-log")


# ----------------------------------------------------------------------
# The durable serve loop
# ----------------------------------------------------------------------


@dataclass
class DurableServeResult:
    """Outcome of one :func:`serve_durable` run."""

    report: "ServeReport"
    recovery: Optional[RecoveryReport]
    gate: GateStats
    journal_records: int
    checkpoints_written: int
    invariants: Dict[str, int] = field(default_factory=dict)


def serve_durable(
    runtime: "OnlineRuntime",
    envelopes: Iterable[Envelope],
    duration_s: float,
    journal_path: str,
    *,
    checkpoint_interval: int = 16,
    fsync_interval: int = 8,
    holdback: int = 64,
    dedup_window: int = 256,
    monitor: bool = True,
    check_screen: bool = True,
    restore: bool = False,
    simulate: bool = False,
    record_trace: bool = False,
    crash_at: Optional[int] = None,
) -> DurableServeResult:
    """Serve an envelope stream with journaling, checkpoints and recovery.

    With ``restore=True`` the controller is first rebuilt from
    ``journal_path`` (checkpoint + intent replay); the gate then absorbs
    re-delivered envelopes the journal already covers, so callers can
    simply re-offer the *entire* stream after a crash.  ``crash_at=k``
    raises :class:`InjectedCrash` right after intent ``k`` is journaled
    and before the controller mutates — the chaos harness's crash hook.

    The :class:`InvariantMonitor` runs inline after every decision when
    ``monitor`` is set and its violations propagate (fail-loud).
    """
    if checkpoint_interval < 1:
        raise ValueError(
            f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
        )
    recovery: Optional[RecoveryReport] = None
    if restore:
        controller, journal, recovery = recover(
            journal_path, runtime.controller, fsync_interval=fsync_interval
        )
    else:
        controller = runtime.controller()
        journal = DecisionJournal.create(
            journal_path, controller.config_echo(), fsync_interval=fsync_interval
        )
    mon = (
        InvariantMonitor(controller, check_screen=check_screen)
        if monitor
        else None
    )
    gate = IngressGate(
        holdback=holdback,
        dedup_window=dedup_window,
        next_seq=len(controller.decisions),
    )
    checkpoints = 0
    cycles_of = runtime.platform.mcu.seconds_to_cycles
    try:
        for envelope in envelopes:
            for request in gate.offer(envelope):
                seq = len(controller.decisions)
                journal.append_intent(seq, request)
                if crash_at is not None and seq >= crash_at:
                    raise InjectedCrash(seq)
                decision = controller.handle(request)
                journal.append_commit(decision.seq, decision.to_dict())
                if mon is not None:
                    mon.check(cycles_of(request.time_s))
                done = len(controller.decisions)
                if done % checkpoint_interval == 0:
                    journal.append_checkpoint(
                        done, canonical_json(controller.snapshot())
                    )
                    checkpoints += 1
    finally:
        journal.close()
    report = runtime.report(
        controller, duration_s, simulate=simulate, record_trace=record_trace
    )
    return DurableServeResult(
        report=report,
        recovery=recovery,
        gate=gate.stats,
        journal_records=journal.records_written,
        checkpoints_written=checkpoints,
        invariants=dict(mon.counts) if mon is not None else {},
    )


def serve_trace_durable(
    runtime: "OnlineRuntime",
    trace: "RequestTrace",
    journal_path: str,
    **kwargs,
) -> DurableServeResult:
    """:func:`serve_durable` over a trace's canonical envelope stream."""
    return serve_durable(
        runtime,
        envelope_stream(trace),
        trace.duration_s,
        journal_path,
        **kwargs,
    )
