"""Fleet-scale admission serving: a sharded, batched, async service.

This module simulates 10k-1M devices sharing one central admission
service.  Devices are grouped into platform/workload **cohorts** (so the
fleet's planning state collapses onto a handful of platform objects and
their plan-cache keys), requests are routed to per-shard FIFO queues by
a deterministic device hash, and each shard drains its queue in batches
whose requests it decides one at a time, through the admission
controller's screen (:func:`repro.online.admission.mass_screen` over one
candidate list, i.e. one
:func:`~repro.online.admission.oblivious_screen`) with
:func:`repro.core.segcache.cached_analyze` as the exact fallback.
Planning goes through :func:`repro.online.admission.plan_segments` —
the same policy as the single-device controller — so a configured
:mod:`repro.core.planstore` amortizes one segmentation search across the
whole fleet and across runs.

Time model
----------

The service runs in **virtual time**: request arrival instants come from
the trace, each decided batch occupies its shard for ``service_us``
microseconds per decision, and a batch's decisions all complete when the
batch does.  Queue depths, shard utilization and queueing-latency
percentiles are therefore pure functions of the trace and the
configuration — deterministic and comparable across machines — while the
*engine* throughput (decisions/sec) and per-decision wall-clock latency
are measured separately and reported via ``meta``-style fields.

Identity guarantees
-------------------

A decision for device *d* depends only on *d*'s own resident set (plus
the immutable cohort platform), and the service admits at most one
request per device per batch (later same-device requests are held back
to the next batch), so per-device request order is preserved under any
shard count or batch size.  Every request — in a batch, an inline
rescue or a journal replay — goes through the same per-request decision
(``FleetService._decide``); ``mass_screen`` is the controller's own
screen and ``cached_analyze`` is exact, so **sharded decisions are
bit-identical to the single-shard serial path** — the identity gate in
``tests/test_fleet.py`` and CI asserts this with backpressure disabled
(shedding depends on queue depth, which legitimately differs by shard
count; the gate requires zero sheds).

Durability and resilience
-------------------------

With ``journal_dir`` set, every shard keeps its own CRC-tagged
write-ahead journal (:class:`repro.online.durable.DecisionJournal`):
intents before the batch decides, commits after, with the fleet request
encoded as a device-qualified :class:`repro.online.events.Request`.
Journals are opened *open-or-create*: an existing journal with a
matching configuration is recovered through the single-device
controller's replay, :func:`repro.online.durable.replay_journal`
(checkpoint restore + intent-suffix replay, commits verified not
trusted, torn tail cut, lost commits repaired), and appended to, so a
restarted service carries its resident state forward instead of
clobbering its own history.  Three fault-tolerance mechanisms ride on top:

* **Shard crash/restart** (``crash_at=((shard, index), ...)``): the
  shard "dies" after journaling a batch's intents but before their
  commits — PR 6's worst crash point — losing all in-memory state; it
  then recovers from its own journal and re-decides the torn batch.
  Recovery is charged wall-clock (it lowers engine throughput) but zero
  *virtual* time, so a recovered run's decision stream and queueing
  stats are bit-identical to the uninterrupted run — the fleet chaos
  matrix (:func:`repro.robust.chaos.run_fleet_matrix`) enforces this.
* **Decision timeouts with retry/backoff** (``timeout_ms``): a request
  whose head-of-queue wait exceeds the virtual deadline gets a typed
  ``TIMEOUT`` decision (journaled as a non-mutating event) and a
  bounded-exponential-backoff re-release *in place*, preserving FIFO
  per-device order; after ``max_retries`` it is decided regardless, so
  every request is decided exactly once and a retry can never
  double-admit (the resident set makes re-admission an ``ignored``).
* **Degrade-before-shed ladder** (``degrade_watermark``): ADMITs that
  arrive above the watermark are decided through the controller's
  degradation ladder, :func:`repro.online.admission.degrade_ladder`
  (full -> rate-stretch -> smaller variant, screen-only here), and at
  a full queue the service first tries an inline degraded decision —
  sheds are the terminal rung only.  Degraded admits must pass the
  pessimistic RTA screen, so the ladder never admits unsoundly.
"""

from __future__ import annotations

import math
import operator
import os
import random
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.core import segcache
from repro.core.analysis import METHODS
from repro.core.segmentation import SegmentationError
from repro.dnn.quantization import INT8, Quantization
from repro.eval.metrics import latency_stats
from repro.hw.platform import Platform
from repro.hw.presets import get_platform
from repro.online.admission import (
    degrade_ladder, mass_screen, plan_segments, screen_decides,
)
from repro.online.durable import (
    DecisionJournal, JournalError, canonical_json, replay_journal,
    scan_journal,
)
from repro.online.events import Request, RequestKind
from repro.robust import recovery as resilience
from repro.sched.task import PeriodicTask, Segment, TaskSet
from repro.workload.arrivals import (
    bursty_arrival_times,
    poisson_arrival_times,
    require_finite_positive,
)
from repro.workload.taskset import DEFAULT_MODEL_POOL

__all__ = [
    "CohortSpec",
    "DEFAULT_COHORTS",
    "FLEET_SCHEMA",
    "FleetConfig",
    "FleetDecision",
    "FleetReport",
    "FleetRequest",
    "FleetService",
    "FleetTrace",
    "decision_identity",
    "fleet_trace",
    "shard_of",
]

#: Schema tag of the ``rtmdm fleet --json`` payload.
FLEET_SCHEMA = "rtmdm-fleet/1"

#: Schema tag of per-shard checkpoint records inside shard journals.
FLEET_CHECKPOINT_SCHEMA = "rtmdm-fleet-checkpoint/1"

#: Process-wide resilience counters (repro.obs group "fleet.resilience").
_RESILIENCE = obs.live("fleet.resilience")


# ----------------------------------------------------------------------
# Cohorts and traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CohortSpec:
    """One device cohort: a platform variant plus its workload mix.

    Cohort membership is ``device_index % len(cohorts)`` — deterministic
    and uniform, so every cohort's planning keys are exercised at every
    fleet size.
    """

    name: str
    platform_key: str = "f746-qspi"
    sram_kib: Optional[int] = None
    model_pool: Tuple[str, ...] = DEFAULT_MODEL_POOL
    period_ladder_s: Tuple[float, ...] = (0.1, 0.2, 0.4, 0.8)

    def platform(self) -> Platform:
        platform = get_platform(self.platform_key)
        if self.sram_kib is not None:
            platform = platform.with_sram_bytes(self.sram_kib * 1024)
        return platform


#: Default fleet mix: two SRAM variants of the paper's reference board
#: plus a faster part, so plan keys, admission pressure and decision
#: mixes differ across cohorts.
DEFAULT_COHORTS: Tuple[CohortSpec, ...] = (
    CohortSpec("f746-192k", "f746-qspi", sram_kib=192),
    CohortSpec("f746-320k", "f746-qspi", sram_kib=320),
    CohortSpec("h743-sdram", "h743-sdram"),
)


@dataclass(frozen=True)
class FleetRequest:
    """One fleet request: a device-qualified admit or remove.

    ``seq`` is the global arrival index — the identity key decisions are
    compared on across shard counts.
    """

    seq: int
    time_s: float
    device: str
    kind: RequestKind
    task: str
    model: str = ""
    period_s: float = 0.0

    def to_request(self) -> Request:
        """The journal/trace form (device-qualified task name)."""
        return Request(
            time_s=self.time_s,
            kind=self.kind,
            task=f"{self.device}/{self.task}",
            model=self.model,
            period_s=self.period_s,
        )


@dataclass(frozen=True)
class FleetTrace:
    """A time-ordered fleet request sequence over a bounded horizon."""

    requests: Tuple[FleetRequest, ...]
    duration_s: float
    n_devices: int
    cohorts: Tuple[CohortSpec, ...]
    arrival: str

    def __len__(self) -> int:
        return len(self.requests)


def fleet_trace(
    n_devices: int,
    duration_s: float,
    rate_per_device_hz: float,
    seed: int,
    cohorts: Sequence[CohortSpec] = DEFAULT_COHORTS,
    arrival: str = "poisson",
    mean_lifetime_s: float = 4.0,
    burst_factor: float = 4.0,
    duty: float = 0.25,
    mean_cycle_s: float = 2.0,
) -> FleetTrace:
    """Draw one fleet trace (a pure function of the arguments).

    Aggregate arrivals run at ``n_devices * rate_per_device_hz`` under
    the chosen arrival process (``"poisson"`` or ``"bursty"``); each
    arrival lands on a uniformly-drawn device, admits a fresh model from
    the device's cohort pool, and departs after an exponential lifetime
    (in-horizon departures become REMOVE requests).
    """
    if n_devices <= 0:
        raise ValueError(f"n_devices must be > 0, got {n_devices}")
    require_finite_positive("duration_s", duration_s)
    require_finite_positive("rate_per_device_hz", rate_per_device_hz)
    require_finite_positive("mean_lifetime_s", mean_lifetime_s)
    if not cohorts:
        raise ValueError("cohorts must be non-empty")
    rng = random.Random(seed)
    total_rate = n_devices * rate_per_device_hz
    require_finite_positive("n_devices * rate_per_device_hz", total_rate)
    if arrival == "poisson":
        times = poisson_arrival_times(duration_s, total_rate, rng)
    elif arrival == "bursty":
        times = bursty_arrival_times(
            duration_s, total_rate, rng, burst_factor, duty, mean_cycle_s
        )
    else:
        raise ValueError(
            f"unknown arrival model {arrival!r} (known: poisson, bursty)"
        )
    events: List[Tuple[float, int, str, RequestKind, str, str, float]] = []
    admit_counts: Dict[int, int] = {}
    order = 0
    for t in times:
        index = rng.randrange(n_devices)
        cohort = cohorts[index % len(cohorts)]
        device = f"d{index:07d}"
        count = admit_counts.get(index, 0)
        admit_counts[index] = count + 1
        task = f"m{count}"
        model = rng.choice(list(cohort.model_pool))
        period_s = rng.choice(list(cohort.period_ladder_s))
        events.append((t, order, device, RequestKind.ADMIT, task, model, period_s))
        order += 1
        end_s = t + rng.expovariate(1.0 / mean_lifetime_s)
        if end_s < duration_s:
            events.append((end_s, order, device, RequestKind.REMOVE, task, "", 0.0))
            order += 1
    events.sort(key=lambda e: (e[0], e[1]))
    requests = tuple(
        FleetRequest(
            seq=seq, time_s=e[0], device=e[2], kind=e[3],
            task=e[4], model=e[5], period_s=e[6],
        )
        for seq, e in enumerate(events)
    )
    return FleetTrace(
        requests=requests,
        duration_s=duration_s,
        n_devices=n_devices,
        cohorts=tuple(cohorts),
        arrival=arrival,
    )


def shard_of(device: str, n_shards: int) -> int:
    """Deterministic device → shard routing (stable across processes)."""
    return zlib.crc32(device.encode("utf-8")) % n_shards


# ----------------------------------------------------------------------
# Service configuration and decisions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """Decision-relevant service configuration.

    ``service_us`` is the virtual per-decision service cost the queueing
    model charges (it does not gate the engine); ``max_queue_depth``
    bounds each shard's queue — arrivals beyond it are shed (after the
    degrade ladder's inline rescue, when ``degrade_watermark`` is set).

    ``method`` names the exact analysis.  A full-service admit skips
    it on a screen pass only where the screen dominates it
    (:func:`~repro.online.admission.screen_decides`: ``oblivious``,
    ``overlap`` and ``rtmdm``); under ``holistic``, which charges
    lower-priority load as DMA-stage blocking on top of the CPU-stage
    blocking the screen counts once, every full-service admit runs the
    analysis.  Degrade-ladder admits are screen-only.

    Resilience knobs: ``checkpoint_interval`` bounds journal-suffix
    replay; ``crash_at`` injects seeded shard crashes (requires a
    journal to recover from); ``timeout_ms``/``max_retries``/
    ``backoff_ms``/``backoff_cap_ms`` govern decision timeouts;
    ``degrade_watermark`` arms the degrade-before-shed ladder whose
    rungs come from ``stretch_factors`` and ``degrade_factor`` (the
    admission controller's :func:`~repro.online.admission.degrade_ladder`).
    """

    n_shards: int = 4
    batch_size: int = 64
    max_queue_depth: int = 100_000
    service_us: float = 150.0
    method: str = "rtmdm"
    quant: Quantization = INT8
    buffers: int = 2
    journal_dir: Optional[str] = None
    fsync_interval: int = 256
    checkpoint_interval: int = 64
    crash_at: Tuple[Tuple[int, int], ...] = ()
    timeout_ms: Optional[float] = None
    max_retries: int = 3
    backoff_ms: float = 2.0
    backoff_cap_ms: float = 64.0
    degrade_watermark: Optional[int] = None
    stretch_factors: Tuple[float, ...] = (1.25, 1.5, 2.0)
    degrade_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ValueError(f"n_shards must be > 0, got {self.n_shards}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be > 0, got {self.batch_size}")
        if self.max_queue_depth <= 0:
            raise ValueError(
                f"max_queue_depth must be > 0, got {self.max_queue_depth}"
            )
        if not 0 < self.service_us < math.inf:
            raise ValueError(
                f"service_us must be finite and > 0, got {self.service_us}"
            )
        if self.buffers < 1:
            raise ValueError(f"buffers must be >= 1, got {self.buffers}")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown analysis method {self.method!r} "
                f"(known: {', '.join(METHODS)})"
            )
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, "
                f"got {self.checkpoint_interval}"
            )
        for item in self.crash_at:
            if len(item) != 2:
                raise ValueError(f"crash_at entries are (shard, index): {item!r}")
            shard, at = item
            if not 0 <= shard < self.n_shards:
                raise ValueError(
                    f"crash_at shard {shard} out of range 0..{self.n_shards - 1}"
                )
            if at < 0:
                raise ValueError(f"crash_at index must be >= 0, got {at}")
        if self.crash_at and not self.journal_dir:
            raise ValueError(
                "crash_at requires journal_dir (a crashed shard recovers "
                "from its journal)"
            )
        if self.timeout_ms is not None and not 0 < self.timeout_ms < math.inf:
            raise ValueError(
                f"timeout_ms must be finite and > 0, got {self.timeout_ms}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        for name in ("backoff_ms", "backoff_cap_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # ExponentialBackoff validates base/cap consistency.
        resilience.ExponentialBackoff(self.backoff_ms, self.backoff_cap_ms)
        if self.degrade_watermark is not None:
            if not 1 <= self.degrade_watermark <= self.max_queue_depth:
                raise ValueError(
                    f"degrade_watermark must be in 1..max_queue_depth, "
                    f"got {self.degrade_watermark}"
                )
        for f in self.stretch_factors:
            if not 1.0 < f < math.inf:
                raise ValueError(
                    f"stretch factors must be finite and > 1.0, got {f}"
                )
        if not 0.0 < self.degrade_factor <= 1.0:
            raise ValueError(
                f"degrade_factor must be in (0, 1], got {self.degrade_factor}"
            )


@dataclass(frozen=True)
class FleetDecision:
    """One fleet decision; the identity tuple excludes ``shard``.

    ``outcome`` is ``admitted`` / ``rejected`` / ``removed`` /
    ``ignored`` / ``shed`` / ``timeout``; ``reason`` carries the
    justification (``rta-oblivious``/``analysis`` for admissions,
    ``sram: ...`` / ``rta: ...`` for rejections, ``queue-full: ...``
    for sheds, ``deadline: ...`` for timeouts).  ``mode`` is the
    admitted service level (``full`` or a degrade-ladder rung such as
    ``rate/1.5`` or ``variant``); ``attempt`` is the retry attempt that
    produced the record (``timeout`` records are non-terminal — the
    final decision for the same ``seq`` carries a higher attempt).
    """

    seq: int
    device: str
    task: str
    kind: str
    outcome: str
    reason: str = ""
    shard: int = -1
    mode: str = ""
    attempt: int = 0

    def to_dict(self) -> Dict:
        return {
            "seq": self.seq,
            "device": self.device,
            "task": self.task,
            "kind": self.kind,
            "outcome": self.outcome,
            "reason": self.reason,
            "shard": self.shard,
            "mode": self.mode,
            "attempt": self.attempt,
        }


def decision_identity(decisions: Sequence[FleetDecision]) -> List[Tuple]:
    """The shard-independent projection compared by the identity gate."""
    return [
        (d.seq, d.attempt, d.device, d.task, d.kind, d.outcome, d.reason,
         d.mode)
        for d in decisions
    ]


class _Resident(NamedTuple):
    """One admitted model on one device (the fleet's per-device state).

    ``plan_key`` is the exact planning input ``(cohort, model, period,
    free_bytes)`` that produced ``segments``/``sram_bytes``; planning is
    deterministic, so equal plan keys imply equal plans — which is what
    lets the union-verdict memo key on plan keys instead of segment
    contents.
    """

    task: str
    model: str
    segments: Tuple[Segment, ...]
    period: int
    deadline: int
    sram_bytes: int
    plan_key: Tuple
    mode: str = "full"


def _resident_state(r: _Resident) -> Dict:
    """JSON form of one resident (embedded in shard checkpoints)."""
    return {
        "task": r.task,
        "model": r.model,
        "segments": [
            [s.name, s.load_cycles, s.compute_cycles, s.load_bytes,
             s.xip_bytes]
            for s in r.segments
        ],
        "period": r.period,
        "deadline": r.deadline,
        "sram_bytes": r.sram_bytes,
        "plan_key": list(r.plan_key),
        "mode": r.mode,
    }


def _resident_from_state(d: Dict) -> _Resident:
    return _Resident(
        task=d["task"],
        model=d["model"],
        segments=tuple(Segment(*row) for row in d["segments"]),
        period=d["period"],
        deadline=d["deadline"],
        sram_bytes=d["sram_bytes"],
        plan_key=tuple(d["plan_key"]),
        mode=d["mode"],
    )


class _Queued:
    """One queued request plus its retry/degrade serving state.

    ``time_s`` is the request's *current* release instant — a timeout
    pushes it into the future (backoff) without moving the entry, so
    the FIFO never reorders a device's requests.  ``orig_time_s`` keeps
    the true arrival for queueing-latency accounting.
    """

    __slots__ = ("req", "time_s", "orig_time_s", "attempt", "degraded",
                 "inline")

    def __init__(
        self, req: FleetRequest, degraded: bool = False,
        inline: bool = False,
    ) -> None:
        self.req = req
        self.time_s = req.time_s
        self.orig_time_s = req.time_s
        self.attempt = 0
        self.degraded = degraded
        self.inline = inline


def _decided(
    entry: _Queued, shard: int, outcome: Tuple[str, str, str]
) -> FleetDecision:
    """The final decision record for a decided queue entry."""
    req = entry.req
    return FleetDecision(
        seq=req.seq, device=req.device, task=req.task, kind=req.kind.value,
        outcome=outcome[0], reason=outcome[1], shard=shard, mode=outcome[2],
        attempt=entry.attempt,
    )


class _Shard:
    __slots__ = (
        "index", "queue", "busy_until_s", "busy_s", "decided",
        "peak_depth", "journal", "journal_path", "devices", "inflight",
        "seq_base", "ckpt_seq", "crash_schedule", "recovered",
        "recoveries", "fragments",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: Deque[_Queued] = deque()
        self.busy_until_s = 0.0
        self.busy_s = 0.0
        self.decided = 0            # decisions this run
        self.peak_depth = 0
        self.journal: Optional[DecisionJournal] = None
        self.journal_path: Optional[str] = None
        self.devices: Dict[str, Dict[str, _Resident]] = {}
        self.inflight: Dict[str, int] = {}
        self.seq_base = 0           # journal seq of this run's first intent
        self.ckpt_seq = 0           # journal seq the last checkpoint covers
        self.crash_schedule: List[int] = []
        self.recovered = 0
        self.recoveries: List[Dict] = []
        # device -> (residents encoded, checkpoint fragment text)
        self.fragments: Dict[str, Tuple[Tuple[_Resident, ...], str]] = {}


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class FleetReport:
    """Outcome of one fleet run.

    Everything except ``wall_s`` / ``engine_s`` / ``decisions_per_s`` /
    ``decision_latency_us`` is deterministic in the (trace, config)
    pair; those four are wall-clock engine measurements.
    """

    n_devices: int
    n_shards: int
    batch_size: int
    service_us: float
    duration_s: float
    arrival: str
    requests: int
    admitted: int
    rejected_sram: int
    rejected_rta: int
    removed: int
    ignored: int
    shed: int
    decisions: List[FleetDecision]
    shard_stats: List[Dict]
    queueing_latency_ms: Dict
    decision_latency_us: Dict
    wall_s: float
    engine_s: float
    cache: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Raw per-decision engine wall latencies (batch-averaged, µs);
    #: kept out of :meth:`to_dict` — callers aggregate across runs.
    wall_latencies_us: List[float] = field(default_factory=list)
    #: Degrade-ladder admits (mode != "full") among ``admitted``.
    degraded_admits: int = 0
    #: Typed TIMEOUT records issued (each one re-enqueued a request).
    timeout_retries: int = 0
    #: Shard recoveries (startup journal resumes + in-run crash recoveries).
    recovered: int = 0
    #: Non-terminal TIMEOUT records (the final decisions stay in
    #: ``decisions``); :meth:`all_decisions` merges the two streams.
    timeout_decisions: List[FleetDecision] = field(default_factory=list)

    @property
    def admit_requests(self) -> int:
        return self.admitted + self.rejected_sram + self.rejected_rta

    @property
    def admission_ratio(self) -> float:
        n = self.admit_requests
        return self.admitted / n if n else 1.0

    @property
    def decided(self) -> int:
        """Requests that reached the decision engine (everything but sheds)."""
        return self.requests - self.shed

    @property
    def decisions_per_s(self) -> float:
        """Engine throughput: decided requests over engine wall time."""
        return self.decided / self.engine_s if self.engine_s > 0 else 0.0

    @property
    def peak_queue_depth(self) -> int:
        return max((s["peak_depth"] for s in self.shard_stats), default=0)

    def all_decisions(self) -> List[FleetDecision]:
        """Final decisions merged with TIMEOUT records, in (seq, attempt)
        order — the stream the fleet chaos matrix compares."""
        return sorted(
            [*self.decisions, *self.timeout_decisions],
            key=lambda d: (d.seq, d.attempt),
        )

    @property
    def shard_utilization(self) -> float:
        """Mean busy fraction of the shards over the virtual horizon."""
        if not self.shard_stats:
            return 0.0
        horizon = max(
            self.duration_s,
            max((s["busy_until_s"] for s in self.shard_stats), default=0.0),
        )
        busy = sum(s["busy_s"] for s in self.shard_stats)
        return busy / (horizon * len(self.shard_stats))

    def to_dict(self, include_decisions: bool = False) -> Dict:
        """Machine-readable report (the ``rtmdm fleet --json`` payload)."""
        payload: Dict = {
            "schema": FLEET_SCHEMA,
            "n_devices": self.n_devices,
            "n_shards": self.n_shards,
            "batch_size": self.batch_size,
            "service_us": self.service_us,
            "duration_s": self.duration_s,
            "arrival": self.arrival,
            "requests": self.requests,
            "admit_requests": self.admit_requests,
            "admitted": self.admitted,
            "rejected_sram": self.rejected_sram,
            "rejected_rta": self.rejected_rta,
            "removed": self.removed,
            "ignored": self.ignored,
            "shed": self.shed,
            "degraded_admits": self.degraded_admits,
            "timeout_retries": self.timeout_retries,
            "recovered": self.recovered,
            "admission_ratio": round(self.admission_ratio, 4),
            "peak_queue_depth": self.peak_queue_depth,
            "shard_utilization": round(self.shard_utilization, 4),
            "queueing_latency_ms": self.queueing_latency_ms,
            "decision_latency_us": self.decision_latency_us,
            "decisions_per_s": round(self.decisions_per_s, 1),
            "wall_s": round(self.wall_s, 3),
            "engine_s": round(self.engine_s, 3),
            "shards": self.shard_stats,
            "cache": {name: list(vals) for name, vals in self.cache.items()},
        }
        if include_decisions:
            payload["decisions"] = [d.to_dict() for d in self.all_decisions()]
        return payload


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class FleetService:
    """Sharded batch admission over a device fleet (virtual time)."""

    def __init__(
        self,
        cohorts: Sequence[CohortSpec] = DEFAULT_COHORTS,
        config: FleetConfig = FleetConfig(),
    ) -> None:
        if not cohorts:
            raise ValueError("cohorts must be non-empty")
        self.cohorts = tuple(cohorts)
        self.config = config
        self._backoff = resilience.ExponentialBackoff(
            config.backoff_ms, config.backoff_cap_ms
        )
        # One platform object per cohort for the whole run: the segcache
        # fingerprint memos are identity-keyed, so key construction
        # stays O(1) per decision.
        self._platforms = [cohort.platform() for cohort in self.cohorts]
        self._screen_decides = screen_decides(config.method)
        # Per-run memos (see ``_decide``); ``run`` starts each run empty.
        self._plan_memo: Dict[Tuple, Tuple] = {}
        self._verdict_memo: Dict[Tuple, str] = {}
        self._screen_memo: Dict[Tuple, str] = {}

    # -- setup ---------------------------------------------------------
    def _journal_config(self, shard_index: int) -> Dict:
        """The decision-relevant config echoed into each shard's journal
        header; open-or-create refuses a journal whose header differs
        (replaying it under another config would diverge)."""
        cfg = self.config
        return {
            "schema": FLEET_SCHEMA,
            "shard": shard_index,
            "n_shards": cfg.n_shards,
            "batch_size": cfg.batch_size,
            "max_queue_depth": cfg.max_queue_depth,
            "service_us": cfg.service_us,
            "method": cfg.method,
            "quant": cfg.quant.name,
            "buffers": cfg.buffers,
            "timeout_ms": cfg.timeout_ms,
            "max_retries": cfg.max_retries,
            "backoff_ms": cfg.backoff_ms,
            "backoff_cap_ms": cfg.backoff_cap_ms,
            "degrade_watermark": cfg.degrade_watermark,
            "stretch_factors": list(cfg.stretch_factors),
            "degrade_factor": cfg.degrade_factor,
            "cohorts": [c.name for c in self.cohorts],
        }

    def _open_shards(self) -> List[_Shard]:
        """Open-or-create every shard: an existing journal with a
        matching header is recovered and resumed (state carried over),
        a missing one is created fresh."""
        cfg = self.config
        crash_by_shard: Dict[int, List[int]] = {}
        for shard_index, at in cfg.crash_at:
            crash_by_shard.setdefault(shard_index, []).append(at)
        shards = []
        for index in range(cfg.n_shards):
            shard = _Shard(index)
            shard.crash_schedule = sorted(crash_by_shard.get(index, ()))
            if cfg.journal_dir:
                os.makedirs(cfg.journal_dir, exist_ok=True)
                path = os.path.join(
                    cfg.journal_dir, f"shard{index:03d}.journal"
                )
                shard.journal_path = path
                if os.path.exists(path):
                    _, info = self._restore_shard(shard, startup=True)
                    shard.seq_base = info["last_intent_seq"] + 1
                else:
                    shard.journal = DecisionJournal.create(
                        path,
                        config=self._journal_config(index),
                        fsync_interval=cfg.fsync_interval,
                    )
            shards.append(shard)
        return shards

    def _shard_state(self, shard: _Shard) -> str:
        """Checkpoint payload (canonical JSON): the shard's resident devices.

        A device's fragment is re-encoded only when its residents are not
        the very (immutable) ``_Resident`` objects it was encoded from.
        Per-run shed/timeout/degraded stats are counted from the run's
        decision stream, so no counter rides the checkpoint.
        """
        fragments: Dict[str, Tuple[Tuple[_Resident, ...], str]] = {}
        for device, residents in sorted(shard.devices.items()):
            current = tuple(residents.values())
            if not current:
                continue
            cached = shard.fragments.get(device)
            if cached is None or len(cached[0]) != len(current) or not all(
                map(operator.is_, cached[0], current)
            ):
                fragment = canonical_json(device) + ":" + canonical_json(
                    [_resident_state(r) for r in current]
                )
                cached = (current, fragment)
            fragments[device] = cached
        shard.fragments = fragments
        return (
            '{"devices":{' + ",".join(f for _, f in fragments.values())
            + '},"schema":' + canonical_json(FLEET_CHECKPOINT_SCHEMA) + "}"
        )

    def _maybe_checkpoint(self, shard: _Shard, incoming: int) -> None:
        """Checkpoint before a batch would push the journal suffix past
        ``checkpoint_interval`` intents — bounding recovery replay to
        ``max(checkpoint_interval, batch_size)``."""
        cfg = self.config
        if shard.journal is None:
            return
        next_seq = shard.seq_base + shard.decided
        pending = next_seq - shard.ckpt_seq
        if pending > 0 and pending + incoming > cfg.checkpoint_interval:
            shard.journal.append_checkpoint(
                next_seq, self._shard_state(shard)
            )
            shard.ckpt_seq = next_seq

    def _entry_from_intent(self, request: Request, extra: Dict) -> _Queued:
        """Rebuild a queued entry from a replayed journal intent."""
        device, sep, task = request.task.partition("/")
        if not sep:
            raise JournalError(
                f"fleet intent task {request.task!r} is not device-qualified "
                f"(expected 'device/task')"
            )
        req = FleetRequest(
            seq=int(extra.get("seq", -1)),
            time_s=request.time_s,
            device=device,
            kind=request.kind,
            task=task,
            model=request.model,
            period_s=request.period_s,
        )
        entry = _Queued(
            req,
            degraded=bool(extra.get("degraded")),
            inline=bool(extra.get("inline")),
        )
        entry.attempt = int(extra.get("attempt", 0))
        return entry

    def _restore_state(self, shard: _Shard, state: Optional[Dict]) -> None:
        """Load a checkpoint payload into ``shard`` (``None``: empty shard).

        Only ``devices`` is read: the ``shed``/``timeouts``/``degraded``
        counters older checkpoints carry are ignored.
        """
        shard.devices = {}
        if state is None:
            return
        if state.get("schema") != FLEET_CHECKPOINT_SCHEMA:
            raise JournalError(
                f"{shard.journal_path}: unknown checkpoint schema "
                f"{state.get('schema')!r}"
            )
        try:
            shard.devices = {
                device: {
                    r["task"]: _resident_from_state(r) for r in residents
                }
                for device, residents in state["devices"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise JournalError(
                f"{shard.journal_path}: malformed fleet checkpoint: {exc!r}"
            ) from exc

    def _restore_shard(
        self, shard: _Shard, startup: bool
    ) -> Tuple[List[FleetDecision], Dict]:
        """Rebuild a shard from its journal and reopen it for appending.

        Checks the journal header, runs the shared
        :func:`repro.online.durable.replay_journal` with the shard's
        checkpoint decoder and decision core, and records the recovery.
        Returns the repaired decisions (the torn batch the in-run crash
        path publishes) and the recovery record.
        """
        t0 = time.perf_counter_ns()
        path = shard.journal_path
        assert path is not None
        # Called through this module's name so span tracing can wrap it.
        scan = scan_journal(path)
        if scan.header.get("config") != self._journal_config(shard.index):
            raise JournalError(
                f"{path}: journal was written under a different fleet "
                f"configuration (recorded {scan.header.get('config')!r})"
            )

        def decide(request: Request, extra: Dict) -> FleetDecision:
            entry = self._entry_from_intent(request, extra)
            return _decided(
                entry, shard.index, self._decide(entry, shard.devices)
            )

        replay = replay_journal(
            path, scan, lambda state: self._restore_state(shard, state),
            decide, self.config.fsync_interval, started_ns=t0,
        )
        shard.journal = replay.journal
        report = replay.report
        shard.ckpt_seq = report.checkpoint_seq
        info = {
            **report.to_dict(),
            "last_intent_seq": (
                report.checkpoint_seq + report.decisions_replayed - 1
            ),
            "startup": startup,
        }
        shard.recovered += 1
        _RESILIENCE["recovered"] += 1
        shard.recoveries.append(info)
        return [r.decision for r in replay.decisions if not r.verified], info

    def _crash_and_recover(self, shard: _Shard) -> List[FleetDecision]:
        """Kill and restart a shard at the worst point (intents durable,
        commits not), then recover it from its own journal.

        All in-memory shard state — resident devices and the run's
        decided count — is dropped and rebuilt from the journal; the
        arrival queue survives (it models durable ingress upstream of the
        shard).  Returns the repaired torn-batch decisions for the caller
        to publish.
        """
        _RESILIENCE["crashes"] += 1
        expect_decided = shard.decided
        assert shard.journal is not None
        shard.journal.close()
        missing, info = self._restore_shard(shard, startup=False)
        # Reconstruct this run's decided count from committed intents:
        # everything below the checkpoint plus committed suffix intents.
        shard.decided = (
            info["checkpoint_seq"] + info["commits_verified"] - shard.seq_base
        )
        if shard.decided != expect_decided:
            raise JournalError(
                f"{shard.journal_path}: recovery reconstructed "
                f"{shard.decided} decisions, expected {expect_decided}"
            )
        return missing

    # -- decision core -------------------------------------------------
    def _ranked(self, ordered: Sequence[_Resident]) -> List[PeriodicTask]:
        """Deadline-monotonic union tasks (same order as the controller).

        ``ordered`` must already be sorted by ``(deadline, task)``.
        """
        buffers = self.config.buffers
        return [
            PeriodicTask(
                name=r.task,
                segments=r.segments,
                period=r.period,
                deadline=r.deadline,
                priority=rank,
                buffers=buffers,
            )
            for rank, r in enumerate(ordered)
        ]

    def _decide(
        self, entry: _Queued, devices: Dict[str, Dict[str, _Resident]]
    ) -> Tuple[str, str, str]:
        """Decide one request, mutating its device's resident set.

        Returns ``(outcome, reason, mode)``.  A remove or a duplicate
        admit resolves against the resident set; an admit is planned,
        then either screened through the degrade ladder (degrade-tagged
        entries) or decided at full service by the exact analysis, with
        a screen pass standing in for it where the screen dominates the
        configured method.  A decision depends only on the device's own
        resident set, and each shard decides its batch one request at a
        time (a batch holds at most one request per device), which is
        what makes decisions batch- and shard-invariant — and what makes
        journal replay after a crash reproduce them exactly.

        The ladder is screen-only by design: under overload the
        expensive exact analysis is exactly what the shard cannot
        afford, and a screen pass implies the safe ``oblivious``
        analysis passes — every ladder admit is provably schedulable,
        though under ``holistic`` not necessarily admitted by it.

        Three per-run memos short-circuit the fleet-wide repetition:
        ``plan_memo`` keys plans on their exact inputs ``(cohort, model,
        period, free)``; ``verdict_memo`` keys full-path admission
        verdicts on the candidate union's ranked ``(plan key, mode,
        period, deadline)`` sequence, and ``screen_memo`` keys ladder
        screen verdicts likewise.  ``screen_memo`` is separate from
        ``verdict_memo`` because a screen verdict is *not* a
        screen-or-analysis verdict (reusing the latter could admit a
        ladder candidate whose screen failed).  All memoize pure
        deterministic functions of their keys, so they change no
        decision — only how often the planner, screen and analysis run.
        """
        cfg = self.config
        req = entry.req
        resident = devices.setdefault(req.device, {})
        if req.kind is RequestKind.REMOVE:
            if resident.pop(req.task, None) is None:
                return ("ignored", "not-resident", "")
            return ("removed", "", "")
        if req.task in resident:
            return ("ignored", "already-resident", "")
        cohort_index = int(req.device[1:]) % len(self.cohorts)
        platform = self._platforms[cohort_index]
        period = max(1, platform.mcu.seconds_to_cycles(req.period_s))
        free = platform.usable_sram_bytes - sum(
            r.sram_bytes for r in resident.values()
        )
        plan_key = (cohort_index, req.model, period, free)
        plan = self._plan_memo.get(plan_key)
        if plan is None:
            try:
                segments, cost = plan_segments(
                    platform, req.model, period, free,
                    quant=cfg.quant, buffers=cfg.buffers,
                )
                plan = ("ok", segments, cost)
            except SegmentationError as exc:
                plan = ("err", f"sram: {exc}")
            self._plan_memo[plan_key] = plan
        if plan[0] == "err":
            return ("rejected", plan[1], "")
        if entry.degraded:
            rungs = degrade_ladder(
                period, period, plan[1],
                cfg.stretch_factors, cfg.degrade_factor,
            )
            memo = self._screen_memo
        else:
            rungs = [("full", period, period, plan[1])]
            memo = self._verdict_memo
        for mode, rung_period, deadline, segments in rungs:
            cand = _Resident(
                task=req.task, model=req.model, segments=segments,
                period=rung_period, deadline=deadline, sram_bytes=plan[2],
                plan_key=plan_key, mode=mode,
            )
            ranked = sorted(
                [*resident.values(), cand],
                key=lambda r: (r.deadline, r.task),
            )
            # The verdict depends only on the priority-ordered sequence
            # of task bodies (names never enter the RTA math), and each
            # body is determined by its (plan key, mode) pair — a
            # degraded resident shares its plan key with the full-mode
            # plan but not its segments/period.  The memo holds the
            # admission reason, "" for a rejection.
            vkey = tuple(
                (r.plan_key, r.mode, r.period, r.deadline) for r in ranked
            )
            reason = memo.get(vkey)
            if reason is None:
                tasks = self._ranked(ranked)
                # ``mass_screen`` is called through this module's global
                # name so perfbench's traced run can wrap it as the
                # screen span (until the program carries its own spans).
                screened = entry.degraded or self._screen_decides
                if screened and mass_screen([tasks])[0]:
                    reason = "rta-oblivious"
                elif not entry.degraded and segcache.cached_analyze(
                    TaskSet.of(tasks), cfg.method
                ).schedulable:
                    reason = "analysis"
                else:
                    reason = ""
                memo[vkey] = reason
            if reason:
                resident[cand.task] = cand
                return ("admitted", reason, mode)
        if entry.degraded:
            return ("rejected", "rta: degraded ladder exhausted (screen)", "")
        return ("rejected", "rta: union unschedulable", "")

    # -- queue/drain machinery -----------------------------------------
    def _take_batch(
        self, shard: _Shard, start_s: float
    ) -> Tuple[List[_Queued], List[Tuple[_Queued, float, float]]]:
        """Pop the next batch: released by ``start_s``, <= 1 per device.

        Same-device followers are held back (order preserved) so every
        device's requests decide in arrival order regardless of batch
        boundaries — the load-bearing half of the identity guarantee.

        With ``timeout_ms`` armed, a head whose wait exceeds the
        virtual deadline is *not* popped: it gets a TIMEOUT record (the
        second return value) and its release moves ``backoff`` into the
        future, blocking the FIFO head — in-place retry preserves
        per-device order by construction, and after ``max_retries`` the
        entry decides unconditionally, so nothing is ever retried into
        oblivion.
        """
        cfg = self.config
        timeout_s = (
            cfg.timeout_ms * 1e-3 if cfg.timeout_ms is not None else None
        )
        batch: List[_Queued] = []
        seen = set()
        holdback: List[_Queued] = []
        timed_out: List[Tuple[_Queued, float, float]] = []
        while shard.queue and len(batch) < cfg.batch_size:
            entry = shard.queue[0]
            if entry.time_s > start_s:
                break
            if (
                timeout_s is not None
                and entry.attempt < cfg.max_retries
                and start_s - entry.time_s > timeout_s
            ):
                waited_ms = (start_s - entry.time_s) * 1e3
                delay_s = self._backoff.delay_s(entry.attempt)
                timed_out.append((entry, waited_ms, delay_s * 1e3))
                entry.attempt += 1
                entry.time_s = start_s + delay_s
                break
            shard.queue.popleft()
            if entry.req.device in seen:
                holdback.append(entry)
                continue
            seen.add(entry.req.device)
            batch.append(entry)
        for entry in reversed(holdback):
            shard.queue.appendleft(entry)
        return batch, timed_out

    def run(self, trace: FleetTrace) -> FleetReport:
        """Serve one fleet trace end to end."""
        cfg = self.config
        service_s = cfg.service_us * 1e-6
        self._plan_memo, self._verdict_memo, self._screen_memo = {}, {}, {}
        decisions: List[Optional[FleetDecision]] = [None] * len(trace.requests)
        timeout_records: List[FleetDecision] = []
        queueing_ms: List[float] = []
        wall_us: List[float] = []
        engine_ns = 0
        cache_before = obs.snapshot()
        shards = self._open_shards()

        def publish(
            shard: _Shard, entry: _Queued, decision: FleetDecision,
            completion_s: float, per_us: float, commit: bool,
        ) -> None:
            decisions[entry.req.seq] = decision
            queueing_ms.append((completion_s - entry.orig_time_s) * 1000.0)
            wall_us.append(per_us)
            if decision.outcome == "admitted" and decision.mode != "full":
                _RESILIENCE["degraded_admits"] += 1
            if not entry.inline:
                n = shard.inflight.get(entry.req.device, 0) - 1
                if n > 0:
                    shard.inflight[entry.req.device] = n
                else:
                    shard.inflight.pop(entry.req.device, None)
            if commit and shard.journal is not None:
                shard.journal.append_commit(
                    shard.seq_base + shard.decided, decision.to_dict()
                )
            shard.decided += 1

        def serve_entries(
            shard: _Shard, entries: List[_Queued], completion_s: float
        ) -> None:
            """Journal intents, decide (or crash+recover), publish."""
            nonlocal engine_ns
            if shard.journal is not None:
                self._maybe_checkpoint(shard, len(entries))
                for offset, entry in enumerate(entries):
                    extra: Dict = {"seq": entry.req.seq}
                    if entry.attempt:
                        extra["attempt"] = entry.attempt
                    if entry.degraded:
                        extra["degraded"] = True
                    if entry.inline:
                        extra["inline"] = True
                    shard.journal.append_intent(
                        shard.seq_base + shard.decided + offset,
                        entry.req.to_request(),
                        extra=extra,
                    )
            crash = (
                shard.crash_schedule
                and shard.journal is not None
                and shard.crash_schedule[0] < shard.decided + len(entries)
            )
            t0 = time.perf_counter_ns()
            if crash:
                shard.crash_schedule.pop(0)
                batch_decisions = self._crash_and_recover(shard)
                repaired = [d.seq for d in batch_decisions]
                if repaired != [e.req.seq for e in entries]:
                    raise JournalError(
                        f"{shard.journal_path}: recovery repaired seqs "
                        f"{repaired}, torn batch has "
                        f"{[e.req.seq for e in entries]}"
                    )
                commit = False  # recovery already re-committed them
            else:
                batch_decisions = [
                    _decided(e, shard.index, self._decide(e, shard.devices))
                    for e in entries
                ]
                commit = True
            elapsed_ns = time.perf_counter_ns() - t0
            engine_ns += elapsed_ns
            per_us = elapsed_ns / len(entries) / 1000.0
            for entry, decision in zip(entries, batch_decisions):
                publish(shard, entry, decision, completion_s, per_us, commit)

        def drain(shard: _Shard, now_s: Optional[float]) -> None:
            while shard.queue:
                start_s = max(shard.busy_until_s, shard.queue[0].time_s)
                if now_s is not None and start_s > now_s:
                    return
                batch, timed_out = self._take_batch(shard, start_s)
                for entry, waited_ms, delay_ms in timed_out:
                    _RESILIENCE["timeout_retries"] += 1
                    record = FleetDecision(
                        seq=entry.req.seq, device=entry.req.device,
                        task=entry.req.task, kind=entry.req.kind.value,
                        outcome="timeout",
                        reason=(
                            f"deadline: waited {waited_ms:.3f}ms > "
                            f"{cfg.timeout_ms:g}ms; retry in {delay_ms:g}ms"
                        ),
                        shard=shard.index, attempt=entry.attempt - 1,
                    )
                    timeout_records.append(record)
                    if shard.journal is not None:
                        shard.journal.append_event(
                            "timeout", record.to_dict()
                        )
                if not batch:
                    # The head timed out and backed off — its release
                    # moved into the future, so re-evaluate from there.
                    continue
                completion_s = start_s + len(batch) * service_s
                shard.busy_s += len(batch) * service_s
                shard.busy_until_s = completion_s
                serve_entries(shard, batch, completion_s)

        run_t0 = time.perf_counter()
        try:
            for req in trace.requests:
                shard = shards[shard_of(req.device, cfg.n_shards)]
                drain(shard, req.time_s)
                depth = len(shard.queue)
                if depth >= cfg.max_queue_depth:
                    # Terminal rung: try an inline degraded decision
                    # before shedding — safe only when the device has
                    # nothing queued on this shard (else the queue jump
                    # would break per-device order).
                    if (
                        cfg.degrade_watermark is not None
                        and req.kind is RequestKind.ADMIT
                        and req.device not in shard.inflight
                    ):
                        entry = _Queued(req, degraded=True, inline=True)
                        serve_entries(shard, [entry], req.time_s)
                        continue
                    decision = FleetDecision(
                        seq=req.seq, device=req.device, task=req.task,
                        kind=req.kind.value, outcome="shed",
                        reason=(
                            f"queue-full: depth >= {cfg.max_queue_depth}"
                        ),
                        shard=shard.index,
                    )
                    decisions[req.seq] = decision
                    if shard.journal is not None:
                        shard.journal.append_event("shed", decision.to_dict())
                    continue
                entry = _Queued(req)
                if (
                    cfg.degrade_watermark is not None
                    and depth >= cfg.degrade_watermark
                    and req.kind is RequestKind.ADMIT
                ):
                    entry.degraded = True
                shard.queue.append(entry)
                shard.inflight[req.device] = (
                    shard.inflight.get(req.device, 0) + 1
                )
                shard.peak_depth = max(shard.peak_depth, len(shard.queue))
            for shard in shards:
                drain(shard, None)
        finally:
            for shard in shards:
                if shard.journal is not None:
                    shard.journal.close()
        wall_s = time.perf_counter() - run_t0

        counts = {
            "admitted": 0, "rejected_sram": 0, "rejected_rta": 0,
            "removed": 0, "ignored": 0, "shed": 0,
        }
        degraded_admits = 0
        # Per-shard stats of this run, counted from its own decision
        # stream (a resumed journal's earlier runs do not count).
        per_shard = [
            {"shed": 0, "timeouts": 0, "degraded_admits": 0} for _ in shards
        ]
        finals = [d for d in decisions if d is not None]
        for d in finals:
            if d.outcome == "rejected":
                counts[
                    "rejected_sram" if d.reason.startswith("sram")
                    else "rejected_rta"
                ] += 1
            else:
                counts[d.outcome] += 1
            if d.outcome == "shed":
                per_shard[d.shard]["shed"] += 1
            elif d.outcome == "admitted" and d.mode != "full":
                degraded_admits += 1
                per_shard[d.shard]["degraded_admits"] += 1
        for record in timeout_records:
            per_shard[record.shard]["timeouts"] += 1

        shard_stats = [
            {
                "shard": s.index,
                "decided": s.decided,
                **per_shard[s.index],
                "recovered": s.recovered,
                "recoveries": list(s.recoveries),
                "peak_depth": s.peak_depth,
                "busy_s": round(s.busy_s, 6),
                "busy_until_s": round(s.busy_until_s, 6),
                "journal_records": (
                    s.journal.records_written if s.journal is not None else 0
                ),
            }
            for s in shards
        ]
        return FleetReport(
            n_devices=trace.n_devices,
            n_shards=cfg.n_shards,
            batch_size=cfg.batch_size,
            service_us=cfg.service_us,
            duration_s=trace.duration_s,
            arrival=trace.arrival,
            requests=len(trace.requests),
            admitted=counts["admitted"],
            rejected_sram=counts["rejected_sram"],
            rejected_rta=counts["rejected_rta"],
            removed=counts["removed"],
            ignored=counts["ignored"],
            shed=counts["shed"],
            decisions=finals,
            shard_stats=shard_stats,
            queueing_latency_ms=latency_stats(queueing_ms, digits=3),
            decision_latency_us=latency_stats(wall_us),
            wall_s=wall_s,
            engine_s=engine_ns / 1e9,
            cache=obs.delta_since(cache_before),
            wall_latencies_us=wall_us,
            degraded_admits=degraded_admits,
            timeout_retries=len(timeout_records),
            recovered=sum(s.recovered for s in shards),
            timeout_decisions=timeout_records,
        )
