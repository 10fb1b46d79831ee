"""Chaos-injection harness for the crash-tolerant serving layer.

Drives :mod:`repro.online.durable` through everything the real world
throws at a single-controller admission service — and asserts that none
of it can change a single decision:

* **Controller crashes** at every decision index (the
  :class:`~repro.online.durable.InjectedCrash` hook fires after the
  intent record is journaled, before the decision commits — the worst
  possible point).
* **Journal damage**: torn tails (truncation mid-record) and flipped
  bytes (CRC-detected corruption), both forcing recovery back to an
  earlier durable prefix.
* **Adversarial delivery**: duplicated, reordered, and
  dropped-then-retransmitted envelopes (at-least-once transport), plus
  transport clock skew — all absorbed by the ingress gate.

Every cell of the matrix recovers from the journal, re-offers the whole
perturbed stream, and compares the final decision log and admitted task
set **bit-for-bit** against the uninterrupted baseline, while also
asserting the recovery replayed only the journal suffix past the last
checkpoint.  Determinism note: all randomness is seeded per cell, so a
failing cell reproduces exactly from ``(seed, mode, crash_at)``.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids eval.fleet at load
    from repro.eval.fleet import FleetConfig, FleetReport, FleetTrace

from repro.online.durable import (
    DurableServeResult,
    Envelope,
    InjectedCrash,
    envelope_stream,
    serve_durable,
)
from repro.online.events import RequestTrace
from repro.online.runtime import OnlineRuntime

#: Delivery/journal perturbation modes the matrix sweeps.  ``none`` is
#: the control column; the journal-damage modes deliver canonically but
#: damage the journal tail after the crash.
CHAOS_MODES: Tuple[str, ...] = (
    "none",
    "duplicate",
    "reorder",
    "drop",
    "skew",
    "truncate-journal",
    "corrupt-journal",
)

#: Modes that damage the journal file itself (recovery may fall back
#: past the newest checkpoint, so the suffix-only replay bound does not
#: apply to them).
JOURNAL_DAMAGE_MODES: Tuple[str, ...] = ("truncate-journal", "corrupt-journal")


# ----------------------------------------------------------------------
# Delivery-stream perturbations
# ----------------------------------------------------------------------


def perturb_envelopes(
    envelopes: Sequence[Envelope],
    mode: str,
    seed: int,
    holdback: int = 16,
) -> List[Envelope]:
    """One adversarially-delivered version of a canonical stream.

    All displacement is bounded by ``holdback // 2``, so the ingress
    gate's bounded-holdback buffer (sized ``holdback``) provably absorbs
    the perturbation without a :class:`~repro.online.durable.StreamError`.
    """
    rng = random.Random(seed)
    shift = max(1, holdback // 2)
    if mode in ("none",) + JOURNAL_DAMAGE_MODES:
        return list(envelopes)
    if mode == "duplicate":
        # ~1/3 of deliveries repeat a few slots later (at-least-once).
        out: List[Tuple[float, int, Envelope]] = []
        for pos, env in enumerate(envelopes):
            out.append((float(pos), 0, env))
            if rng.random() < 0.34:
                out.append((pos + rng.uniform(0.5, shift), 1, env))
        out.sort(key=lambda item: (item[0], item[1]))
        return [env for _, _, env in out]
    if mode == "reorder":
        # Bounded random displacement; stable sort keeps ties canonical.
        keyed = [
            (
                pos + (rng.uniform(0.0, shift) if rng.random() < 0.5 else 0.0),
                pos,
                env,
            )
            for pos, env in enumerate(envelopes)
        ]
        keyed.sort(key=lambda item: (item[0], item[1]))
        return [env for _, _, env in keyed]
    if mode == "drop":
        # First delivery lost; the retransmit lands a few slots later,
        # and a second (duplicate) retransmit follows — the full
        # at-least-once failure mode.
        out = []
        for pos, env in enumerate(envelopes):
            if rng.random() < 0.25:
                delay = rng.uniform(1.0, shift)
                out.append((pos + delay, 0, env))
                out.append((pos + delay + rng.uniform(0.5, shift / 2), 1, env))
            else:
                out.append((float(pos), 0, env))
        out.sort(key=lambda item: (item[0], item[1]))
        return [env for _, _, env in out]
    if mode == "skew":
        # Transport clocks drift; delivery order and request bodies are
        # untouched, so the gate must ignore arrival timestamps.
        return [
            Envelope(
                seq=env.seq,
                request_id=env.request_id,
                request=env.request,
                arrival_s=max(0.0, env.arrival_s + rng.uniform(-1.5, 1.5)),
            )
            for env in envelopes
        ]
    raise ValueError(f"unknown chaos mode {mode!r} (known: {CHAOS_MODES})")


def damage_journal(path: str, mode: str, seed: int) -> int:
    """Damage a journal tail; returns the number of bytes affected.

    Truncation chops mid-record (a torn final write); corruption XORs
    one byte in the tail region (never the header line), which the CRC
    check must catch.  Both leave a shorter *valid* prefix for recovery.
    """
    rng = random.Random(seed)
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        first_line_end = handle.readline().__len__()
    tail_room = size - first_line_end
    if tail_room <= 1:
        return 0
    if mode == "truncate-journal":
        cut = min(tail_room - 1, rng.randint(1, 120))
        os.truncate(path, size - cut)
        return cut
    if mode == "corrupt-journal":
        offset = size - rng.randint(2, min(120, tail_room))
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        return 1
    raise ValueError(f"{mode!r} is not a journal-damage mode")


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosCell:
    """One ``(mode, crash index)`` experiment's verdict."""

    mode: str
    crash_at: int
    identical: bool
    replay_bounded: bool
    decisions_replayed: int
    checkpoint_seq: int
    truncated_lines: int
    commits_repaired: int
    duplicates_absorbed: int
    max_buffered: int

    @property
    def ok(self) -> bool:
        return self.identical and self.replay_bounded

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "crash_at": self.crash_at,
            "identical": self.identical,
            "replay_bounded": self.replay_bounded,
            "decisions_replayed": self.decisions_replayed,
            "checkpoint_seq": self.checkpoint_seq,
            "truncated_lines": self.truncated_lines,
            "commits_repaired": self.commits_repaired,
            "duplicates_absorbed": self.duplicates_absorbed,
            "max_buffered": self.max_buffered,
        }


@dataclass
class ChaosReport:
    """Outcome of one full chaos matrix run."""

    platform_name: str
    seed: int
    checkpoint_interval: int
    n_decisions: int
    cells: List[ChaosCell] = field(default_factory=list)
    invariants: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every cell bit-identical with a suffix-bounded replay."""
        return bool(self.cells) and all(cell.ok for cell in self.cells)

    @property
    def identical_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.identical)

    @property
    def max_replayed(self) -> int:
        return max((cell.decisions_replayed for cell in self.cells), default=0)

    def to_dict(self) -> Dict:
        return {
            "schema": "rtmdm-chaos/1",
            "platform": self.platform_name,
            "seed": self.seed,
            "checkpoint_interval": self.checkpoint_interval,
            "n_decisions": self.n_decisions,
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
            "identical_cells": self.identical_cells,
            "max_replayed": self.max_replayed,
            "invariants": dict(self.invariants),
        }


def baseline_logs(
    runtime: OnlineRuntime, trace: RequestTrace
) -> Tuple[List[Dict], List[Dict]]:
    """The uninterrupted run's decision log and final instance set."""
    report = runtime.serve(trace, simulate=False)
    return (
        [d.to_dict() for d in report.decisions],
        [inst.to_dict() for inst in report.instances],
    )


def crash_and_recover(
    runtime: OnlineRuntime,
    trace: RequestTrace,
    mode: str,
    crash_at: int,
    journal_path: str,
    *,
    checkpoint_interval: int,
    holdback: int,
    seed: int,
    monitor: bool,
) -> DurableServeResult:
    """Serve ``trace`` delivered under ``mode``, crash, recover.

    The journaled run crashes at decision ``crash_at``; the journal-damage
    modes then damage its tail; the recovery run restores from the
    journal and re-offers the whole perturbed stream.  Returns the
    recovered run.
    """
    cell_seed = seed * 1_000_003 + crash_at * 131 + CHAOS_MODES.index(mode)
    envelopes = perturb_envelopes(
        envelope_stream(trace), mode, cell_seed, holdback=holdback
    )
    options = dict(
        checkpoint_interval=checkpoint_interval,
        holdback=holdback,
        monitor=monitor,
    )
    try:
        serve_durable(
            runtime, envelopes, trace.duration_s, journal_path,
            crash_at=crash_at, **options,
        )
    except InjectedCrash:
        pass
    if mode in JOURNAL_DAMAGE_MODES:
        damage_journal(journal_path, mode, cell_seed)
    return serve_durable(
        runtime, envelopes, trace.duration_s, journal_path,
        restore=True, **options,
    )


def run_cell(
    runtime: OnlineRuntime,
    trace: RequestTrace,
    baseline: Tuple[List[Dict], List[Dict]],
    mode: str,
    crash_at: int,
    journal_path: str,
    checkpoint_interval: int = 8,
    holdback: int = 16,
    seed: int = 1,
    monitor: bool = True,
) -> ChaosCell:
    """Crash at ``crash_at`` under ``mode``, recover, and compare."""
    recovered = crash_and_recover(
        runtime, trace, mode, crash_at, journal_path,
        checkpoint_interval=checkpoint_interval,
        holdback=holdback,
        seed=seed,
        monitor=monitor,
    )
    decisions = [d.to_dict() for d in recovered.report.decisions]
    instances = [inst.to_dict() for inst in recovered.report.instances]
    identical = decisions == baseline[0] and instances == baseline[1]
    recovery = recovered.recovery
    bounded = (
        mode in JOURNAL_DAMAGE_MODES
        or recovery.decisions_replayed <= checkpoint_interval
    )
    return ChaosCell(
        mode=mode,
        crash_at=crash_at,
        identical=identical,
        replay_bounded=bounded,
        decisions_replayed=recovery.decisions_replayed,
        checkpoint_seq=recovery.checkpoint_seq,
        truncated_lines=recovery.truncated_lines,
        commits_repaired=recovery.commits_repaired,
        duplicates_absorbed=recovered.gate.duplicates + recovered.gate.stale,
        max_buffered=recovered.gate.max_buffered,
    )


def run_matrix(
    runtime: OnlineRuntime,
    trace: RequestTrace,
    modes: Sequence[str] = CHAOS_MODES,
    crash_stride: int = 1,
    checkpoint_interval: int = 8,
    holdback: int = 16,
    seed: int = 1,
    monitor: bool = True,
    journal_dir: Optional[str] = None,
) -> ChaosReport:
    """Run the full crash-index × perturbation-mode matrix.

    ``crash_stride`` thins the crash-index axis for smoke runs (CI uses
    a stride; the acceptance matrix runs stride 1).  All journals live
    under ``journal_dir`` (a fresh temp dir by default), one file per
    cell, left on disk for post-mortems when a cell fails.
    """
    for mode in modes:
        if mode not in CHAOS_MODES:
            raise ValueError(f"unknown chaos mode {mode!r} (known: {CHAOS_MODES})")
    if crash_stride < 1:
        raise ValueError(f"crash_stride must be >= 1, got {crash_stride}")
    base = baseline_logs(runtime, trace)
    n = len(base[0])
    report = ChaosReport(
        platform_name=runtime.platform.name,
        seed=seed,
        checkpoint_interval=checkpoint_interval,
        n_decisions=n,
    )
    if journal_dir is None:
        journal_dir = tempfile.mkdtemp(prefix="rtmdm-chaos-")
    invariants: Dict[str, int] = {}
    for mode in modes:
        for crash_at in range(0, max(n, 1), crash_stride):
            path = os.path.join(journal_dir, f"{mode}-{crash_at:04d}.jsonl")
            cell = run_cell(
                runtime,
                trace,
                base,
                mode,
                crash_at,
                path,
                checkpoint_interval=checkpoint_interval,
                holdback=holdback,
                seed=seed,
                monitor=monitor,
            )
            report.cells.append(cell)
    # Aggregate invariant-check counts from one final monitored pass so
    # the report can prove no check was skipped during the matrix.
    if monitor:
        from repro.online.durable import InvariantMonitor

        controller = runtime.controller()
        mon = InvariantMonitor(controller)
        for request in trace:
            controller.handle(request)
            mon.check(runtime.platform.mcu.seconds_to_cycles(request.time_s))
        invariants = dict(mon.counts)
    report.invariants = invariants
    return report


# ----------------------------------------------------------------------
# Fleet chaos: crash-point x shard-count x perturbation
# ----------------------------------------------------------------------

#: Delivery perturbations the fleet matrix sweeps.  The fleet ingress is
#: a renumbered arrival stream, so every mode produces a *valid* trace
#: (contiguous ``seq``, non-decreasing ``time_s``) and the baseline is
#: the uninterrupted run of the **same** perturbed trace — the matrix
#: isolates crash/recovery, not transport semantics.
FLEET_CHAOS_MODES: Tuple[str, ...] = ("none", "duplicate", "reorder", "skew")


class FleetInvariantError(AssertionError):
    """A fleet serving invariant was violated (bug, not chaos)."""


def perturb_fleet_trace(
    trace: "FleetTrace", mode: str, seed: int, holdback: int = 8
) -> "FleetTrace":
    """One adversarially-delivered version of a fleet trace.

    Displacement is bounded by ``holdback // 2`` delivery slots.  The
    result is renumbered (``seq`` = delivery order) with monotone
    ``time_s``, so it is a well-formed trace in its own right.
    """
    from repro.eval.fleet import FleetTrace

    rng = random.Random(seed)
    shift = max(1, holdback // 2)
    keyed: List[Tuple[float, int, object]] = []
    if mode == "none":
        ordered = list(trace.requests)
        times = [req.time_s for req in ordered]
    elif mode == "duplicate":
        # ~1/5 of requests are re-delivered a few slots later; the
        # duplicate is a genuine second request (an at-least-once admit
        # resolves to ``already-resident`` downstream).
        for pos, req in enumerate(trace.requests):
            keyed.append((float(pos), 0, req))
            if rng.random() < 0.2:
                keyed.append((pos + rng.uniform(0.5, shift), 1, req))
        keyed.sort(key=lambda item: (item[0], item[1]))
        ordered = [req for _, _, req in keyed]
        times = sorted(req.time_s for req in ordered)
    elif mode == "reorder":
        for pos, req in enumerate(trace.requests):
            slot = pos + (rng.uniform(0.0, shift) if rng.random() < 0.5 else 0.0)
            keyed.append((slot, pos, req))
        keyed.sort(key=lambda item: (item[0], item[1]))
        ordered = [req for _, _, req in keyed]
        times = sorted(req.time_s for req in ordered)
    elif mode == "skew":
        # Arrival clocks drift a little; order follows the skewed clock.
        for pos, req in enumerate(trace.requests):
            keyed.append((max(0.0, req.time_s + rng.uniform(-0.02, 0.02)), pos, req))
        keyed.sort(key=lambda item: (item[0], item[1]))
        ordered = [req for _, _, req in keyed]
        times = [slot for slot, _, _ in keyed]
    else:
        raise ValueError(
            f"unknown fleet chaos mode {mode!r} (known: {FLEET_CHAOS_MODES})"
        )
    requests = tuple(
        replace(req, seq=pos, time_s=times[pos])
        for pos, req in enumerate(ordered)
    )
    duration = max(trace.duration_s, times[-1] if times else 0.0)
    return FleetTrace(
        requests=requests,
        duration_s=duration,
        n_devices=trace.n_devices,
        cohorts=trace.cohorts,
        arrival=trace.arrival,
    )


def fleet_invariants(report, max_retries: int = 3) -> Dict[str, int]:
    """Check the fleet serving invariants on one report.

    Returns the number of checks performed per invariant; raises
    :class:`FleetInvariantError` on the first violation.  The invariants
    hold under *any* chaos — a violation is a service bug:

    * ``decision-dense`` — exactly one final decision per request seq.
    * ``counts-consistent`` — outcome counters sum to the request count.
    * ``retry-bounded`` — no request timed out more than ``max_retries``
      times (exactly-once: the retried request still gets one final).
    * ``degraded-screened`` — every degraded admit carries the
      screen-admission reason (it passed the RTA screen, never skipped).
    * ``shard-stats-consistent`` — the per-shard ``shed``, ``timeouts``
      and ``degraded_admits`` sum to the report's ``shed``,
      ``timeout_retries`` and ``degraded_admits`` (counted once per
      shard).
    """
    counts: Dict[str, int] = {}
    seqs = [d.seq for d in report.decisions]
    if len(seqs) != len(set(seqs)) or sorted(seqs) != list(range(report.requests)):
        raise FleetInvariantError(
            f"decision-dense: {len(set(seqs))} unique finals for "
            f"{report.requests} requests"
        )
    counts["decision-dense"] = len(seqs)
    total = (
        report.admitted + report.rejected_sram + report.rejected_rta
        + report.removed + report.ignored + report.shed
    )
    if total != report.requests:
        raise FleetInvariantError(
            f"counts-consistent: outcomes sum to {total}, "
            f"expected {report.requests}"
        )
    counts["counts-consistent"] = 1
    retries: Dict[int, int] = {}
    for record in report.timeout_decisions:
        retries[record.seq] = retries.get(record.seq, 0) + 1
    finals = set(seqs)
    for seq, n in retries.items():
        if n > max_retries:
            raise FleetInvariantError(
                f"retry-bounded: seq {seq} timed out {n} > {max_retries} times"
            )
        if seq not in finals:
            raise FleetInvariantError(
                f"retry-bounded: retried seq {seq} never decided"
            )
    counts["retry-bounded"] = len(retries)
    degraded = 0
    for d in report.decisions:
        if d.outcome == "admitted" and d.mode not in ("", "full"):
            degraded += 1
            if d.reason != "rta-oblivious":
                raise FleetInvariantError(
                    f"degraded-screened: seq {d.seq} admitted in mode "
                    f"{d.mode!r} with reason {d.reason!r}"
                )
    counts["degraded-screened"] = degraded
    for stat, total in (
        ("shed", report.shed),
        ("timeouts", report.timeout_retries),
        ("degraded_admits", report.degraded_admits),
    ):
        summed = sum(s[stat] for s in report.shard_stats)
        if summed != total:
            raise FleetInvariantError(
                f"shard-stats-consistent: per-shard {stat} sum to {summed}, "
                f"report has {total}"
            )
    counts["shard-stats-consistent"] = len(report.shard_stats)
    return counts


@dataclass(frozen=True)
class FleetChaosCell:
    """One ``(mode, shard count, crash fraction)`` experiment's verdict."""

    mode: str
    n_shards: int
    crash_frac: float
    crashes: int
    identical: bool
    replay_bounded: bool
    invariants_ok: bool
    max_replayed: int
    recovered: int
    shed: int

    @property
    def ok(self) -> bool:
        return self.identical and self.replay_bounded and self.invariants_ok

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "n_shards": self.n_shards,
            "crash_frac": self.crash_frac,
            "crashes": self.crashes,
            "identical": self.identical,
            "replay_bounded": self.replay_bounded,
            "invariants_ok": self.invariants_ok,
            "max_replayed": self.max_replayed,
            "recovered": self.recovered,
            "shed": self.shed,
        }


@dataclass
class FleetChaosReport:
    """Outcome of one full fleet chaos matrix run."""

    n_devices: int
    requests: int
    seed: int
    batch_size: int
    checkpoint_interval: int
    cells: List[FleetChaosCell] = field(default_factory=list)
    invariants: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.cells) and all(cell.ok for cell in self.cells)

    @property
    def identical_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.identical)

    @property
    def max_replayed(self) -> int:
        return max((cell.max_replayed for cell in self.cells), default=0)

    def to_dict(self) -> Dict:
        return {
            "schema": "rtmdm-fleet-chaos/1",
            "n_devices": self.n_devices,
            "requests": self.requests,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "checkpoint_interval": self.checkpoint_interval,
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
            "identical_cells": self.identical_cells,
            "max_replayed": self.max_replayed,
            "invariants": dict(self.invariants),
        }


def crash_every_shard(
    trace: "FleetTrace",
    config: "FleetConfig",
    baseline: "FleetReport",
    frac: float,
    journal_dir: str,
) -> Tuple["FleetReport", int]:
    """Re-run ``trace`` journaled, every shard crashing once.

    Each shard that decided anything in the uninterrupted ``baseline``
    run of ``config`` crashes at ``int(frac * decided)`` of its own
    decision count and recovers from its journal in ``journal_dir``.
    Returns the recovered run's report and the number of shards crashed.
    """
    from repro.eval.fleet import FleetService

    crash_at = tuple(
        (stats["shard"], int(frac * stats["decided"]))
        for stats in baseline.shard_stats
        if stats["decided"] > 0
    )
    crashed = replace(config, journal_dir=journal_dir, crash_at=crash_at)
    report = FleetService(cohorts=trace.cohorts, config=crashed).run(trace)
    return report, len(crash_at)


def run_fleet_matrix(
    trace: "FleetTrace",
    modes: Sequence[str] = FLEET_CHAOS_MODES,
    shard_counts: Sequence[int] = (1, 2, 4),
    crash_fracs: Sequence[float] = (0.25, 0.75),
    batch_size: int = 8,
    checkpoint_interval: int = 16,
    holdback: int = 8,
    seed: int = 1,
    journal_dir: Optional[str] = None,
) -> FleetChaosReport:
    """Run the fleet crash/recovery matrix over one trace.

    Each cell perturbs the trace, crashes **every** shard at
    ``int(frac * decided)`` of its own baseline decision count (the torn
    batch's intents are durable, its commits are not), recovers, and
    compares the full decision stream bit-for-bit against the
    uninterrupted run of the same perturbed trace.  Replay must stay
    within ``max(checkpoint_interval, batch_size)`` decisions.
    """
    from repro.eval.fleet import FleetConfig, FleetService, decision_identity

    for mode in modes:
        if mode not in FLEET_CHAOS_MODES:
            raise ValueError(
                f"unknown fleet chaos mode {mode!r} (known: {FLEET_CHAOS_MODES})"
            )
    report = FleetChaosReport(
        n_devices=trace.n_devices,
        requests=len(trace.requests),
        seed=seed,
        batch_size=batch_size,
        checkpoint_interval=checkpoint_interval,
    )
    if journal_dir is None:
        journal_dir = tempfile.mkdtemp(prefix="rtmdm-fleet-chaos-")
    replay_bound = max(checkpoint_interval, batch_size)
    invariants: Dict[str, int] = {}
    for mode_index, mode in enumerate(modes):
        ptrace = perturb_fleet_trace(
            trace, mode, seed * 9_176 + mode_index, holdback=holdback
        )
        for n_shards in shard_counts:
            config = FleetConfig(
                n_shards=n_shards,
                batch_size=batch_size,
                checkpoint_interval=checkpoint_interval,
            )
            base = FleetService(cohorts=trace.cohorts, config=config).run(ptrace)
            base_identity = decision_identity(base.all_decisions())
            for frac in crash_fracs:
                cell_dir = os.path.join(
                    journal_dir, f"{mode}-s{n_shards}-f{int(frac * 100):03d}"
                )
                rep, crashes = crash_every_shard(
                    ptrace, config, base, frac, cell_dir
                )
                identical = (
                    decision_identity(rep.all_decisions()) == base_identity
                )
                replays = [
                    recovery["decisions_replayed"]
                    for stats in rep.shard_stats
                    for recovery in stats["recoveries"]
                ]
                invariants_ok = True
                try:
                    cell_counts = fleet_invariants(
                        rep, max_retries=config.max_retries
                    )
                except FleetInvariantError:
                    invariants_ok = False
                    cell_counts = {}
                for name, count in cell_counts.items():
                    invariants[name] = invariants.get(name, 0) + count
                report.cells.append(
                    FleetChaosCell(
                        mode=mode,
                        n_shards=n_shards,
                        crash_frac=frac,
                        crashes=crashes,
                        identical=identical,
                        replay_bounded=all(r <= replay_bound for r in replays),
                        invariants_ok=invariants_ok,
                        max_replayed=max(replays, default=0),
                        recovered=rep.recovered,
                        shed=rep.shed,
                    )
                )
    report.invariants = invariants
    return report


def quick_fleet_matrix(
    n_devices: int = 24,
    duration_s: float = 1.5,
    rate_hz: float = 6.0,
    seed: int = 1,
    **kwargs,
) -> FleetChaosReport:
    """A seeded end-to-end fleet matrix over a generated trace."""
    from repro.eval.fleet import fleet_trace

    trace = fleet_trace(
        n_devices=n_devices,
        duration_s=duration_s,
        rate_per_device_hz=rate_hz,
        seed=seed,
    )
    return run_fleet_matrix(trace, seed=seed, **kwargs)
