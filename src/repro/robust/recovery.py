"""Recovery protocols: the escalation ladder that survives flash failures.

When the transfer fault handler (:mod:`repro.robust.escalation`) gives up
on a segment, something must still make the task's future well-defined.
This module implements the escalation ladder

    RETRY -> REMAP -> XIP_FALLBACK -> DEGRADE -> QUARANTINE

* **RETRY** is the handler's own bounded retry loop — implicit, always
  first, and already spent by the time a fault reaches the ladder.
* **REMAP** re-fetches the segment from a mirror copy placed in a
  healthy flash region: the re-read pays a remap overhead (flash command
  setup for the new address, costed via :mod:`repro.hw.memory`) plus an
  optional slowdown (the mirror may sit behind a slower bus segment).
* **XIP_FALLBACK** stops staging the segment altogether and executes it
  in place out of external flash: no DMA transfer, but the segment's
  compute inflates by the XIP timing penalty.
* **DEGRADE** switches the task to a smaller fallback variant
  (:func:`repro.robust.overload.degraded_variant`) assumed to fit in
  healthy/internal memory — the current job is abandoned, future
  releases run the variant.
* **QUARANTINE** suspends the task: the current job is abandoned and all
  future releases are suppressed.  It is the implicit terminal rung and
  the default reaction when no :class:`RecoveryManager` is configured —
  a fault never silently succeeds.

``RecoveryConfig.ladder`` selects which *intermediate* rungs are armed;
it must be a subsequence of ``(REMAP, XIP_FALLBACK, DEGRADE)``.  The
manager is pure bookkeeping (no randomness): given the same fault
sequence it makes the same decisions, so recovery runs reproduce
bit-for-bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.robust.escalation import (
    EscalationConfig,
    FaultKind,
    bad_region_span,
    fault_overhead_cycles,
)
from repro.robust.overload import degraded_variant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.platform import Platform
    from repro.sched.simulator import SimResult
    from repro.sched.task import PeriodicTask, Segment, TaskSet


class RecoveryProtocol(enum.Enum):
    """Rungs of the escalation ladder, in escalation order."""

    RETRY = "retry"
    REMAP = "remap"
    XIP_FALLBACK = "xip-fallback"
    DEGRADE = "degrade"
    QUARANTINE = "quarantine"


_LADDER_ORDER = (
    RecoveryProtocol.REMAP,
    RecoveryProtocol.XIP_FALLBACK,
    RecoveryProtocol.DEGRADE,
)

#: The ladders ``rtmdm recover`` and EXP-R2 compare, by name: no
#: recovery (terminal faults quarantine the task), then each longer
#: prefix of the full ladder.
LADDERS: Dict[str, Optional[Tuple[RecoveryProtocol, ...]]] = {
    "none": None,
    "remap": _LADDER_ORDER[:1],
    "xip": _LADDER_ORDER[:2],
    "full": _LADDER_ORDER,
}


@dataclass(frozen=True)
class RecoveryConfig:
    """Recovery-ladder parameters.

    Attributes:
        ladder: Armed intermediate rungs, a subsequence of
            ``(REMAP, XIP_FALLBACK, DEGRADE)``.  ``RETRY`` (implicit
            first) and ``QUARANTINE`` (implicit terminal) may not be
            listed.  An empty ladder quarantines on the first fault.
        remap_overhead_cycles: Flash command/address setup cost of
            redirecting a fetch to the mirror copy.
        remap_slowdown: Bandwidth factor (``>= 1``) of mirror reads.
        xip_factor: Compute inflation per XIP-executed segment: the
            segment's staged ``load_cycles`` re-enter as
            ``ceil(load_cycles * xip_factor)`` extra compute cycles
            (the CPU fetching weights word-by-word is slower than DMA).
        degrade_factor: Scale of the fallback variant
            (:func:`repro.robust.overload.degraded_variant`).
    """

    ladder: Tuple[RecoveryProtocol, ...] = _LADDER_ORDER
    remap_overhead_cycles: int = 0
    remap_slowdown: float = 1.0
    xip_factor: float = 2.5
    degrade_factor: float = 0.5

    def __post_init__(self) -> None:
        positions = []
        for rung in self.ladder:
            if rung not in _LADDER_ORDER:
                raise ValueError(
                    f"ladder may only contain {[r.value for r in _LADDER_ORDER]}, "
                    f"got {rung.value!r} (RETRY/QUARANTINE are implicit)"
                )
            positions.append(_LADDER_ORDER.index(rung))
        if positions != sorted(set(positions)):
            raise ValueError(
                "ladder must be a strictly increasing subsequence of "
                f"{[r.value for r in _LADDER_ORDER]}, got "
                f"{[r.value for r in self.ladder]}"
            )
        if self.remap_overhead_cycles < 0:
            raise ValueError(
                f"remap_overhead_cycles must be >= 0, got {self.remap_overhead_cycles}"
            )
        if self.remap_slowdown < 1.0:
            raise ValueError(
                f"remap_slowdown must be >= 1, got {self.remap_slowdown}"
            )
        if self.xip_factor < 1.0:
            raise ValueError(f"xip_factor must be >= 1, got {self.xip_factor}")
        if not 0.0 < self.degrade_factor <= 1.0:
            raise ValueError(
                f"degrade_factor must be in (0, 1], got {self.degrade_factor}"
            )

    @classmethod
    def for_platform(cls, platform: "Platform", **overrides) -> "RecoveryConfig":
        """A config costed from ``platform``'s external-memory model.

        * ``remap_overhead_cycles`` is one flash command/address setup
          (:meth:`repro.hw.memory.ExternalMemory.setup_cycles`) — the
          cost of pointing the next read at the mirror address.
        * ``xip_factor`` is the inverse XIP efficiency — executing in
          place fetches at ``xip_efficiency`` of DMA bandwidth, so each
          staged cycle re-enters as ``1 / xip_efficiency`` compute
          cycles.
        """
        params = {
            "remap_overhead_cycles": platform.memory.setup_cycles(platform.mcu),
            "xip_factor": 1.0 / platform.memory.xip_efficiency,
        }
        params.update(overrides)
        return cls(**params)

    def allows(self, protocol: RecoveryProtocol) -> bool:
        """Whether ``protocol`` is an armed rung of the ladder."""
        return protocol in self.ladder

    def remap_cycles(self, nominal: int) -> int:
        """DMA cycles of a mirror re-fetch of a ``nominal``-cycle load."""
        if nominal == 0:
            return 0
        return self.remap_overhead_cycles + math.ceil(nominal * self.remap_slowdown)

    def xip_penalty(self, segment: "Segment") -> int:
        """Extra compute cycles when ``segment`` executes in place."""
        return math.ceil(segment.load_cycles * self.xip_factor)


class RecoveryManager:
    """Per-task/per-segment recovery state driven by fault events.

    The simulator calls :meth:`on_fault` for every terminal
    :class:`~repro.robust.escalation.FaultEvent` and acts on the returned
    rung; :meth:`source` / :meth:`is_xip` / :meth:`segments_for` expose
    the sticky per-segment recovery modes to the scheduling passes.
    """

    def __init__(self, config: RecoveryConfig) -> None:
        self.config = config
        self._seg_mode: Dict[Tuple[str, int], str] = {}
        self._degraded: Set[str] = set()
        self._quarantined: Set[str] = set()
        self._fallbacks: Dict[str, Tuple["Segment", ...]] = {}

    # ------------------------------------------------------------------
    # State the simulator consults
    # ------------------------------------------------------------------
    def source(self, task: str, segment: int) -> str:
        """Where ``(task, segment)``'s next fetch reads from."""
        return "mirror" if self._seg_mode.get((task, segment)) == "mirror" else "primary"

    def is_xip(self, task: str, segment: int) -> bool:
        """Whether ``(task, segment)`` executes in place (no staging)."""
        return self._seg_mode.get((task, segment)) == "xip"

    def region_immune(self, task: str) -> bool:
        """Whether ``task``'s weights left external flash (degraded variant)."""
        return task in self._degraded

    def is_degraded(self, task: str) -> bool:
        """Whether ``task`` currently releases its fallback variant."""
        return task in self._degraded

    def is_quarantined(self, task: str) -> bool:
        """Whether ``task`` is suspended."""
        return task in self._quarantined

    def fallback_for(self, task: "PeriodicTask") -> Tuple["Segment", ...]:
        """The (cached) degraded fallback segment list for ``task``."""
        cached = self._fallbacks.get(task.name)
        if cached is None:
            cached = degraded_variant(task, self.config.degrade_factor)
            self._fallbacks[task.name] = cached
        return cached

    def segments_for(
        self, task: "PeriodicTask", segments: Tuple["Segment", ...]
    ) -> Tuple["Segment", ...]:
        """The segment list a job of ``task`` released now executes."""
        if task.name in self._degraded:
            return self.fallback_for(task)
        return segments

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------
    def on_fault(self, task: str, segment: int, kind: FaultKind) -> str:
        """Pick the next rung for a terminal fault on ``(task, segment)``.

        Returns one of ``"remap" | "xip-fallback" | "degrade" |
        "quarantine"`` and updates the sticky recovery state so the
        decision applies to every future fetch of the segment.
        """
        if task in self._quarantined:
            return "quarantine"
        key = (task, segment)
        mode = self._seg_mode.get(key)
        if mode is None and self.config.allows(RecoveryProtocol.REMAP):
            self._seg_mode[key] = "mirror"
            return "remap"
        if mode != "xip" and self.config.allows(RecoveryProtocol.XIP_FALLBACK):
            self._seg_mode[key] = "xip"
            return "xip-fallback"
        if self.config.allows(RecoveryProtocol.DEGRADE) and task not in self._degraded:
            self._degraded.add(task)
            # The variant is a different segmentation: per-segment modes
            # no longer line up, and the variant lives in healthy memory.
            for k in [k for k in self._seg_mode if k[0] == task]:
                del self._seg_mode[k]
            return "degrade"
        self._quarantined.add(task)
        return "quarantine"


def bad_flash_faults(
    taskset: "TaskSet",
    platform: "Platform",
    bad_frac: float,
    retries: int,
    seed: int,
    crc_fault_prob: float,
    mirror_bad: bool,
) -> EscalationConfig:
    """Persistent faults on ``bad_frac`` of ``taskset``'s flash layout.

    The bad region starts a quarter into the layout (none at
    ``bad_frac == 0``); every transfer retries ``retries`` times, and
    each retry backs off and re-checks for one CRC pass of ``platform``.
    """
    crc = platform.dma.crc_cycles(platform.mcu)
    return EscalationConfig(
        bad_regions=(
            (bad_region_span(taskset, 0.25, 0.25 + bad_frac),)
            if bad_frac > 0
            else ()
        ),
        crc_fault_prob=crc_fault_prob,
        max_retries=retries,
        backoff_slot_cycles=crc,
        crc_overhead_cycles=crc,
        mirror_bad=mirror_bad,
        seed=seed,
    )


def sweep_ladders(
    taskset: "TaskSet",
    platform: "Platform",
    horizon: int,
    escalation: EscalationConfig,
    names: Sequence[str],
) -> Tuple[int, bool, Dict[str, "SimResult"]]:
    """Simulate ``taskset`` under ``escalation`` once per named ladder.

    Returns the full ladder's per-fault cost bound
    (:func:`~repro.robust.escalation.fault_overhead_cycles`), the
    fault-aware analysis verdict at ``escalation.max_retries`` faults
    with that cost, and the result of each ladder in :data:`LADDERS`
    named in ``names``.
    """
    from repro.core.analysis import fault_aware_analysis
    from repro.eval.parallel import simulate_batch
    from repro.sched.policies import CpuPolicy
    from repro.sched.simulator import SimConfig

    full = RecoveryConfig.for_platform(platform, ladder=LADDERS["full"])
    cost = fault_overhead_cycles(taskset, escalation, recovery=full)
    admit = fault_aware_analysis(taskset, escalation.max_retries, cost).schedulable
    runs = []
    for name in names:
        ladder = LADDERS[name]
        recovery = (
            None
            if ladder is None
            else RecoveryConfig.for_platform(platform, ladder=ladder)
        )
        runs.append((taskset, SimConfig(
            policy=CpuPolicy.FP_NP,
            horizon=horizon,
            escalation=escalation,
            recovery=recovery,
        )))
    return cost, admit, dict(zip(names, simulate_batch(runs)))


# ----------------------------------------------------------------------
# Fleet resilience: retry backoff policy and counters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExponentialBackoff:
    """Bounded exponential backoff schedule (deterministic, no jitter).

    ``delay_s(attempt)`` is the wait before retry ``attempt + 1``:
    ``base_ms * 2**attempt`` capped at ``cap_ms``.  The fleet service
    uses it to re-release timed-out admission requests in virtual time;
    determinism (no jitter) is what keeps fleet runs bit-reproducible.
    """

    base_ms: float = 2.0
    cap_ms: float = 64.0

    def __post_init__(self) -> None:
        if self.base_ms <= 0:
            raise ValueError(f"base_ms must be > 0, got {self.base_ms}")
        if self.cap_ms < self.base_ms:
            raise ValueError(
                f"cap_ms must be >= base_ms, got {self.cap_ms}"
            )

    def delay_ms(self, attempt: int) -> float:
        """Backoff (ms) after the ``attempt``-th timeout (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        # Cap the exponent first so huge attempt counts cannot overflow.
        exponent = min(attempt, 62)
        return min(self.base_ms * (2 ** exponent), self.cap_ms)

    def delay_s(self, attempt: int) -> float:
        return self.delay_ms(attempt) * 1e-3
