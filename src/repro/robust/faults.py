"""Deterministic fault models for the discrete-event simulator.

The nominal simulator executes exact WCETs and perfect QSPI transfers.
Real MCU deployments do not: CMSIS-NN kernels overrun their measured
WCET under cache/flash-wait-state variation, QSPI/DMA transfers fail CRC
checks and are retried, and a shared external bus adds per-transfer
jitter.  This module packages those effects as a seeded, reproducible
fault source:

* **Execution-time overrun** — each compute burst is inflated by a
  factor drawn per (job, segment): a fixed factor, a uniform draw in
  ``[1, factor]``, or a rare spike (factor with probability
  ``spike_prob``, else nominal).
* **DMA transfer faults** — a transfer fails with probability
  ``dma_fault_prob`` and is retried up to ``dma_max_retries`` times;
  every retry re-pays the full transfer cycles plus a CRC-recheck
  overhead.  A transfer whose final attempt *also* fails is reported
  honestly (``exhausted=True``): the cycles were spent but the data did
  not arrive, and the simulator escalates to the recovery ladder
  (:mod:`repro.robust.recovery`) — or quarantines the task — instead of
  assuming success.
* **External-memory contention jitter** — additive per-transfer latency
  noise ``U{0, .., jitter_cycles}`` modeling unrelated masters on the
  shared QSPI/AHB bus.

All draws come from one dedicated ``random.Random(seed)`` owned by the
:class:`FaultInjector`, consumed in event order — simulations with the
same seed and workload reproduce bit-for-bit.  A null configuration
(:attr:`FaultConfig.is_null`) never perturbs any duration, so nominal
runs stay bit-identical to a simulator without fault hooks.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Tuple


class InflationModel(enum.Enum):
    """How per-burst WCET inflation factors are drawn.

    * ``NONE`` — no inflation (nominal WCETs).
    * ``FIXED`` — every burst runs for ``inflation_factor * C``.
    * ``UNIFORM`` — per-burst factor uniform in ``[1, inflation_factor]``.
    * ``SPIKE`` — nominal, except with probability ``spike_prob`` the
      burst spikes to ``inflation_factor * C`` (rare pathological input).
    """

    NONE = "none"
    FIXED = "fixed"
    UNIFORM = "uniform"
    SPIKE = "spike"


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection parameters (all deterministic given ``seed``).

    Attributes:
        inflation: WCET inflation model for compute bursts.
        inflation_factor: Inflation factor (``>= 1``); its meaning
            depends on ``inflation`` (see :class:`InflationModel`).
        spike_prob: Per-burst spike probability (``SPIKE`` model only).
        dma_fault_prob: Probability one transfer attempt fails CRC.
        dma_max_retries: Retry budget per transfer.
        dma_crc_overhead: Extra engine-busy cycles per retry (CRC
            recheck of the re-read block).
        jitter_cycles: Maximum additive bus-contention jitter per
            transfer (uniform integer in ``[0, jitter_cycles]``).
        seed: Seed of the injector's dedicated random source.
    """

    inflation: InflationModel = InflationModel.NONE
    inflation_factor: float = 1.0
    spike_prob: float = 0.0
    dma_fault_prob: float = 0.0
    dma_max_retries: int = 3
    dma_crc_overhead: int = 0
    jitter_cycles: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.inflation_factor) and self.inflation_factor >= 1.0):
            raise ValueError(
                f"inflation_factor must be finite and >= 1, got {self.inflation_factor}"
            )
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError(f"spike_prob must be in [0, 1], got {self.spike_prob}")
        if not 0.0 <= self.dma_fault_prob <= 1.0:
            raise ValueError(
                f"dma_fault_prob must be in [0, 1], got {self.dma_fault_prob}"
            )
        if self.dma_max_retries < 0:
            raise ValueError(
                f"dma_max_retries must be >= 0, got {self.dma_max_retries}"
            )
        if self.dma_crc_overhead < 0:
            raise ValueError(
                f"dma_crc_overhead must be >= 0, got {self.dma_crc_overhead}"
            )
        if self.jitter_cycles < 0:
            raise ValueError(
                f"jitter_cycles must be >= 0, got {self.jitter_cycles}"
            )

    @property
    def is_null(self) -> bool:
        """True iff this configuration can never perturb a duration."""
        inflates = (
            self.inflation is not InflationModel.NONE
            and self.inflation_factor > 1.0
            and (self.inflation is not InflationModel.SPIKE or self.spike_prob > 0)
        )
        # dma_fault_prob > 0 perturbs even with a zero retry budget: the
        # single attempt can fail and surface as a budget exhaustion.
        faults = self.dma_fault_prob > 0
        return not inflates and not faults and self.jitter_cycles == 0


class FaultInjector:
    """Stateful fault source the simulator consults for every burst.

    Draws are consumed in simulation-event order, which is itself
    deterministic, so one ``(workload, SimConfig)`` pair reproduces
    exactly.  The injector only ever *lengthens* durations — faults
    never make work finish early.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self.transfers = 0
        self.retries = 0
        self.overruns = 0

    # ------------------------------------------------------------------
    # Compute-side faults
    # ------------------------------------------------------------------
    def compute_cycles(self, nominal: int) -> int:
        """Actual cycles of a compute burst with nominal WCET ``nominal``."""
        cfg = self.config
        if cfg.inflation is InflationModel.NONE or cfg.inflation_factor <= 1.0:
            return nominal
        if cfg.inflation is InflationModel.FIXED:
            factor = cfg.inflation_factor
        elif cfg.inflation is InflationModel.UNIFORM:
            factor = self._rng.uniform(1.0, cfg.inflation_factor)
        else:  # SPIKE
            if cfg.spike_prob <= 0 or self._rng.random() >= cfg.spike_prob:
                return nominal
            factor = cfg.inflation_factor
        actual = max(nominal, math.ceil(nominal * factor))
        if actual > nominal:
            self.overruns += 1
        return actual

    # ------------------------------------------------------------------
    # Transfer-side faults
    # ------------------------------------------------------------------
    def transfer_cycles(self, nominal: int) -> Tuple[int, int, bool]:
        """Actual engine-busy cycles for a transfer of ``nominal`` cycles.

        Returns ``(total_cycles, retries, exhausted)``.  ``exhausted``
        is True when the final attempt after the retry budget *also*
        failed: the cycles were spent but the data never arrived, and
        the caller must escalate (the old model silently assumed
        success here).  Zero-byte transfers never touch the DMA and are
        returned untouched.

        Draw-sequence note: each attempt draws exactly one fault
        variate, so a transfer whose budget is *not* exhausted consumes
        the same draws as the pre-escalation model — nominal and
        non-exhausted faulty runs reproduce bit-for-bit.
        """
        if nominal == 0:
            return 0, 0, False
        cfg = self.config
        total = nominal
        if cfg.jitter_cycles > 0:
            total += self._rng.randrange(cfg.jitter_cycles + 1)
        retries = 0
        exhausted = False
        if cfg.dma_fault_prob > 0:
            failed = self._rng.random() < cfg.dma_fault_prob
            while failed and retries < cfg.dma_max_retries:
                retries += 1
                total += nominal + cfg.dma_crc_overhead
                failed = self._rng.random() < cfg.dma_fault_prob
            exhausted = failed
        self.transfers += 1
        self.retries += retries
        return total, retries, exhausted
