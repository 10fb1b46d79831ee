"""MCU core model: clock, on-chip memories, and unit conversions.

The MCU is the compute resource of the platform.  Only timing-relevant
attributes are modelled; peripherals, caches and wait-states are abstracted
into the layer timing model (:mod:`repro.hw.timing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Largest cycle count a duration converts to: centuries at any MCU
#: clock, and below the ``1 << 62`` "never" sentinels of the simulators
#: and the RTA hyperperiod cap.
MAX_CYCLES = (1 << 62) - 1


@dataclass(frozen=True)
class McuSpec:
    """A microcontroller specification.

    Attributes:
        name: Human-readable part name (e.g. ``"STM32F746"``).
        clock_hz: CPU core clock in Hz.  All library times are expressed in
            cycles of this clock.
        sram_bytes: Usable on-chip SRAM, in bytes.  This is the budget that
            weight staging buffers, activations and scratch must share.
        flash_bytes: On-chip flash, in bytes (holds code; models that fit
            here would not need external memory, which is the degenerate
            case the framework detects).
        sram_reserved_bytes: SRAM reserved for the RTOS, stacks and I/O
            buffers; subtracted from ``sram_bytes`` before planning.
        has_fpu: Whether a hardware FPU is present (affects float timing).
        dsp_extensions: Whether SIMD/DSP extensions (e.g. ARMv7E-M MAC
            instructions used by CMSIS-NN) are available.
    """

    name: str
    clock_hz: int
    sram_bytes: int
    flash_bytes: int
    sram_reserved_bytes: int = 16 * 1024
    has_fpu: bool = True
    dsp_extensions: bool = True

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {self.clock_hz}")
        if self.sram_bytes <= 0:
            raise ValueError(f"sram_bytes must be positive, got {self.sram_bytes}")
        if self.flash_bytes < 0:
            raise ValueError(f"flash_bytes must be non-negative, got {self.flash_bytes}")
        if not 0 <= self.sram_reserved_bytes < self.sram_bytes:
            raise ValueError(
                "sram_reserved_bytes must be in [0, sram_bytes); got "
                f"{self.sram_reserved_bytes} with sram_bytes={self.sram_bytes}"
            )

    @property
    def usable_sram_bytes(self) -> int:
        """SRAM available to the staging/activation planner."""
        return self.sram_bytes - self.sram_reserved_bytes

    def seconds_to_cycles(self, seconds: float) -> int:
        """Convert a duration in seconds to (ceil) CPU cycles.

        Raises ``ValueError`` unless the cycle count lies in
        ``[0, MAX_CYCLES]``, which rejects negative, NaN, infinite and
        absurdly long durations alike.
        """
        cycles = seconds * self.clock_hz
        if not 0 <= cycles <= MAX_CYCLES:
            raise ValueError(
                f"seconds must be non-negative and convert to at most "
                f"2**62 - 1 cycles, got {seconds}"
            )
        return int(math.ceil(cycles))

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert CPU cycles to seconds."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        return cycles / self.clock_hz

    def cycles_to_ms(self, cycles: int) -> float:
        """Convert CPU cycles to milliseconds (convenience for reports)."""
        return self.cycles_to_seconds(cycles) * 1e3


@dataclass(frozen=True)
class SramRegion:
    """A named, sized region inside on-chip SRAM.

    Used by the buffer planner to lay out staging and activation buffers.
    Offsets are relative to the start of the usable SRAM window.
    """

    name: str
    offset: int
    size: int
    purpose: str = ""

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")
        if self.size < 0:
            raise ValueError(f"size must be non-negative, got {self.size}")

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.offset + self.size

    def overlaps(self, other: "SramRegion") -> bool:
        """Whether this region shares any byte with ``other``.

        Empty regions occupy no bytes and never overlap anything.
        """
        if self.size == 0 or other.size == 0:
            return False
        return self.offset < other.end and other.offset < self.end
