"""Unit tests for the MCU model."""


import pytest

from repro.hw.mcu import MAX_CYCLES, McuSpec, SramRegion


def _mcu(**kwargs):
    defaults = dict(
        name="test",
        clock_hz=100_000_000,
        sram_bytes=256 * 1024,
        flash_bytes=1024 * 1024,
    )
    defaults.update(kwargs)
    return McuSpec(**defaults)


class TestMcuSpec:
    def test_usable_sram_subtracts_reserve(self):
        mcu = _mcu(sram_reserved_bytes=32 * 1024)
        assert mcu.usable_sram_bytes == 224 * 1024

    def test_seconds_to_cycles_rounds_up(self):
        mcu = _mcu(clock_hz=3)
        assert mcu.seconds_to_cycles(1.0) == 3
        assert mcu.seconds_to_cycles(0.5) == 2  # ceil(1.5)

    def test_cycles_to_seconds_roundtrip(self):
        mcu = _mcu()
        cycles = mcu.seconds_to_cycles(0.125)
        assert mcu.cycles_to_seconds(cycles) == pytest.approx(0.125, rel=1e-6)

    def test_cycles_to_ms(self):
        mcu = _mcu(clock_hz=1_000_000)
        assert mcu.cycles_to_ms(1000) == pytest.approx(1.0)

    def test_zero_seconds_is_zero_cycles(self):
        assert _mcu().seconds_to_cycles(0.0) == 0

    @pytest.mark.parametrize("field,value", [
        ("clock_hz", 0),
        ("clock_hz", -1),
        ("sram_bytes", 0),
        ("flash_bytes", -1),
    ])
    def test_invalid_spec_rejected(self, field, value):
        with pytest.raises(ValueError):
            _mcu(**{field: value})

    def test_reserve_must_be_below_sram(self):
        with pytest.raises(ValueError):
            _mcu(sram_bytes=1024, sram_reserved_bytes=1024)

    def test_negative_conversions_rejected(self):
        mcu = _mcu()
        with pytest.raises(ValueError):
            mcu.seconds_to_cycles(-1.0)
        with pytest.raises(ValueError):
            mcu.cycles_to_seconds(-1)

    @pytest.mark.parametrize("seconds", [
        float("inf"), float("-inf"), float("nan"), 1e300,
    ])
    def test_non_finite_or_huge_durations_rejected(self, seconds):
        with pytest.raises(ValueError):
            _mcu().seconds_to_cycles(seconds)

    def test_cycle_count_bound(self):
        mcu = _mcu(clock_hz=1)
        assert mcu.seconds_to_cycles(2.0**61) == 2**61 <= MAX_CYCLES
        with pytest.raises(ValueError):
            mcu.seconds_to_cycles(2.0**62)

    def test_frozen(self):
        with pytest.raises(Exception):
            _mcu().clock_hz = 1


class TestSramRegion:
    def test_end(self):
        assert SramRegion("r", offset=100, size=50).end == 150

    def test_overlap_detection(self):
        a = SramRegion("a", 0, 100)
        b = SramRegion("b", 50, 100)
        c = SramRegion("c", 100, 10)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)
        assert not c.overlaps(a)

    def test_zero_size_never_overlaps(self):
        a = SramRegion("a", 10, 0)
        b = SramRegion("b", 0, 100)
        assert not a.overlaps(b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SramRegion("r", -1, 10)
        with pytest.raises(ValueError):
            SramRegion("r", 0, -10)
