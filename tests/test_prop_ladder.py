"""Property tests for the shared degradation ladder.

:func:`repro.online.admission.degrade_ladder` replaced two hand-kept
ladders: ``AdmissionController._attempts`` (a list) and
``FleetService._ladder`` (a generator over fleet residents).  Frozen
copies of both live here as oracles; the shared generator must yield
exactly their rungs — the controller's for every deadline <= period,
the fleet's whenever deadline == period (always true in the fleet).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online import admission
from repro.online.admission import degrade_ladder
from repro.robust.overload import degraded_variant
from repro.sched.task import PeriodicTask, Segment


def frozen_controller_attempts(
    name, period, deadline, segments, stretch, degrade_factor, buffers=2
):
    """``AdmissionController._attempts`` as it was before the merge."""
    attempts = [("full", period, deadline, segments)]
    stretched = []
    for factor in stretch:
        p = int(round(period * factor))
        d = min(p, int(round(deadline * factor)))
        stretched.append((p, d))
        attempts.append((f"rate/{factor:g}", p, d, segments))
    if degrade_factor < 1.0:
        base = PeriodicTask(
            name=name,
            segments=segments,
            period=period,
            deadline=deadline,
            buffers=buffers,
        )
        variant = degraded_variant(base, degrade_factor)
        attempts.append(("variant", period, deadline, variant))
        if stretched:
            p, d = stretched[-1]
            attempts.append((f"variant+rate/{stretch[-1]:g}", p, d, variant))
    return attempts


class _Base(NamedTuple):
    """The fields of a fleet resident the ladder reads and rewrites."""

    task: str
    segments: Tuple[Segment, ...]
    period: int
    deadline: int
    mode: str = "full"


def frozen_fleet_ladder(base, stretch_factors, degrade_factor, buffers=2):
    """``FleetService._ladder`` as it was before the merge."""
    yield "full", base
    for f in stretch_factors:
        p = max(1, int(round(base.period * f)))
        yield f"rate/{f:g}", base._replace(
            period=p, deadline=p, mode=f"rate/{f:g}"
        )
    if degrade_factor < 1.0:
        variant = degraded_variant(
            PeriodicTask(
                name=base.task, segments=base.segments,
                period=base.period, deadline=base.deadline,
                priority=0, buffers=buffers,
            ),
            degrade_factor,
        )
        yield "variant", base._replace(segments=variant, mode="variant")
        if stretch_factors:
            f = stretch_factors[-1]
            p = max(1, int(round(base.period * f)))
            yield f"variant+rate/{f:g}", base._replace(
                segments=variant, period=p, deadline=p,
                mode=f"variant+rate/{f:g}",
            )


segments_st = st.lists(
    st.builds(
        Segment,
        name=st.sampled_from(["s0", "s1", "s2"]),
        load_cycles=st.integers(0, 10**6),
        compute_cycles=st.integers(1, 10**6),
        load_bytes=st.integers(0, 10**5),
        xip_bytes=st.integers(0, 10**5),
    ),
    min_size=1,
    max_size=6,
).map(tuple)
stretch_st = st.lists(
    st.floats(1.0, 4.0, exclude_min=True, allow_nan=False),
    max_size=4,
).map(tuple)
degrade_st = st.one_of(
    st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, allow_nan=False)
)
period_st = st.one_of(st.just(1), st.integers(1, 10**8))


@settings(max_examples=300, deadline=None)
@given(
    segments=segments_st,
    stretch=stretch_st,
    degrade_factor=degrade_st,
    period=period_st,
    data=st.data(),
)
def test_ladder_matches_frozen_controller_attempts(
    segments, stretch, degrade_factor, period, data
):
    deadline = data.draw(st.integers(1, period), label="deadline")
    got = list(
        degrade_ladder(period, deadline, segments, stretch, degrade_factor)
    )
    want = frozen_controller_attempts(
        "task", period, deadline, segments, stretch, degrade_factor
    )
    assert got == want


@settings(max_examples=300, deadline=None)
@given(
    segments=segments_st,
    stretch=stretch_st,
    degrade_factor=degrade_st,
    period=period_st,
)
def test_ladder_matches_frozen_fleet_ladder(
    segments, stretch, degrade_factor, period
):
    base = _Base("d0000001/m0", segments, period, period)
    got = list(
        degrade_ladder(period, period, segments, stretch, degrade_factor)
    )
    want = [
        (mode, r.period, r.deadline, r.segments)
        for mode, r in frozen_fleet_ladder(base, stretch, degrade_factor)
    ]
    assert got == want
    assert all(
        r.mode == mode
        for mode, r in frozen_fleet_ladder(base, stretch, degrade_factor)
    )


def test_variant_is_computed_only_after_stretch_rungs(monkeypatch):
    calls = []
    real = admission.degraded_variant

    def counting(task, factor):
        calls.append(factor)
        return real(task, factor)

    monkeypatch.setattr(admission, "degraded_variant", counting)
    segments = (Segment("s0", load_cycles=10, compute_cycles=20),)
    ladder = degrade_ladder(100, 100, segments, (1.25, 1.5), 0.5)
    modes = [next(ladder)[0] for _ in range(3)]
    assert modes == ["full", "rate/1.25", "rate/1.5"]
    assert calls == []
    assert next(ladder)[0] == "variant"
    assert calls == [0.5]
