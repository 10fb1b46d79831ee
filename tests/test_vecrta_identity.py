"""Identity harness: the vectorized engine against the scalar oracle.

End-to-end guarantee: every user-visible result — sweep rows, admission
verdicts — is bit-identical to what per-case scalar ``admit`` computes
on the same inputs, and the telemetry counters prove the vector engine
actually ran.
"""

import random

import pytest

from repro import obs
from repro.eval.experiments import run_experiment
from repro.eval.metrics import schedulability_ratio
from repro.eval.parallel import stable_seed
from repro.eval.systems import SYSTEMS, admit, admit_batch
from repro.hw.presets import get_platform
from repro.workload.taskset import generate_case

#: EXP-F4's defaults (platform, seed), at a test-sized sweep.
_F4_PLATFORM, _F4_SEED = "f746-qspi", 2024
_F4_SETS, _F4_UTILS = 6, (0.4, 0.7)


def _f4_draw(index, util):
    """EXP-F4's paired draw: set ``index`` uses one seed at every point."""
    rng = random.Random(stable_seed(_F4_SEED, "util", index))
    return generate_case(get_platform(_F4_PLATFORM), util, rng)


def test_f4_matches_scalar_admit():
    """``admit_batch`` over each EXP-F4 unit, and the experiment's rows,
    equal what per-case scalar ``admit`` gives on the same draws."""
    rows = run_experiment(
        "EXP-F4", n_sets=_F4_SETS, utils=_F4_UTILS, jobs=1
    ).rows
    verdicts = {util: {s: [] for s in SYSTEMS} for util in _F4_UTILS}
    for index in range(_F4_SETS):
        cases = [_f4_draw(index, util) for util in _F4_UTILS]
        expected = [
            tuple(admit(system, case) for system in SYSTEMS) for case in cases
        ]
        assert admit_batch(cases, SYSTEMS) == expected
        for util, row in zip(_F4_UTILS, expected):
            for system, verdict in zip(SYSTEMS, row):
                verdicts[util][system].append(verdict)
    assert list(rows) == [
        (util, *(round(schedulability_ratio(verdicts[util][s]), 3) for s in SYSTEMS))
        for util in _F4_UTILS
    ]


def test_vector_engine_engages_and_never_stands_down():
    before = obs.snapshot()
    run_experiment("EXP-F4", n_sets=4, utils=(0.5,), jobs=1)
    delta = dict(zip(obs.TABLE["rta.fixpoint"], obs.delta_since(before)["rta.fixpoint"]))
    assert delta["vec_batches"] > 0
    assert delta["vec_rows"] > 0
    assert delta["vec_stand_downs"] == 0


@pytest.mark.parametrize("util", [0.35, 0.65])
def test_admit_batch_matches_scalar_admit(util):
    rng = random.Random(7001 + int(util * 100))
    platform = get_platform("f746-qspi")
    cases = [generate_case(platform, util, rng) for _ in range(6)]
    expected = [
        tuple(admit(system, case) for system in SYSTEMS) for case in cases
    ]
    got = admit_batch(cases, SYSTEMS)
    assert got == expected
