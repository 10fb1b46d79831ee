"""Identity harness: vectorized engine on vs ``REPRO_VEC_RTA=0``.

End-to-end guarantee behind the kill switch: every user-visible result
— sweep rows, admission verdicts, analysis bounds — is bit-identical
whether the struct-of-arrays engine or the scalar oracle produced it,
and the telemetry counters prove which one actually ran.
"""

import random

import pytest

from repro import obs
from repro.core import segcache
from repro.eval.experiments import run_experiment
from repro.eval.systems import SYSTEMS, admit, admit_batch
from repro.hw.presets import get_platform
from repro.sched import vecrta
from repro.workload.taskset import generate_case


def _clear_analysis_memo():
    # cached_analyze would otherwise serve the second run from memo,
    # hiding which engine computed the verdicts.
    segcache.CACHES["analysis"].clear()


def _f4_rows(monkeypatch, value):
    monkeypatch.setenv(vecrta.ENV_VAR, value)
    _clear_analysis_memo()
    result = run_experiment("EXP-F4", n_sets=6, utils=(0.4, 0.7), jobs=1)
    return result.rows


def test_f4_rows_identical_under_kill_switch(monkeypatch):
    vec_rows = _f4_rows(monkeypatch, "1")
    scalar_rows = _f4_rows(monkeypatch, "0")
    assert vec_rows == scalar_rows


def test_vector_engine_engages_and_never_stands_down(monkeypatch):
    monkeypatch.setenv(vecrta.ENV_VAR, "1")
    _clear_analysis_memo()
    before = obs.snapshot()
    run_experiment("EXP-F4", n_sets=4, utils=(0.5,), jobs=1)
    delta = dict(zip(obs.TABLE["rta.fixpoint"], obs.delta_since(before)["rta.fixpoint"]))
    assert delta["vec_batches"] > 0
    assert delta["vec_rows"] > 0
    assert delta["vec_stand_downs"] == 0


def test_kill_switch_leaves_vector_telemetry_untouched(monkeypatch):
    monkeypatch.setenv(vecrta.ENV_VAR, "0")
    assert not vecrta.enabled()
    _clear_analysis_memo()
    before = obs.snapshot()
    run_experiment("EXP-F4", n_sets=2, utils=(0.5,), jobs=1)
    delta = dict(zip(obs.TABLE["rta.fixpoint"], obs.delta_since(before)["rta.fixpoint"]))
    assert delta["vec_batches"] == 0
    assert delta["vec_rows"] == 0
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
