"""Parallel runs and cached runs must be bit-identical to serial runs.

ISSUE acceptance: for the decomposed experiments (the admission sweeps,
the simulation sweeps EXP-F7, and the robustness sweep EXP-R1 with
faults enabled), running with ``--jobs 4`` or against a warm plan cache
must produce exactly the rows a cache-cold serial run produces —
float-for-float, not approximately.  These tests execute each driver at
a tiny scale in all three configurations and compare tuples directly.
The cold-versus-warm identity is the plan cache's transparency check:
a warm hit must equal a cold miss.

``notes`` strings are excluded from the comparison: they embed the
hit/miss counters, which legitimately differ between cold and warm runs
(the *rows* never may).
"""

from __future__ import annotations

import pytest

from repro.core import segcache
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.eval.parallel import resolve_jobs, run_units, stable_seed


@pytest.fixture(autouse=True)
def fresh_caches():
    segcache.clear_all()
    yield
    segcache.clear_all()


TINY = {
    "EXP-F4": dict(n_sets=3, utils=(0.3, 0.6)),
    "EXP-F5": dict(n_sets=3),
    "EXP-F7": dict(n_sets=2, n_phasings=2, utils=(0.5, 0.9)),
    "EXP-R1": dict(n_sets=3, inflations=(1.0, 1.5)),
    "EXP-R2": dict(n_sets=2, bad_fracs=(0.0, 0.2), retry_budgets=(1,)),
    "EXP-D1": dict(
        n_traces=2, rates_hz=(1.5,), sram_kib=(160, 256), duration_s=8.0
    ),
}


def _rows(exp_id, **kwargs):
    return run_experiment(exp_id, **TINY[exp_id], **kwargs).rows


@pytest.mark.parametrize("exp_id", sorted(TINY))
def test_jobs4_bit_identical_to_serial(exp_id):
    serial = _rows(exp_id, jobs=1)
    segcache.clear_all()
    parallel = _rows(exp_id, jobs=4)
    assert parallel == serial


@pytest.mark.parametrize("exp_id", sorted(TINY))
def test_warm_cache_bit_identical_to_cold(exp_id):
    """``run_experiment`` clears the caches first, so the second pass
    calls the driver directly to run against the first pass's entries."""
    cold = _rows(exp_id, jobs=1)
    before = segcache.snapshot()
    warm = EXPERIMENTS[exp_id](**TINY[exp_id], jobs=1).rows
    delta = segcache.delta_since(before)
    # Warm: every refinement and search is a hit, none a miss.
    assert delta["refine"][0] > 0 and delta["search"][0] > 0
    assert delta["refine"][1] == delta["search"][1] == 0
    assert warm == cold


def test_r1_runs_with_faults_and_reports_cache():
    result = run_experiment("EXP-R1", **TINY["EXP-R1"], jobs=2)
    assert "plan cache:" in result.notes
    # Four policies per row: miss ratios + degrade residency column.
    assert all(len(row) >= 5 for row in result.rows)


def test_cache_note_lookup_totals_match_across_jobs():
    """The merged lookup totals in the notes are job-count invariant —
    the counter deltas ride back with each unit, so nothing is lost when
    the work runs in worker processes.  (Hit counts themselves may drop
    under parallelism when a worker starts with a cold cache; this
    sweep's warm prefix covers all but the last unit, so the forked
    worker inherits exactly the serial run's cache and the parent-side
    deltas match field for field.)"""
    import re

    def totals(notes):
        return re.findall(r"\d+/(\d+) hits", notes)

    def run(jobs):
        before = segcache.snapshot()
        notes = run_experiment("EXP-F4", **TINY["EXP-F4"], jobs=jobs).notes
        return notes, segcache.delta_since(before)

    serial, serial_delta = run(1)
    parallel, parallel_delta = run(3)
    assert "plan cache: segmentation" in serial
    assert totals(parallel) == totals(serial) != []
    assert parallel_delta == serial_delta
    assert serial_delta["search"][1] > 0


# ----------------------------------------------------------------------
# run_units / stable_seed primitives
# ----------------------------------------------------------------------


def _square(unit):
    return unit * unit


def test_run_units_preserves_order():
    units = list(range(23))
    assert run_units(_square, units, jobs=1) == [u * u for u in units]
    assert run_units(_square, units, jobs=4, chunksize=3) == [u * u for u in units]


def test_stable_seed_is_process_stable():
    # Known-value pin: CRC32 is stable across runs, platforms, processes.
    assert stable_seed(2027, "f7", 0.5, 3) == stable_seed(2027, "f7", 0.5, 3)
    assert stable_seed(2027, "f7", 0.5, 3) != stable_seed(2027, "f7", 0.5, 4)
    assert stable_seed("x") == 2159005666  # crc32(b"'x'")


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-2) == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert resolve_jobs(None) == 6
    assert resolve_jobs(0) == 6
    assert resolve_jobs(2) == 2
    monkeypatch.setenv("REPRO_JOBS", "junk")
    assert resolve_jobs(None) == 1


# ----------------------------------------------------------------------
# scale / n_sets audit (every driver honours the uniform CLI options)
# ----------------------------------------------------------------------


def test_every_driver_accepts_uniform_options():
    """``run_experiment`` passes scale/n_sets/jobs to every driver; each
    one must either consume them or tolerate them via ``**_``."""
    import inspect

    from repro.eval.experiments import EXPERIMENTS

    for exp_id, driver in EXPERIMENTS.items():
        params = inspect.signature(driver).parameters
        assert any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        ), f"{exp_id} must tolerate uniform CLI options"
        if "n_sets" in params:  # every sampler must be scalable
            assert "scale" in params, f"{exp_id} takes n_sets but not scale"


def test_scale_reduces_sample_count():
    full = run_experiment("EXP-F4", n_sets=8, utils=(0.5,), jobs=1)
    assert "8 sets/point" in full.title
    segcache.clear_all()
    scaled = run_experiment("EXP-F4", n_sets=8, scale=0.5, utils=(0.5,), jobs=1)
    assert "4 sets/point" in scaled.title
