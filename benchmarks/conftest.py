"""Shared machinery for the benchmark harness.

Every reconstructed table/figure (DESIGN.md section 4) has one benchmark
module.  Each benchmark runs its experiment driver exactly once under
pytest-benchmark timing (the drivers are deterministic, so repeated
rounds would only re-measure the same computation) and prints the
rendered table — the rows/series the paper's table or figure reports.

Run with::

    pytest benchmarks/ --benchmark-only -s

Pass a larger scale for paper-quality curves::

    RTMDM_BENCH_SCALE=4 pytest benchmarks/ --benchmark-only -s

Parallel experiment drivers pick up ``REPRO_JOBS`` (or an explicit
``jobs=`` in the benchmark module); results are bit-identical at any
worker count, so timing runs can use every core.

Besides the per-experiment ``benchmark_results/EXP-*.txt`` tables, a
session summary lands in ``benchmark_results/BENCH_suite.json``: one
record per experiment with wall-clock seconds, the effective ``jobs``
and ``scale``, and the plan-cache hit/miss counters observed during that
experiment.  CI uploads this file as an artifact, so the suite's
performance trajectory is tracked across commits.
"""

import datetime
import json
import os
import pathlib
import platform as _platform
import subprocess
import sys
import time

from repro.core import segcache
from repro.eval.experiments import run_experiment
from repro.eval.parallel import resolve_jobs
from repro.eval.reporting import render

#: Rendered tables are also written here (one file per experiment), so
#: the rows survive pytest's output capturing.
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmark_results"

#: Per-experiment records accumulated over the session, in run order.
_SUITE_RECORDS = []

#: Schema tag for individual suite records (the provenance stamp).
RECORD_SCHEMA = "rtmdm-bench-record/1"

_PROVENANCE = None


def _git_sha():
    """The current commit sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def provenance():
    """One provenance stamp per session: schema, UTC timestamp, git sha.

    Stamped onto every suite record so a ``BENCH_suite.json`` merged
    across sessions still attributes each measurement to the commit and
    time that produced it.
    """
    global _PROVENANCE
    if _PROVENANCE is None:
        _PROVENANCE = {
            "schema": RECORD_SCHEMA,
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "git_sha": _git_sha(),
        }
    return _PROVENANCE


def bench_experiment(benchmark, exp_id, **kwargs):
    """Run one experiment driver under the benchmark, print its table,
    and persist it under ``benchmark_results/``."""
    scale = float(os.environ.get("RTMDM_BENCH_SCALE", "1.0"))
    kwargs.setdefault("scale", scale)
    before = segcache.snapshot()
    start = time.perf_counter()
    result = benchmark.pedantic(
        lambda: run_experiment(exp_id, **kwargs), rounds=1, iterations=1
    )
    seconds = time.perf_counter() - start
    record = {
        "exp_id": exp_id,
        "seconds": round(seconds, 3),
        "jobs": resolve_jobs(kwargs.get("jobs")),
        "scale": kwargs.get("scale", scale),
        "plan_cache": segcache.delta_since(before),
        "provenance": provenance(),
    }
    # Driver-supplied extras (e.g. EXP-D1's admission-decision latency
    # stats, which are wall-clock and therefore live outside the rows).
    record.update(result.meta)
    _SUITE_RECORDS.append(record)
    text = render(result)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n", encoding="utf-8")
    return result


def _merge_records(existing, fresh):
    """Combine prior suite records with this session's, one per exp_id.

    A partial run (``pytest benchmarks/test_f7_miss_ratio.py``) used to
    overwrite the whole suite file, losing every other experiment's
    timing.  Instead, records from previous sessions survive unless this
    session re-ran the same experiment — the latest measurement wins.
    Kept records stay in their original order; newly-seen experiments
    append in run order.
    """
    latest = {r["exp_id"]: r for r in fresh}
    merged = []
    for record in existing:
        exp_id = record.get("exp_id")
        merged.append(latest.pop(exp_id, record))
    for record in fresh:
        if record["exp_id"] in latest:
            merged.append(latest.pop(record["exp_id"]))
    return merged


def pytest_sessionfinish(session, exitstatus):
    """Write the cross-session suite summary (``BENCH_suite.json``).

    Counters are the :mod:`repro.obs` snapshot deltas recorded by
    :func:`bench_experiment` (counters are monotone, so a delta is never
    negative); with worker processes ``run_units`` absorbs each worker's
    counters back, so the numbers are exact in both serial and parallel
    runs.  Records merge into any existing suite file by
    ``exp_id`` (latest run wins), so partial benchmark runs refresh only
    the experiments they measured.
    """
    if not _SUITE_RECORDS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_suite.json"
    existing = []
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))["experiments"]
    except (OSError, ValueError, KeyError):
        pass  # first run, or a corrupt/legacy file: start fresh
    records = _merge_records(existing, _SUITE_RECORDS)
    suite = {
        "schema": "rtmdm-bench-suite/1",
        "python": sys.version.split()[0],
        "machine": _platform.machine(),
        "total_seconds": round(sum(r["seconds"] for r in records), 3),
        "experiments": records,
    }
    path.write_text(json.dumps(suite, indent=2) + "\n", encoding="utf-8")
    print(f"\nbench suite summary -> {path} ({len(_SUITE_RECORDS)} updated, "
          f"{len(records)} total)")
