"""Experiment drivers: one per reconstructed table/figure (DESIGN.md §4).

Every driver is deterministic given its ``seed`` and returns an
:class:`~repro.eval.reporting.ExperimentResult` whose rows are the series
the corresponding paper table/figure would plot.  ``scale`` shrinks or
grows sample counts (benchmarks use modest scales so the suite stays
fast; pass ``scale=4`` or more for paper-quality curves).
"""

from __future__ import annotations

import functools
import inspect
import math
import random
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import segcache
from repro.core.analysis import METHODS, analyze
from repro.core.framework import RtMdm, lone_chunk, plan_lone_model
from repro.core.pipeline import isolated_latency, sequential_latency
from repro.core.segmentation import (
    SegmentationError,
    min_max_weight_partition,
    search_segmentation,
    segment_model,
)
from repro.dnn.models import refine_model
from repro.dnn.quantization import INT8
from repro.dnn.zoo import build_model, list_models
from repro.eval.metrics import (
    latency_stats,
    quantiles,
    schedulability_ratio,
    tightness_ratios,
)
from repro.eval.parallel import run_units, simulate_batch, stable_seed
from repro.eval.reporting import ExperimentResult
from repro.eval.systems import SYSTEMS, admit_batch, derive_taskset
from repro.hw.dma import DmaArbitration
from repro.hw.presets import PLATFORMS, get_platform
from repro.robust.metrics import miss_ratio
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate
from repro.sched.task import TaskSet
from repro.workload.scenarios import get_scenario
from repro.workload.taskset import generate_case

KIB = 1024


def _mean(values: Sequence[float], digits: int) -> Optional[float]:
    """The mean of ``values`` rounded to ``digits`` places; None if empty."""
    return round(sum(values) / len(values), digits) if values else None


def _cache_noted(
    driver: Callable[..., ExperimentResult]
) -> Callable[..., ExperimentResult]:
    """Append the plan-cache hit/miss summary of each run to its notes."""

    @functools.wraps(driver)
    def noted(*args, **kwargs) -> ExperimentResult:
        before = obs.snapshot()
        result = driver(*args, **kwargs)
        note = segcache.cache_note(obs.delta_since(before))
        return replace(result, notes=f"{result.notes}; {note}")

    return noted

# ----------------------------------------------------------------------
# EXP-T1 / EXP-T2: workload and platform characterization tables
# ----------------------------------------------------------------------


def exp_t1_model_zoo(platform_key: str = "f746-qspi", **_) -> ExperimentResult:
    """Model zoo characteristics and their SRAM deficit on the platform."""
    platform = get_platform(platform_key)
    rows = []
    for name in list_models():
        model = build_model(name)
        weights = model.total_param_bytes(INT8)
        act = model.peak_activation_bytes(INT8)
        deficit = weights + act - platform.usable_sram_bytes
        rows.append(
            (
                name,
                model.num_layers,
                round(model.total_macs / 1e6, 2),
                round(weights / KIB, 1),
                round(act / KIB, 1),
                round(max(0, deficit) / KIB, 1),
                weights + act > platform.usable_sram_bytes,
            )
        )
    return ExperimentResult(
        exp_id="EXP-T1",
        title=f"Model zoo on {platform.name}",
        columns=(
            "model",
            "layers",
            "MMACs",
            "weights_KiB",
            "peak_act_KiB",
            "sram_deficit_KiB",
            "needs_ext_mem",
        ),
        rows=tuple(rows),
        notes="deficit = weights + activations - usable SRAM; any deficit forces staging",
    )


def exp_t2_platforms(**_) -> ExperimentResult:
    """Platform presets and their load/compute balance point."""
    rows = []
    for key, platform in sorted(PLATFORMS.items()):
        mcu, mem = platform.mcu, platform.memory
        load_100k = platform.load_cycles(100 * KIB)
        rows.append(
            (
                key,
                mcu.name,
                round(mcu.clock_hz / 1e6),
                round(mcu.usable_sram_bytes / KIB),
                mem.name,
                round(mem.read_bandwidth_bps / 1e6, 1),
                round(platform.balance_bytes_per_cycle(), 3),
                round(mcu.cycles_to_ms(load_100k), 2),
            )
        )
    return ExperimentResult(
        exp_id="EXP-T2",
        title="Platform presets",
        columns=(
            "key",
            "mcu",
            "MHz",
            "sram_KiB",
            "ext_mem",
            "MB/s",
            "bytes_per_cycle",
            "load_100KiB_ms",
        ),
        rows=tuple(rows),
        notes="bytes_per_cycle above a segment's weight-bytes/compute-cycles ratio means compute-bound",
    )


# ----------------------------------------------------------------------
# EXP-F3: single-DNN isolated latency per execution strategy
# ----------------------------------------------------------------------


def exp_f3_single_dnn_latency(
    platform_key: str = "f746-qspi", **_
) -> ExperimentResult:
    """Isolated inference latency of each strategy, per model."""
    platform = get_platform(platform_key)
    budget = platform.usable_sram_bytes
    rows = []
    skipped = []
    for name in list_models():
        try:
            model, seg = plan_lone_model(build_model(name), platform, budget)
        except SegmentationError:
            skipped.append(name)
            continue
        segments = seg.segments()
        pipelined = isolated_latency(segments, buffers=2)
        single_buf = isolated_latency(segments, buffers=1)
        sequential = sequential_latency(segments)
        xip = sum(platform.xip_cycles(layer, 1.0) for layer in model.layers)
        ms = platform.mcu.cycles_to_ms
        rows.append(
            (
                name,
                round(ms(pipelined), 2),
                round(ms(single_buf), 2),
                round(ms(sequential), 2),
                round(ms(xip), 2),
                round(sequential / pipelined, 2),
                round(xip / pipelined, 2),
            )
        )
    notes = "rtmdm = double-buffered pipeline; speedup columns are vs RT-MDM"
    if skipped:
        notes += (
            "; skipped (no feasible segmentation within usable SRAM): "
            + ", ".join(skipped)
        )
    return ExperimentResult(
        exp_id="EXP-F3",
        title=f"Single-DNN isolated latency on {get_platform(platform_key).name} (ms)",
        columns=(
            "model",
            "rtmdm_ms",
            "single_buf_ms",
            "sequential_ms",
            "xip_ms",
            "seq/rtmdm",
            "xip/rtmdm",
        ),
        rows=tuple(rows),
        notes=notes,
    )


# ----------------------------------------------------------------------
# Schedulability sweeps (EXP-F4/F5/F6)
# ----------------------------------------------------------------------


def _sweep_admission_unit(unit: Tuple) -> Tuple[Tuple, float, float]:
    """One ``(set index, all sweep points)`` admission work row.

    Module-level and fed only picklable inputs so it can run in a pool
    worker.  The whole row goes through :func:`admit_batch` as one
    struct-of-arrays batch (the vectorized RTA engine; a case it stands
    down on runs the scalar ``admit``), so each unit carries every point
    of one set index.  Each point draws from a fresh ``Random`` with the
    same per-index seed — the paired-draw contract — exactly as the
    historic one-point-per-unit worker did.

    Returns ``(verdict rows, generation seconds, analysis seconds)``.
    """
    seed, x_label, index, points, systems = unit
    start = time.perf_counter()
    cases = []
    for _, platform, util in points:
        rng = random.Random(stable_seed(seed, x_label, index))
        cases.append(generate_case(platform, util, rng))
    gen_s = time.perf_counter() - start
    start = time.perf_counter()
    row = admit_batch(cases, systems)
    analysis_s = time.perf_counter() - start
    return tuple(row), gen_s, analysis_s


def _sched_sweep(
    x_label: str,
    points: Sequence[Tuple],
    n_sets: int,
    seed: int,
    jobs: Optional[int],
) -> Tuple[List[Tuple], Dict]:
    """Shared machinery: schedulability ratio of each system per x value.

    ``points`` holds one ``(x value, platform, total utilization)`` per
    sweep point.  Draws are **paired across x values**: set index ``i``
    uses the same seed at every sweep point, so when only the platform
    varies (SRAM or bandwidth sweeps) each point evaluates the *same*
    workloads and the curves are directly comparable.

    Work decomposes into one unit per set index covering *all* x values
    — a full sweep row — dispatched via
    :func:`repro.eval.parallel.run_units`.  Row granularity feeds the
    vectorized batch admission an entire row of cases at once while
    keeping the plan cache's paired-draw locality within a worker.
    Merging walks units in the serial order, so verdict lists (and
    hence every ratio) are bit-identical to the serial path.

    Returns the result rows and the sweep's meta: a wall-clock split
    ``{"generate_s", "analysis_s"}`` summed over units (timing only —
    never folded into result rows) and the vectorized-RTA counters.
    """
    points = tuple(points)
    units = [
        (seed, x_label, index, points, SYSTEMS) for index in range(n_sets)
    ]
    before = obs.snapshot()
    results = run_units(
        _sweep_admission_unit, units, jobs=jobs, chunksize=1,
        # Leading rows run in-process so forked workers inherit a warm
        # plan cache instead of cold ones.  Misses are spread across the
        # whole sweep (each set draws fresh model/budget combos), so
        # every entry created before the fork is one duplicated miss per
        # worker avoided; 16 rows balances that against serial fraction.
        warm_prefix=16,
    )
    delta = obs.delta_since(before)
    verdicts: Dict[object, Dict[str, List[bool]]] = {
        x: {s: [] for s in SYSTEMS} for x, _, _ in points
    }
    timing = {"generate_s": 0.0, "analysis_s": 0.0}
    for row, gen_s, analysis_s in results:
        timing["generate_s"] += gen_s
        timing["analysis_s"] += analysis_s
        for (x, _, _), unit_verdicts in zip(points, row):
            for system, verdict in zip(SYSTEMS, unit_verdicts):
                verdicts[x][system].append(verdict)
    rows = [
        (x, *(round(schedulability_ratio(verdicts[x][s]), 3) for s in SYSTEMS))
        for x, _, _ in points
    ]
    meta: Dict = {key: round(value, 6) for key, value in timing.items()}
    meta.update(zip(obs.TABLE["rta.fixpoint"][3:], delta["rta.fixpoint"][3:]))
    return rows, meta


@_cache_noted
def exp_f4_sched_vs_util(
    platform_key: str = "f746-qspi",
    utils: Sequence[float] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    n_sets: int = 40,
    seed: int = 2024,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Schedulability ratio vs total CPU utilization."""
    platform = get_platform(platform_key)
    n = max(4, int(n_sets * scale))
    rows, meta = _sched_sweep(
        "util", [(u, platform, u) for u in utils], n, seed, jobs
    )
    return ExperimentResult(
        exp_id="EXP-F4",
        title=f"Schedulability ratio vs utilization on {platform.name} ({n} sets/point)",
        columns=("util", *SYSTEMS),
        rows=tuple(rows),
        notes="admission by each system's offline analysis; DM priorities throughout",
        meta=meta,
    )


@_cache_noted
def exp_f5_sched_vs_sram(
    platform_key: str = "f746-qspi",
    sram_kib: Sequence[int] = (64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448),
    util: float = 0.5,
    n_sets: int = 40,
    seed: int = 2025,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Schedulability ratio vs SRAM size at fixed utilization."""
    base = get_platform(platform_key)
    n = max(4, int(n_sets * scale))
    rows, meta = _sched_sweep(
        "sram", [(k, base.with_sram_bytes(k * KIB), util) for k in sram_kib],
        n, seed, jobs,
    )
    return ExperimentResult(
        exp_id="EXP-F5",
        title=f"Schedulability ratio vs SRAM (KiB) at U={util} ({n} sets/point)",
        columns=("sram_kib", *SYSTEMS),
        rows=tuple(rows),
        notes="XIP needs no staging buffers, so it flattens at low SRAM where staging systems die",
        meta=meta,
    )


@_cache_noted
def exp_f6_sched_vs_bandwidth(
    platform_key: str = "f746-qspi",
    factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    util: float = 0.5,
    n_sets: int = 40,
    seed: int = 2026,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Schedulability ratio vs external-memory bandwidth scaling."""
    base = get_platform(platform_key)
    n = max(4, int(n_sets * scale))
    rows, meta = _sched_sweep(
        "bw", [(f, base.with_bandwidth_factor(f), util) for f in factors],
        n, seed, jobs,
    )
    return ExperimentResult(
        exp_id="EXP-F6",
        title=f"Schedulability ratio vs bandwidth factor at U={util} ({n} sets/point)",
        columns=("bw_factor", *SYSTEMS),
        rows=tuple(rows),
        notes="factor 1.0 = 48 MB/s QSPI; at high bandwidth overlap matters less",
        meta=meta,
    )


# ----------------------------------------------------------------------
# Simulation experiments (EXP-F7/F8)
# ----------------------------------------------------------------------


#: Soft budget on simulator events per run; keeps sweeps tractable when a
#: drawn set pairs second-long periods with millisecond ones.
_EVENT_BUDGET = 60_000


def _horizon(taskset, horizon_jobs: int) -> int:
    """Simulation horizon: ``horizon_jobs`` longest periods, cut to about
    :data:`_EVENT_BUDGET` events but never below two longest periods."""
    max_period = max(t.period for t in taskset)
    # Events per cycle: ~4 per segment per job (release/load/compute/done).
    density = sum(4 * t.num_segments / t.period for t in taskset)
    return max(
        2 * max_period,
        min(horizon_jobs * max_period, int(_EVENT_BUDGET / density)),
    )


def _case_config(taskset, horizon_jobs: int,
                 arbitration: DmaArbitration = DmaArbitration.PRIORITY) -> SimConfig:
    """The sweep simulation config for ``taskset`` (phase-independent)."""
    return SimConfig(
        policy=CpuPolicy.FP_NP,
        dma_arbitration=arbitration,
        horizon=_horizon(taskset, horizon_jobs),
    )


def _simulate_case_batch(taskset, horizon_jobs: int,
                         phase_rngs: Sequence[Optional[random.Random]],
                         arbitration: DmaArbitration = DmaArbitration.PRIORITY):
    """Simulate ``taskset`` once per phasing rng, all with one config.

    Each phasing draws ``randrange(period)`` per task from its rng (no
    rng: the set's own phases), so results are bit-identical to one
    :func:`simulate` call per phasing.
    """
    config = _case_config(taskset, horizon_jobs, arbitration)
    cases = []
    for prng in phase_rngs:
        ts = taskset
        if prng is not None:
            ts = taskset.with_phases([prng.randrange(t.period) for t in taskset])
        cases.append((ts, config))
    return simulate_batch(cases)


def _f7_unit(unit: Tuple) -> Optional[Tuple[Dict, int]]:
    """One ``(utilization, set index)`` miss-ratio work unit for EXP-F7.

    Draws its own case from a per-(util, index) stable seed, simulates
    every system over all phasings, and returns per-system miss-ratio
    lists plus the admitted-but-missed count (``None`` payload for an
    infeasible draw).
    """
    seed, platform, util, index, systems, n_phasings = unit
    rng = random.Random(stable_seed(seed, "f7", util, index))
    case = generate_case(platform, util, rng)
    if not case.feasible:
        return None
    totals: Dict[str, List[float]] = {}
    admitted_missed = 0
    for system in systems:
        taskset, method = derive_taskset(system, case)
        admitted = segcache.cached_analyze(taskset, method).schedulable
        phase_rngs = [
            random.Random(stable_seed(seed, util, index, system, p))
            for p in range(n_phasings)
        ]
        results = _simulate_case_batch(taskset, horizon_jobs=20, phase_rngs=phase_rngs)
        values = []
        for result in results:
            values.append(miss_ratio(result))
            if system == "rtmdm" and admitted and result.total_misses:
                admitted_missed += 1
        totals[system] = values
    return totals, admitted_missed


@_cache_noted
def exp_f7_miss_ratio(
    platform_key: str = "f746-qspi",
    utils: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    n_sets: int = 10,
    n_phasings: int = 3,
    seed: int = 2027,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Empirical deadline-miss ratio in simulation vs utilization.

    Every ``(utilization, set index)`` pair seeds its own draw and
    phasings (no shared RNG chain across sets), which is what lets the
    units run as independent parallel work with bit-identical merges.
    """
    platform = get_platform(platform_key)
    n = max(2, int(n_sets * scale))
    systems = ("rtmdm", "single-buffer", "sequential", "np-whole", "xip")
    units = [
        (seed, platform, util, index, systems, n_phasings)
        for util in utils
        for index in range(n)
    ]
    results = run_units(_f7_unit, units, jobs=jobs, chunksize=max(1, n // 2))
    rows = []
    it = iter(results)
    for util in utils:
        totals: Dict[str, List[float]] = {s: [] for s in systems}
        admitted_missed = 0
        for _ in range(n):
            payload = next(it)
            if payload is None:
                continue
            unit_totals, unit_admitted_missed = payload
            for system in systems:
                totals[system].extend(unit_totals[system])
            admitted_missed += unit_admitted_missed
        rows.append(
            (util, *(_mean(totals[s], 4) for s in systems), admitted_missed)
        )
    return ExperimentResult(
        exp_id="EXP-F7",
        title=f"Simulated deadline-miss ratio vs utilization ({n} sets x {n_phasings} phasings)",
        columns=("util", *systems, "rtmdm_admitted_misses"),
        rows=tuple(rows),
        notes="last column must be 0: sets admitted by RT-MDM's analysis never miss in simulation",
    )


def _f8_unit(unit: Tuple) -> Optional[Dict[str, List[float]]]:
    """One ``(utilization, set index)`` tightness work unit for EXP-F8."""
    seed, platform, util, index = unit
    rng = random.Random(stable_seed(seed, "f8", util, index))
    case = generate_case(platform, util, rng)
    if not case.feasible:
        return None
    admitted = [
        (method, segcache.cached_analyze(case.taskset, method))
        for method in METHODS
    ]
    admitted = [(m, r) for m, r in admitted if r.schedulable]
    sims = _simulate_case_batch(
        case.taskset, horizon_jobs=30,
        phase_rngs=[
            random.Random(stable_seed(seed, util, index, method))
            for method, _ in admitted
        ],
    )
    ratios: Dict[str, List[float]] = {}
    for (method, result), sim in zip(admitted, sims):
        ratios[method] = list(tightness_ratios(sim, result.wcrt))
    return ratios


@_cache_noted
def exp_f8_tightness(
    platform_key: str = "f746-qspi",
    utils: Sequence[float] = (0.3, 0.4, 0.5, 0.6),
    n_sets: int = 15,
    seed: int = 2028,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Analysis tightness: observed worst response / analytic bound.

    Like EXP-F7, draws and phasings are seeded per ``(utilization, set
    index)`` so the sweep decomposes into independent work units.
    """
    platform = get_platform(platform_key)
    n = max(2, int(n_sets * scale))
    units = [
        (seed, platform, util, index) for util in utils for index in range(n)
    ]
    results = run_units(_f8_unit, units, jobs=jobs, chunksize=max(1, n // 2))
    ratios_by_method: Dict[str, List[float]] = {m: [] for m in METHODS}
    for payload in results:
        if payload is None:
            continue
        for method in METHODS:
            ratios_by_method[method].extend(payload.get(method, ()))
    rows = []
    for method in METHODS:
        values = ratios_by_method[method]
        q = quantiles(values, (0.5, 0.9, 1.0))
        rows.append(
            (
                method,
                len(values),
                round(q[0], 3) if q[0] is not None else None,
                round(q[1], 3) if q[1] is not None else None,
                round(q[2], 3) if q[2] is not None else None,
            )
        )
    return ExperimentResult(
        exp_id="EXP-F8",
        title="Analysis tightness: simulated max response / analytic bound",
        columns=("analysis", "samples", "p50", "p90", "max"),
        rows=tuple(rows),
        notes="max must stay <= 1.0 (safety); higher p50 = tighter analysis",
    )


# ----------------------------------------------------------------------
# EXP-T3: case study
# ----------------------------------------------------------------------


def exp_t3_case_study(scenario: str = "doorbell", **_) -> ExperimentResult:
    """The multi-DNN case study: plan, bounds, and simulated maxima."""
    scn = get_scenario(scenario)
    platform = get_platform(scn.platform_key)
    rt = RtMdm(platform)
    for spec in scn.specs():
        rt.add_task(spec.name, spec.model, spec.period_s, spec.deadline_s)
    config = rt.configure()
    if not config.feasible:
        raise RuntimeError(f"case study infeasible: {config.infeasible_reason}")
    sim = config.simulate()
    ms = platform.mcu.cycles_to_ms
    rows = []
    for row in config.report_rows():
        observed = sim.max_response(row["task"])
        rows.append(
            (
                row["task"],
                row["model"],
                row["priority"],
                round(row["period_ms"], 1),
                row["segments"],
                round(row["sram_kib"], 1),
                round(row["latency_ms"], 2),
                round(row["wcrt_ms"], 2) if row["wcrt_ms"] is not None else None,
                round(ms(observed), 2) if observed is not None else None,
                row["admitted"] and sim.stats[row["task"]].misses == 0,
            )
        )
    return ExperimentResult(
        exp_id="EXP-T3",
        title=f"Case study '{scenario}' on {platform.name}",
        columns=(
            "task",
            "model",
            "prio",
            "period_ms",
            "segs",
            "sram_KiB",
            "latency_ms",
            "wcrt_ms",
            "sim_max_ms",
            "deadline_met",
        ),
        rows=tuple(rows),
        notes=f"{scn.description}; all deadlines met and bounds respected",
    )


# ----------------------------------------------------------------------
# Ablations (EXP-F9/F10/F11)
# ----------------------------------------------------------------------


def exp_f9_granularity(
    platform_key: str = "f746-qspi",
    model_name: str = "mobilenet-v1-0.25",
    **_,
) -> ExperimentResult:
    """Segment-count sweep: latency and buffer cost vs granularity."""
    platform = get_platform(platform_key)
    model = refine_model(
        build_model(model_name), INT8, lone_chunk(platform.usable_sram_bytes, 2)
    )
    weights = [layer.param_bytes(INT8) for layer in model.layers]
    act = model.peak_activation_bytes(INT8)
    ms = platform.mcu.cycles_to_ms
    rows = []
    n = model.num_layers
    counts = sorted({1, 2, 3, 4, 6, 8, 12, 16, 24, n} & set(range(1, n + 1)))
    for k in counts:
        boundaries = min_max_weight_partition(weights, k)
        seg = segment_model(model, platform, boundaries, INT8, buffers=2)
        segments = seg.segments()
        rows.append(
            (
                k,
                round((2 * seg.max_segment_weight_bytes + act) / KIB, 1),
                round(ms(isolated_latency(segments, 2)), 2),
                round(ms(sequential_latency(segments)), 2),
                round(ms(sum(s.load_cycles for s in segments)), 2),
                round(ms(max(s.compute_cycles for s in segments)), 2),
            )
        )
    return ExperimentResult(
        exp_id="EXP-F9",
        title=f"Granularity sweep for {model_name} on {platform.name}",
        columns=(
            "segments",
            "sram_need_KiB",
            "pipelined_ms",
            "sequential_ms",
            "total_load_ms",
            "max_np_section_ms",
        ),
        rows=tuple(rows),
        notes="finer segments shrink buffers and NP blocking but add per-transfer setup",
    )


def exp_f10_dma_policy(
    platform_key: str = "f746-qspi",
    utils: Sequence[float] = (0.4, 0.6, 0.8),
    n_sets: int = 8,
    seed: int = 2030,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """DMA arbitration ablation: priority queue vs FIFO queue."""
    platform = get_platform(platform_key)
    n = max(2, int(n_sets * scale))
    rows = []
    for util in utils:
        rng = random.Random(seed * 1000 + int(util * 100))
        deltas = []
        prio_miss, fifo_miss = [], []
        for _ in range(n):
            case = generate_case(platform, util, rng)
            if not case.feasible:
                continue
            # One batched pair covers both the miss-ratio and the
            # response-time columns: the runs are deterministic (no
            # phasing rng), so reusing them is bit-identical to the
            # former repeated scalar calls.
            rp, rf = simulate_batch([
                (case.taskset, _case_config(case.taskset, 20, DmaArbitration.PRIORITY)),
                (case.taskset, _case_config(case.taskset, 20, DmaArbitration.FIFO)),
            ])
            prio_miss.append(miss_ratio(rp))
            fifo_miss.append(miss_ratio(rf))
            # Response-time impact on the highest-priority task.
            top = case.taskset.sorted_by_priority()[0].name
            if rp.max_response(top) and rf.max_response(top):
                deltas.append(rf.max_response(top) / rp.max_response(top))
        rows.append(
            (util, _mean(prio_miss, 4), _mean(fifo_miss, 4), _mean(deltas, 3))
        )
    return ExperimentResult(
        exp_id="EXP-F10",
        title="DMA arbitration: FIFO vs priority queue",
        columns=("util", "miss_ratio_priority", "miss_ratio_fifo", "top_task_R_fifo/prio"),
        rows=tuple(rows),
        notes="FIFO lets low-priority transfers delay urgent loads; analysis assumes priority",
    )


def exp_f11_buffering(
    platform_key: str = "f746-qspi",
    util: float = 0.5,
    n_sets: int = 30,
    seed: int = 2031,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Buffer-depth ablation: latency and schedulability for b = 1, 2, 3."""
    platform = get_platform(platform_key)
    ms = platform.mcu.cycles_to_ms
    rows = []
    # Part 1: per-model isolated latency by buffer depth, every depth
    # searching one refinement sized for the deepest.
    for name in ("ds-cnn", "autoencoder", "mobilenet-v1-0.25", "resnet8"):
        model = refine_model(
            build_model(name), INT8, lone_chunk(platform.usable_sram_bytes, 3)
        )
        lat = {}
        sram = {}
        for b in (1, 2, 3):
            try:
                seg = search_segmentation(
                    model, platform, platform.usable_sram_bytes, quant=INT8, buffers=b
                )
            except SegmentationError:
                lat[b], sram[b] = None, None
                continue
            lat[b] = round(ms(seg.isolated_latency()), 2)
            sram[b] = round(seg.sram_need_bytes() / KIB, 1)
        rows.append((name, lat[1], lat[2], lat[3], sram[1], sram[2], sram[3]))
    # Part 2: schedulability at the target utilization by buffer depth.
    # The same drawn workloads are planned at each depth (the draw
    # consumes the rng before `buffers` is used, so seeding per set index
    # gives identical models/utilizations across depths).
    n = max(4, int(n_sets * scale))
    verdicts: Dict[int, List[bool]] = {1: [], 2: [], 3: []}
    for index in range(n):
        for b in (1, 2, 3):
            rng = random.Random(seed * 1000 + index)
            case = generate_case(platform, util, rng, buffers=b)
            verdicts[b].append(
                case.feasible and analyze(case.taskset, "rtmdm").schedulable
            )
    sched = {b: round(schedulability_ratio(verdicts[b]), 3) for b in (1, 2, 3)}
    rows.append(
        (f"sched@U={util}", sched[1], sched[2], sched[3], None, None, None)
    )
    return ExperimentResult(
        exp_id="EXP-F11",
        title="Buffer-depth ablation (latency ms / SRAM KiB / schedulability)",
        columns=("model", "b=1", "b=2", "b=3", "sram_b1", "sram_b2", "sram_b3"),
        rows=tuple(rows),
        notes="b=1 disables overlap; b=3 rarely helps but costs a third slot",
    )


# ----------------------------------------------------------------------
# Extension experiments (EXP-F12/F13/F14)
# ----------------------------------------------------------------------


def exp_f12_fp_vs_edf(
    platform_key: str = "f746-qspi",
    utils: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8),
    n_sets: int = 20,
    seed: int = 2032,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Fixed-priority vs EDF at segment granularity.

    Offline: RT-MDM's FP analysis vs the conservative EDF demand test.
    Online: empirical miss ratios of both policies on the same draws.
    """
    from repro.core.edf import edf_schedulable

    platform = get_platform(platform_key)
    n = max(4, int(n_sets * scale))
    rows = []
    for util in utils:
        rng = random.Random(seed * 1000 + int(util * 100))
        fp_admit, edf_admit = [], []
        fp_miss, edf_miss = [], []
        for _ in range(n):
            case = generate_case(platform, util, rng)
            if not case.feasible:
                fp_admit.append(False)
                edf_admit.append(False)
                continue
            fp_admit.append(analyze(case.taskset, "rtmdm").schedulable)
            edf_admit.append(edf_schedulable(case.taskset))
            horizon = _horizon(case.taskset, 15)
            for policy, sink in (
                (CpuPolicy.FP_NP, fp_miss),
                (CpuPolicy.EDF_NP, edf_miss),
            ):
                result = simulate(
                    case.taskset,
                    SimConfig(policy=policy, horizon=horizon),
                )
                sink.append(miss_ratio(result))
        rows.append(
            (
                util,
                round(schedulability_ratio(fp_admit), 3),
                round(schedulability_ratio(edf_admit), 3),
                _mean(fp_miss, 4), _mean(edf_miss, 4),
            )
        )
    return ExperimentResult(
        exp_id="EXP-F12",
        title="FP vs EDF at segment granularity (admission and simulated misses)",
        columns=("util", "fp_admit", "edf_admit", "fp_sim_miss", "edf_sim_miss"),
        rows=tuple(rows),
        notes="EDF admission uses the conservative folded-blocking demand test",
    )


def exp_f13_flash_placement(
    platform_key: str = "f746-qspi",
    utils: Sequence[float] = (0.3, 0.5, 0.7),
    n_sets: int = 15,
    seed: int = 2033,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Internal-flash weight placement on vs off.

    Placing small/hot models in internal flash removes their staging
    traffic and SRAM slots, improving everyone's admission.
    """
    from repro.dnn.zoo import build_model as _build

    platform = get_platform(platform_key)
    pool = ("tinyconv", "lenet5", "ds-cnn", "autoencoder", "resnet8",
            "mobilenet-v1-0.25")
    n = max(4, int(n_sets * scale))
    rows = []
    for util in utils:
        rng = random.Random(seed * 1000 + int(util * 100))
        admitted = {False: 0, True: 0}
        flash_used_kib = []
        for _ in range(n):
            k = rng.randint(3, 5)
            names = [rng.choice(pool) for _ in range(k)]
            models = [_build(name) for name in names]
            shares = [rng.uniform(0.5, 1.5) for _ in range(k)]
            total_share = sum(shares)
            specs = []
            for i, model in enumerate(models):
                compute = sum(
                    platform.compute_cycles(layer, 1.0) for layer in model.layers
                )
                u_i = util * shares[i] / total_share
                period_s = platform.mcu.cycles_to_seconds(round(compute / u_i))
                specs.append((f"t{i}", model, max(1e-3, period_s)))
            for use_flash in (False, True):
                rt = RtMdm(platform, use_internal_flash=use_flash)
                for name, model, period_s in specs:
                    rt.add_task(name, model, period_s)
                config = rt.configure()
                admitted[use_flash] += config.admitted
                if use_flash and config.placement is not None:
                    flash_used_kib.append(config.placement.flash_used / KIB)
        rows.append(
            (
                util,
                round(admitted[False] / n, 3),
                round(admitted[True] / n, 3),
                _mean(flash_used_kib, 1),
            )
        )
    return ExperimentResult(
        exp_id="EXP-F13",
        title="Schedulability with internal-flash weight placement",
        columns=("util", "external_only", "with_flash_placement", "avg_flash_KiB"),
        rows=tuple(rows),
        notes="flash budget = internal flash minus a 256 KiB code reserve",
    )


def exp_f14_energy(
    platform_key: str = "f746-qspi", **_
) -> ExperimentResult:
    """Energy per inference by execution strategy (extension).

    Staging pays the external bus once per inference and lets the CPU
    race to idle; XIP re-fetches every weight through the slow bus while
    the CPU burns active power waiting.
    """
    from repro.baselines import sequentialize, xip_task
    from repro.hw.energy import energy_per_inference_mj

    platform = get_platform(platform_key)
    rows = []
    skipped = []
    for name in ("tinyconv", "lenet5", "ds-cnn", "autoencoder",
                 "mobilenet-v1-0.25", "resnet8"):
        try:
            model, seg = plan_lone_model(
                build_model(name), platform, platform.usable_sram_bytes
            )
        except SegmentationError:
            skipped.append(name)
            continue
        period = 4 * isolated_latency(seg.segments(), 2)
        variants = {
            "rtmdm": seg.to_task(period=period, name=name),
            "sequential": sequentialize(seg.to_task(period=period, name=name)),
            "xip": xip_task(name, model, platform, period=4 * sum(
                platform.xip_cycles(layer, 1.0) for layer in model.layers
            )),
        }
        energies = {}
        for label, task in variants.items():
            taskset = TaskSet.of([task])
            result = simulate(
                taskset, SimConfig(policy=CpuPolicy.FP_NP, horizon=20 * task.period)
            )
            energies[label] = energy_per_inference_mj(result, taskset, platform)
        rows.append(
            (
                name,
                round(energies["rtmdm"], 3),
                round(energies["sequential"], 3),
                round(energies["xip"], 3),
                round(energies["xip"] / energies["rtmdm"], 2),
            )
        )
    notes = "marginal (above-idle) energy; coefficients in repro.hw.energy"
    if skipped:
        notes += (
            "; skipped (no feasible segmentation within usable SRAM): "
            + ", ".join(skipped)
        )
    return ExperimentResult(
        exp_id="EXP-F14",
        title=f"Energy per inference on {get_platform(platform_key).name} (mJ)",
        columns=("model", "rtmdm_mJ", "sequential_mJ", "xip_mJ", "xip/rtmdm"),
        rows=tuple(rows),
        notes=notes,
    )


def exp_f15_dma_channels(
    platform_key: str = "f746-qspi",
    utils: Sequence[float] = (0.4, 0.6, 0.8),
    n_sets: int = 8,
    seed: int = 2034,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Single vs dual DMA channel ablation (extension).

    A second channel lets two tasks' transfers proceed in parallel; the
    single-channel analysis stays a valid (conservative) bound.  Gains
    concentrate on load-heavy workloads over slow memories.
    """
    platform = get_platform(platform_key)
    n = max(2, int(n_sets * scale))
    rows = []
    for util in utils:
        rng = random.Random(seed * 1000 + int(util * 100))
        ratios = []
        miss1, miss2 = [], []
        for _ in range(n):
            case = generate_case(platform, util, rng)
            if not case.feasible:
                continue
            taskset = case.taskset
            horizon = _horizon(taskset, 15)
            results = {}
            for channels in (1, 2):
                results[channels] = simulate(
                    taskset,
                    SimConfig(policy=CpuPolicy.FP_NP, horizon=horizon,
                              dma_channels=channels),
                )
            miss1.append(miss_ratio(results[1]))
            miss2.append(miss_ratio(results[2]))
            for task in taskset:
                r1 = results[1].max_response(task.name)
                r2 = results[2].max_response(task.name)
                if r1 and r2:
                    ratios.append(r2 / r1)
        rows.append((util, _mean(miss1, 4), _mean(miss2, 4), _mean(ratios, 3)))
    return ExperimentResult(
        exp_id="EXP-F15",
        title="DMA channel count: 1 vs 2 (simulated)",
        columns=("util", "miss_1ch", "miss_2ch", "avg_R_2ch/1ch"),
        rows=tuple(rows),
        notes="response ratios below 1.0 = the second channel helps",
    )


# ----------------------------------------------------------------------
# EXP-R1: robustness under faults and overload policies
# ----------------------------------------------------------------------


def _r1_margin_unit(unit: Tuple) -> Optional[Tuple[bool, Optional[float]]]:
    """One per-set feasibility + sensitivity-margin work unit for EXP-R1."""
    from repro.core.analysis import sensitivity_margin

    seed, platform, util, index = unit
    rng = random.Random(stable_seed(seed, "r1", index))
    case = generate_case(platform, util, rng)
    if not case.feasible:
        return None
    margin = sensitivity_margin(case.taskset, "rtmdm")
    return True, margin


def _r1_sim_unit(unit: Tuple) -> Tuple[Tuple[float, ...], float]:
    """One ``(inflation, case)`` overload-policy work unit for EXP-R1.

    Regenerates its case from the draw index (cheap under a warm plan
    cache) and simulates all four overload policies on it; ``case_index``
    is the case's position among the *feasible* draws, which is what the
    historical fault-seed derivation uses.
    """
    from repro.robust.faults import FaultConfig, InflationModel
    from repro.robust.metrics import degraded_residency
    from repro.robust.overload import (
        OverrunPolicy,
        simulate_policies,
        variant_fallbacks,
    )

    seed, platform, util, draw_index, case_index, inflation, crc = unit
    rng = random.Random(stable_seed(seed, "r1", draw_index))
    taskset = generate_case(platform, util, rng).taskset
    faults = FaultConfig(
        inflation=InflationModel.FIXED,
        inflation_factor=inflation,
        dma_fault_prob=0.02,
        dma_max_retries=3,
        dma_crc_overhead=crc,
        jitter_cycles=crc,
        seed=stable_seed(seed, "r1-faults", case_index),
    )
    results = simulate_policies(
        taskset, _horizon(taskset, 20), faults, variant_fallbacks(taskset, 0.5)
    )
    misses = tuple(miss_ratio(result) for result in results.values())
    return misses, degraded_residency(results[OverrunPolicy.DEGRADE])


@_cache_noted
def exp_r1_overload_policies(
    platform_key: str = "f746-qspi",
    inflations: Sequence[float] = (1.0, 1.25, 1.5, 2.0),
    util: float = 0.6,
    n_sets: int = 6,
    seed: int = 2040,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Miss ratio and degraded-mode residency vs fault intensity.

    Sweeps a uniform WCET inflation (plus a small DMA fault/jitter
    floor) over the same drawn workloads and compares the four overload
    policies (:class:`~repro.robust.overload.OverrunPolicy`).  Draws are
    paired across inflation values, so each curve evaluates identical
    workloads.  The notes record the mean analysis sensitivity margin of
    the drawn sets — the offline counterpart of the empirical sweep.

    Work decomposes into one margin unit per draw plus one simulation
    unit per ``(inflation, feasible case)``; each simulation unit
    regenerates its case from the draw's stable seed, so units stay
    independent and the merged rows match the serial path bit for bit.
    """
    platform = get_platform(platform_key)
    crc = platform.dma.crc_cycles(platform.mcu)
    n = max(2, int(n_sets * scale))
    margin_units = [(seed, platform, util, index) for index in range(n)]
    margin_results = run_units(_r1_margin_unit, margin_units, jobs=jobs, chunksize=1)
    feasible_draws: List[int] = []
    margins: List[float] = []
    for index, payload in enumerate(margin_results):
        if payload is None:
            continue
        feasible_draws.append(index)
        if payload[1] is not None:
            margins.append(payload[1])
    sim_units = [
        (seed, platform, util, draw_index, case_index, inflation, crc)
        for inflation in inflations
        for case_index, draw_index in enumerate(feasible_draws)
    ]
    sim_results = run_units(
        _r1_sim_unit, sim_units, jobs=jobs,
        chunksize=max(1, len(feasible_draws) // 2),
    )
    rows = []
    it = iter(sim_results)
    for inflation in inflations:
        miss_lists: List[List[float]] = [[], [], [], []]
        residency: List[float] = []
        for _ in feasible_draws:
            misses, res = next(it)
            for policy_index, value in enumerate(misses):
                miss_lists[policy_index].append(value)
            residency.append(res)
        rows.append((
            inflation, *(_mean(values, 4) for values in miss_lists),
            _mean(residency, 4),
        ))
    if margins:
        margin_note = (
            f"mean analysis sensitivity margin of the {len(margins)} admitted "
            f"sets: {_mean(margins, 3)}"
        )
    else:
        margin_note = (
            f"no drawn set admitted nominally at U={util} "
            "(sweep runs past the guarantee by design)"
        )
    return ExperimentResult(
        exp_id="EXP-R1",
        title=(
            f"Overload policies under WCET inflation "
            f"({len(feasible_draws)} sets/point)"
        ),
        columns=(
            "inflation",
            "miss_continue",
            "miss_abort",
            "miss_skip_next",
            "miss_degrade",
            "degraded_residency",
        ),
        rows=tuple(rows),
        notes=f"2% DMA fault prob + bus jitter at every point; {margin_note}",
    )


# ----------------------------------------------------------------------
# EXP-D1: online admission control (repro.online)
# ----------------------------------------------------------------------


def _d1_unit(unit: Tuple) -> Dict:
    """One ``(rate, SRAM budget, trace index)`` serve unit for EXP-D1.

    Generates its trace from a stable per-unit seed, replays it through
    :class:`~repro.online.runtime.OnlineRuntime` and returns the
    decision-log aggregates plus the (wall-clock, report-only) decision
    latencies.  The fault-free execution runs inside the unit so the
    soundness check parallelizes with everything else.
    """
    from repro.online.runtime import OnlineRuntime
    from repro.workload.arrivals import poisson_trace

    seed, platform_key, sram_kib, rate_hz, index, duration_s = unit
    platform = get_platform(platform_key).with_sram_bytes(sram_kib * KIB)
    trace = poisson_trace(
        duration_s, rate_hz, seed=stable_seed(seed, "d1", rate_hz, index)
    )
    report = OnlineRuntime(platform).serve(trace)
    payload = {
        "requests": report.requests,
        "admit_requests": report.admit_requests,
        "admitted": report.admitted,
        "degraded": report.degraded,
        "rejected_sram": report.rejected_sram,
        "rejected_rta": report.rejected_rta,
        "misses": report.sim.total_misses if report.sim is not None else 0,
        "latencies_us": report.decision_latencies_us,
    }
    return payload


@_cache_noted
def exp_d1_admission(
    platform_key: str = "f746-qspi",
    rates_hz: Sequence[float] = (0.5, 1.5, 3.0),
    sram_kib: Sequence[int] = (128, 192, 320),
    n_traces: int = 4,
    duration_s: float = 12.0,
    seed: int = 2050,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Admission ratio and decision latency vs arrival rate and SRAM.

    Each ``(rate, SRAM, trace)`` unit serves an independent Poisson
    request trace; the same trace seeds reappear at every SRAM budget so
    the SRAM axis compares identical request streams.  Rows hold only
    decision-log counts and simulated misses — deterministic across
    worker counts — while wall-clock admission-decision latencies go to
    ``meta`` (surfaced in the benchmark suite summary).
    """
    n = max(2, int(n_traces * scale))
    units = [
        (seed, platform_key, kib, rate, index, duration_s)
        for rate in rates_hz
        for kib in sram_kib
        for index in range(n)
    ]
    results = run_units(_d1_unit, units, jobs=jobs, chunksize=max(1, n // 2))
    rows = []
    latencies: List[float] = []
    it = iter(results)
    for rate in rates_hz:
        for kib in sram_kib:
            totals = {
                k: 0
                for k in (
                    "requests", "admit_requests", "admitted", "degraded",
                    "rejected_sram", "rejected_rta", "misses",
                )
            }
            for _ in range(n):
                payload = next(it)
                latencies.extend(payload.pop("latencies_us"))
                for key, value in payload.items():
                    totals[key] += value
            ratio = (
                totals["admitted"] / totals["admit_requests"]
                if totals["admit_requests"]
                else 1.0
            )
            rows.append(
                (
                    rate,
                    kib,
                    totals["requests"],
                    totals["admit_requests"],
                    totals["admitted"],
                    totals["degraded"],
                    totals["rejected_sram"],
                    totals["rejected_rta"],
                    round(ratio, 4),
                    totals["misses"],
                )
            )
    meta = {}
    if latencies:
        meta["decision_latency_us"] = latency_stats(latencies)
    return ExperimentResult(
        exp_id="EXP-D1",
        title=(
            f"Online admission vs arrival rate and SRAM "
            f"({n} traces/point, {duration_s:g}s each)"
        ),
        columns=(
            "rate_hz", "sram_kib", "requests", "admit_req", "admitted",
            "degraded", "rej_sram", "rej_rta", "admit_ratio", "misses",
        ),
        rows=tuple(rows),
        notes=(
            "misses column must be 0: admitted instances never miss in "
            "fault-free execution; decision latency stats in suite meta"
        ),
        meta=meta,
    )


# ----------------------------------------------------------------------
# EXP-R2: recovery protocols under persistent external-memory faults
# ----------------------------------------------------------------------


def _r2_unit(unit: Tuple) -> Optional[Dict]:
    """One ``(bad fraction, retry budget, draw)`` recovery unit for EXP-R2.

    Regenerates its workload from the draw's stable seed, marks a
    deterministic slice of the flash layout as bad, and simulates the
    same escalation config under the four recovery ladders of
    :data:`repro.robust.recovery.LADDERS`.  The fault-aware admission
    verdict at the unit's retry budget rides along so the
    schedulability axis shares the exact workloads of the empirical one.
    """
    from repro.robust.metrics import recovery_summary
    from repro.robust.recovery import LADDERS, bad_flash_faults, sweep_ladders

    seed, platform_key, util, index, bad_frac, retries = unit
    platform = get_platform(platform_key)
    rng = random.Random(stable_seed(seed, "r2", index))
    case = generate_case(platform, util, rng)
    if not case.feasible:
        return None
    taskset = case.taskset
    escalation = bad_flash_faults(
        taskset,
        platform,
        bad_frac,
        retries=retries,
        seed=stable_seed(seed, "r2-faults", index),
        crc_fault_prob=0.0,
        mirror_bad=False,
    )
    _, fa_admit, results = sweep_ladders(
        taskset, platform, _horizon(taskset, 20), escalation, tuple(LADDERS)
    )
    summaries = [recovery_summary(result) for result in results.values()]
    return {
        "fa_admit": fa_admit,
        "miss": tuple(s["survival_miss_ratio"] for s in summaries),
        "quarantined": tuple(s["quarantined_tasks"] for s in summaries),
        "rec_latency": summaries[-1]["mean_recovery_latency"],
        "recovered": summaries[-1]["remaps"] + summaries[-1]["xip_fallbacks"],
    }


@_cache_noted
def exp_r2_recovery(
    platform_key: str = "f746-qspi",
    bad_fracs: Sequence[float] = (0.0, 0.1, 0.25),
    retry_budgets: Sequence[int] = (1, 3),
    util: float = 0.55,
    n_sets: int = 4,
    seed: int = 2060,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Recovery protocols vs persistent-fault rate and retry budget.

    Sweeps the fraction of flash marked permanently bad against the
    per-transfer retry budget, and compares four escalation ladders on
    identical workloads: quarantine-only (no recovery), REMAP,
    REMAP+XIP_FALLBACK, and the full ladder with DEGRADE.  Miss columns
    use the survival miss ratio (quarantined releases charged as
    failures), so sacrificing a task cannot look better than recovering
    it.  ``fa_admit`` is the fraction of drawn sets the fault-aware
    analysis still admits at that retry budget — the analytical
    counterpart of the empirical columns.

    Draws are paired across every ``(bad_frac, retries)`` point, so each
    curve evaluates identical workloads; one unit per point and draw
    keeps the sweep embarrassingly parallel and bit-identical to the
    serial path.
    """
    platform = get_platform(platform_key)
    n = max(2, int(n_sets * scale))
    units = [
        (seed, platform_key, util, index, bad_frac, retries)
        for bad_frac in bad_fracs
        for retries in retry_budgets
        for index in range(n)
    ]
    results = run_units(_r2_unit, units, jobs=jobs, chunksize=max(1, n // 2))
    rows = []
    it = iter(results)
    feasible_total = 0
    for bad_frac in bad_fracs:
        for retries in retry_budgets:
            payloads = []
            for _ in range(n):
                payload = next(it)
                if payload is not None:
                    payloads.append(payload)
            if not payloads:
                rows.append((bad_frac, retries) + (None,) * 8)
                continue
            feasible_total += len(payloads)
            recovered = [p for p in payloads if p["recovered"] > 0]
            latency_ms = (
                round(
                    platform.mcu.cycles_to_ms(
                        sum(p["rec_latency"] for p in recovered) / len(recovered)
                    ),
                    3,
                )
                if recovered
                else None
            )
            rows.append(
                (
                    bad_frac,
                    retries,
                    _mean([1.0 if p["fa_admit"] else 0.0 for p in payloads], 4),
                    *(_mean([p["miss"][i] for p in payloads], 4) for i in range(4)),
                    sum(p["quarantined"][0] for p in payloads),
                    sum(p["quarantined"][3] for p in payloads),
                    latency_ms,
                )
            )
    return ExperimentResult(
        exp_id="EXP-R2",
        title=(
            f"Recovery ladders under persistent flash faults "
            f"({n} sets/point)"
        ),
        columns=(
            "bad_frac",
            "retries",
            "fa_admit",
            "miss_quar",
            "miss_remap",
            "miss_rx",
            "miss_full",
            "quar_none",
            "quar_full",
            "rec_lat_ms",
        ),
        rows=tuple(rows),
        notes=(
            "miss columns are survival miss ratios (quarantined releases "
            f"count as failures); {feasible_total} feasible set-points; "
            "rec_lat_ms averages full-ladder runs that recovered a job"
        ),
    )


# ----------------------------------------------------------------------
# EXP-R3: crash-recovery cost vs checkpoint interval (repro.online.durable)
# ----------------------------------------------------------------------


def _r3_unit(unit: Tuple) -> Dict:
    """One ``(checkpoint interval, crash fraction)`` cell for EXP-R3.

    Serves a durable (journaled) run that crashes at the given fraction
    of the decision stream, recovers from the journal, and reports how
    much work recovery had to redo.  The bit-identity check against the
    uninterrupted baseline runs inside the unit; recovery wall-clock
    latency is report-only (goes to ``meta``).
    """
    import os
    import tempfile

    from repro.online.runtime import OnlineRuntime
    from repro.robust.chaos import baseline_logs, crash_and_recover
    from repro.workload.arrivals import poisson_trace

    seed, platform_key, interval, crash_frac, duration_s, rate_hz = unit
    runtime = OnlineRuntime(get_platform(platform_key))
    trace = poisson_trace(duration_s, rate_hz, seed=stable_seed(seed, "r3"))
    base_log, _ = baseline_logs(runtime, trace)
    n = len(base_log)
    crash_at = min(max(n - 1, 0), int(round(crash_frac * max(n - 1, 0))))
    fd, path = tempfile.mkstemp(prefix="rtmdm-r3-", suffix=".jsonl")
    os.close(fd)
    try:
        recovered = crash_and_recover(
            runtime, trace, "none", crash_at, path,
            checkpoint_interval=interval, holdback=64, seed=seed, monitor=True,
        )
    finally:
        os.unlink(path)
    identical = [d.to_dict() for d in recovered.report.decisions] == base_log
    return {
        "decisions": n,
        "replayed": recovered.recovery.decisions_replayed,
        "records": recovered.journal_records,
        "identical": int(identical),
        "recovery_us": recovered.recovery.recovery_us,
    }


@_cache_noted
def exp_r3_crash_recovery(
    platform_key: str = "f746-qspi",
    checkpoint_intervals: Sequence[int] = (2, 4, 8, 16, 32),
    n_crash_points: int = 5,
    duration_s: float = 12.0,
    rate_hz: float = 2.0,
    seed: int = 2050,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Recovery cost vs checkpoint interval after controller crashes.

    Every cell crashes the durable serving loop at a fixed fraction of
    the decision stream (after the intent record, before the commit —
    the worst crash point), recovers from the journal, and replays the
    suffix past the last checkpoint.  Rows are deterministic replay
    counters plus the bit-identity verdict; recovery wall-clock
    latencies go to ``meta``.  The replayed column demonstrates the
    checkpoint-interval trade-off: more journal records per checkpoint
    bought back as fewer decisions replayed on restart.
    """
    n_points = max(2, int(n_crash_points * scale))
    fracs = [i / (n_points - 1) for i in range(n_points)]
    units = [
        (seed, platform_key, interval, frac, duration_s, rate_hz)
        for interval in checkpoint_intervals
        for frac in fracs
    ]
    results = run_units(_r3_unit, units, jobs=jobs, chunksize=1)
    rows = []
    recovery_us: List[float] = []
    it = iter(results)
    for interval in checkpoint_intervals:
        replayed_total = 0
        replayed_max = 0
        records_total = 0
        identical = 0
        decisions = 0
        for _ in fracs:
            payload = next(it)
            recovery_us.append(payload["recovery_us"])
            decisions = payload["decisions"]
            replayed_total += payload["replayed"]
            replayed_max = max(replayed_max, payload["replayed"])
            records_total += payload["records"]
            identical += payload["identical"]
        rows.append(
            (
                interval,
                len(fracs),
                decisions,
                round(replayed_total / len(fracs), 2),
                replayed_max,
                records_total,
                identical,
            )
        )
    recovery_us.sort()
    meta = {}
    if recovery_us:
        meta["recovery_latency_us"] = {
            "n": len(recovery_us),
            "mean": _mean(recovery_us, 1),
            "p50": round(quantiles(recovery_us, (0.5,))[0], 1),
            "p95": round(quantiles(recovery_us, (0.95,))[0], 1),
            "max": round(recovery_us[-1], 1),
        }
    return ExperimentResult(
        exp_id="EXP-R3",
        title=(
            f"Crash recovery vs checkpoint interval "
            f"({len(fracs)} crash points, {duration_s:g}s trace)"
        ),
        columns=(
            "ckpt_interval",
            "crashes",
            "decisions",
            "replayed_mean",
            "replayed_max",
            "records",
            "identical",
        ),
        rows=tuple(rows),
        notes=(
            "identical must equal crashes in every row (recovered decision "
            "logs bit-identical to the uninterrupted run); replayed_max is "
            "bounded by ckpt_interval; recovery latency stats in suite meta"
        ),
        meta=meta,
    )


# ----------------------------------------------------------------------
# EXP-F16: steady-state folding on harmonic long-horizon sweeps
# ----------------------------------------------------------------------


def _harmonize(taskset):
    """Quantize periods up to power-of-two multiples of the fastest.

    Random sweep draws have near-co-prime periods whose LCM explodes,
    so their simulations never see a repeated hyperperiod.  Rounding
    every period *up* to ``base * 2^k`` keeps deadlines constrained
    (periods only grow), caps the hyperperiod at ``base * 2^max_k``,
    and models the rate-harmonic configurations MCU deployments
    typically choose — the regime where steady-state folding applies.
    """
    from dataclasses import replace as _replace

    base = min(t.period for t in taskset)
    tasks = []
    for t in taskset:
        exponent = max(0, math.ceil(math.log2(t.period / base)))
        tasks.append(_replace(t, period=base << exponent))
    return TaskSet.of(tasks)


def _f16_unit(unit: Tuple) -> Optional[Dict[str, float]]:
    """One ``(utilization, set index)`` steady-state unit for EXP-F16.

    Like :func:`_f7_unit` but on the harmonized task set over a horizon
    of many hyperperiods: the deterministic configs fold their tail
    cycles arithmetically (counted in the ``sim.fold`` counters).
    """
    from repro.robust.overload import OverrunPolicy

    seed, platform, util, index, systems, hyperperiods = unit
    rng = random.Random(stable_seed(seed, "f16", util, index))
    case = generate_case(platform, util, rng)
    if not case.feasible:
        return None
    totals: Dict[str, float] = {}
    cases = []
    for system in systems:
        taskset, _method = derive_taskset(system, case)
        harmonic = _harmonize(taskset)
        h = max(t.period for t in harmonic)  # power-of-two multiples: LCM = max
        cases.append((harmonic, SimConfig(
            policy=CpuPolicy.FP_NP,
            horizon=hyperperiods * h,
            # Steady state requires bounded state: under CONTINUE an
            # overloaded baseline's backlog grows every hyperperiod and
            # no cycle ever forms.  Aborting at the deadline (the abort
            # still counts as a miss) keeps the state space finite, so
            # every deterministic run reaches a repeating cycle.
            overrun=OverrunPolicy.ABORT_AT_DEADLINE,
        )))
    for system, result in zip(systems, simulate_batch(cases)):
        totals[system] = miss_ratio(result)
    return totals


@_cache_noted
def exp_f16_steady_state(
    platform_key: str = "f746-qspi",
    utils: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    n_sets: int = 4,
    hyperperiods: int = 48,
    seed: int = 2031,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    **_,
) -> ExperimentResult:
    """Long-horizon miss ratio on harmonic period sets (fixed ``n_sets``).

    The steady-state companion to EXP-F7: the same generator draws are
    period-harmonized so the hyperperiod is tractable, then each system
    is simulated over ``hyperperiods`` hyperperiods.  Deterministic
    configs detect their state cycle after a few hyperperiods and fold
    the remaining horizon arithmetically — rows are bit-identical to an
    unfolded run, which is just much slower.  Fold counters are reported
    in ``meta`` (excluded from determinism comparisons, since the
    unfolded path legitimately reports zero).
    """
    platform = get_platform(platform_key)
    n = max(2, int(n_sets * scale))
    systems = ("rtmdm", "single-buffer", "sequential")
    units = [
        (seed, platform, util, index, systems, hyperperiods)
        for util in utils
        for index in range(n)
    ]
    before = obs.snapshot()
    results = run_units(_f16_unit, units, jobs=jobs, chunksize=max(1, n // 2))
    delta = obs.delta_since(before)
    rows = []
    it = iter(results)
    for util in utils:
        totals: Dict[str, List[float]] = {s: [] for s in systems}
        for _ in range(n):
            payload = next(it)
            if payload is None:
                continue
            for system in systems:
                totals[system].append(payload[system])
        rows.append((util, *(_mean(totals[s], 4) for s in systems)))
    return ExperimentResult(
        exp_id="EXP-F16",
        title=(
            f"Steady-state miss ratio on harmonic sets "
            f"({n} sets x {hyperperiods} hyperperiods)"
        ),
        columns=("util", *systems),
        rows=tuple(rows),
        notes=(
            "harmonized periods; deterministic runs fold repeated "
            "hyperperiod cycles (rows identical)"
        ),
        meta={"fold": dict(zip(obs.TABLE["sim.fold"][1:], delta["sim.fold"][1:]))},
    )


# ----------------------------------------------------------------------
# Mass-schedulability throughput (EXP-F17)
# ----------------------------------------------------------------------


def _f17_tasksets(n_sets: int, tasks_per_set: int, seed: int) -> List:
    """Synthesized segmented task sets for the RTA throughput benchmark.

    Segments are drawn directly (no segmentation search, no platform
    model) so the benchmark isolates pure analysis throughput: every
    cycle spent here is packing or fixpoint iteration, not planning.
    Deadline-monotonic priorities; constrained deadlines.
    """
    from repro.sched.task import PeriodicTask, Segment

    sets = []
    for index in range(n_sets):
        rng = random.Random(stable_seed(seed, "f17", index))
        tasks = []
        for k in range(tasks_per_set):
            n_seg = rng.randint(2, 8)
            segments = tuple(
                Segment(
                    name=f"t{k}/s{j}",
                    load_cycles=rng.choice((0, rng.randint(1_000, 40_000))),
                    compute_cycles=rng.randint(5_000, 120_000),
                )
                for j in range(n_seg)
            )
            work = sum(s.load_cycles + s.compute_cycles for s in segments)
            # Per-task utilization ~U(1/(3n), 1/(0.5n)): summed over n
            # tasks the set's total serialized utilization is centred
            # near 0.9, so the population mixes admitted and rejected
            # sets instead of saturating one verdict.
            period = int(work * tasks_per_set * rng.uniform(0.5, 3.0))
            deadline = max(1, int(period * rng.uniform(0.7, 1.0)))
            tasks.append(PeriodicTask(
                name=f"t{k}",
                segments=segments,
                period=period,
                deadline=deadline,
                priority=0,
                buffers=rng.randint(1, 3),
            ))
        ordered = sorted(tasks, key=lambda t: (t.deadline, t.name))
        sets.append(TaskSet.of(
            t.with_priority(rank) for rank, t in enumerate(ordered)
        ))
    return sets


def exp_f17_rta_throughput(
    n_sets: int = 400,
    tasks_per_set: int = 6,
    seed: int = 2032,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Mass-schedulability throughput: scalar vs vectorized RTA engine.

    Analyzes ``n_sets`` synthesized task sets under the full method
    family (``oblivious``/``overlap``/``holistic``/``rtmdm`` — the
    EXP-F8-style tightness matrix) two ways: per-case scalar
    ``analyze`` (the oracle) and one struct-of-arrays vectorized batch.
    Reports task sets analyzed per second for each mode.

    Rows are deterministic (verdict counts, bit-identity against the
    scalar oracle, whether the vector engine actually engaged); the
    wall-clock throughputs live in ``meta`` only, like every timing
    measurement in the suite.
    """
    from repro.sched import vecrta

    n = max(8, int(n_sets * scale))
    sets = _f17_tasksets(n, tasks_per_set, seed)
    cases = [
        (taskset, method)
        for taskset in sets
        for method in ("oblivious", "overlap", "holistic", "rtmdm")
    ]

    start = time.perf_counter()
    scalar = [analyze(taskset, method) for taskset, method in cases]
    scalar_s = time.perf_counter() - start

    before = obs.snapshot()
    start = time.perf_counter()
    vector = vecrta.analyze_taskset_batch(cases)
    vector_s = time.perf_counter() - start
    engaged = int(obs.delta_since(before)["rta.fixpoint"][3] > 0)

    def schedulable(results):
        # One verdict per set: its rtmdm analysis (last of each family).
        return sum(1 for res in results[3::4] if res.schedulable)

    identical = int([res.wcrt for res in vector] == [res.wcrt for res in scalar])
    rows = [
        ("scalar", n, schedulable(scalar), 1, 0),
        ("vectorized", n, schedulable(vector), identical, engaged),
    ]
    meta: Dict = {
        "tasks_per_set": tasks_per_set,
        "scalar_s": round(scalar_s, 6),
        "scalar_sets_per_s": round(n / scalar_s, 1) if scalar_s else None,
        "vectorized_s": round(vector_s, 6),
        "vectorized_sets_per_s": round(n / vector_s, 1) if vector_s else None,
    }
    return ExperimentResult(
        exp_id="EXP-F17",
        title=f"Mass-schedulability throughput ({n} sets x {tasks_per_set} tasks)",
        columns=("mode", "sets", "schedulable", "identical", "vec_engaged"),
        rows=tuple(rows),
        notes=(
            "synthesized segmented sets (no planning); identical=1 means "
            "bit-identical WCRT maps vs the scalar oracle; throughput in meta"
        ),
        meta=meta,
    )


# ----------------------------------------------------------------------
# Simulator throughput (EXP-F18)
# ----------------------------------------------------------------------


def _f18_tasksets(n_sets: int, tasks_per_set: int, seed: int) -> List:
    """Synthesized harmonic task sets for the simulator throughput benchmark.

    Periods are power-of-two multiples of a per-set base, so the
    hyperperiod equals the longest period and steady-state folding has
    cycles to detect; per-task compute budgets are drawn from the
    period (total utilization centred near 0.85) so the population
    mixes idle tails, contention, and overload.  A quarter of the
    tasks are XIP-style (all loads zero) to exercise the SoA engine's
    pure-CPU specializations alongside the DMA pipeline path.
    """
    from repro.sched.task import PeriodicTask, Segment

    sets = []
    for index in range(n_sets):
        rng = random.Random(stable_seed(seed, "f18", index))
        base = rng.choice((1 << 16, 1 << 17, 3 << 16))
        tasks = []
        for k in range(tasks_per_set):
            period = base << rng.randint(0, 3)
            n_seg = rng.randint(2, 8)
            budget = int(period * rng.uniform(0.4, 1.3) / tasks_per_set)
            cut = sorted(rng.randint(1, max(2, budget - 1)) for _ in range(n_seg - 1))
            spans = [b - a for a, b in zip([0] + cut, cut + [budget])]
            xip = rng.random() < 0.25
            segments = tuple(
                Segment(
                    name=f"t{k}/s{j}",
                    load_cycles=0 if xip else rng.choice(
                        (0, rng.randint(1, max(1, span // 3)))
                    ),
                    compute_cycles=max(1, span),
                )
                for j, span in enumerate(spans)
            )
            tasks.append(PeriodicTask(
                name=f"t{k}",
                segments=segments,
                period=period,
                deadline=max(1, int(period * rng.uniform(0.8, 1.0))),
                priority=0,
                buffers=rng.randint(1, 3),
                phase=rng.randrange(period) if rng.random() < 0.5 else 0,
            ))
        ordered = sorted(tasks, key=lambda t: (t.deadline, t.name))
        sets.append(TaskSet.of(
            t.with_priority(rank) for rank, t in enumerate(ordered)
        ))
    return sets


def exp_f18_sim_throughput(
    n_sets: int = 40,
    tasks_per_set: int = 6,
    hyperperiods: int = 12,
    seed: int = 2033,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Simulator throughput: scalar vs SoA engine vs SoA + folding.

    Simulates ``n_sets`` synthesized harmonic task sets over
    ``hyperperiods`` hyperperiods three ways — the scalar event loop
    (``Simulator(...).run()``, which never folds), the arena-backed SoA
    core (``simcore.try_simulate(..., fold=False)``), and the SoA core
    composed with steady-state folding (:func:`simulate_batch`) — and
    reports scalar-equivalent heap events processed per second for each
    mode.  The event total is measured once by the no-fold
    SoA pass (its ``sim_soa_events`` counter counts exactly the pops
    the scalar loop would make, fused or not) and serves as the fixed
    work measure for every mode, so the folded mode's throughput
    reflects the cycles it *represents*, not the ones it stepped.

    Rows are deterministic (miss totals, bit-identity against the
    scalar oracle, engine engagement); wall-clock throughputs live in
    ``meta`` only, like every timing measurement in the suite.  The
    driver asserts identity itself — a benchmark run that produced
    different rows would fail here, not in a downstream diff.
    """
    from dataclasses import asdict

    from repro.robust.overload import OverrunPolicy
    from repro.sched import simcore
    from repro.sched.simulator import Simulator

    n = max(4, int(n_sets * scale))
    sets = _f18_tasksets(n, tasks_per_set, seed)
    cases = []
    for taskset in sets:
        h = max(t.period for t in taskset)  # power-of-two multiples: LCM = max
        cases.append((taskset, SimConfig(
            policy=CpuPolicy.FP_NP,
            horizon=hyperperiods * h,
            # Bounded state under overload (the abort still counts as a
            # miss), so deterministic runs reach a repeating cycle and
            # the fold mode has something to fold.
            overrun=OverrunPolicy.ABORT_AT_DEADLINE,
        )))

    def unfolded_soa(batch: List) -> List:
        arena = simcore.Arena()
        return [simcore.try_simulate(ts, cfg, arena, fold=False) for ts, cfg in batch]

    modes = (
        ("scalar", lambda batch: [Simulator(ts, cfg).run() for ts, cfg in batch]),
        ("soa", unfolded_soa),
        ("soa+fold", simulate_batch),
    )
    runs: Dict[str, Tuple[List, float, Tuple[int, int, int], Tuple]] = {}
    for label, run in modes:
        before = obs.snapshot()
        start = time.perf_counter()
        results = run(cases)
        elapsed = time.perf_counter() - start
        delta = obs.delta_since(before)
        runs[label] = (results, elapsed, delta["sim.soa"], delta["sim.fold"])

    def row_dicts(results: List) -> List[Dict]:
        # fold_cycles / fold_jobs_skipped describe *how* a result was
        # obtained, not what it is — drop them before comparing modes.
        out = []
        for res in results:
            d = asdict(res)
            d.pop("fold_cycles", None)
            d.pop("fold_jobs_skipped", None)
            out.append(d)
        return out

    oracle = row_dicts(runs["scalar"][0])
    events_total = runs["soa"][2][1]  # sim_soa_events of the no-fold pass
    rows = []
    meta: Dict = {
        "tasks_per_set": tasks_per_set,
        "hyperperiods": hyperperiods,
        "events_total": events_total,
    }
    for label, _run in modes:
        results, elapsed, soa_delta, fold_delta = runs[label]
        identical = int(row_dicts(results) == oracle)
        assert identical, f"EXP-F18: mode {label!r} diverged from scalar rows"
        rows.append((
            label, n, sum(res.total_misses for res in results),
            identical, soa_delta[0],
        ))
        key = label.replace("+", "_")
        meta[f"{key}_s"] = round(elapsed, 6)
        meta[f"{key}_events_per_s"] = (
            round(events_total / elapsed, 1) if elapsed else None
        )
        if fold_delta[2]:
            meta[f"{key}_fold_cycles_skipped"] = fold_delta[2]
    return ExperimentResult(
        exp_id="EXP-F18",
        title=f"Simulator throughput ({n} sets x {tasks_per_set} tasks)",
        columns=("mode", "sets", "misses", "identical", "soa_runs"),
        rows=tuple(rows),
        notes=(
            "harmonic synthesized sets; identical=1 means bit-identical "
            "SimResults vs the scalar oracle (asserted in-driver); "
            "events/s over the fixed scalar-equivalent event total in meta"
        ),
        meta=meta,
    )


# ----------------------------------------------------------------------
# Fleet-scale serving (EXP-S1) and plan-store amortization (EXP-S2)
# ----------------------------------------------------------------------


@_cache_noted
def exp_s1_fleet(
    devices: int = 20_000,
    shard_counts: Sequence[int] = (1, 4, 16),
    fleet_sizes: Sequence[int] = (5_000, 80_000),
    rate_per_device_hz: float = 0.35,
    duration_s: float = 3.0,
    service_us: float = 150.0,
    batch_size: int = 64,
    seed: int = 2040,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Fleet admission sweep: shard count x fleet size, two arrival models.

    Part one replays the *same* fleet trace at every shard count
    (Poisson and bursty arrivals): the 1-shard run is the serial oracle
    and ``identical=1`` asserts the sharded decision stream matches it
    bit-for-bit (the core correctness claim of the sharded service).
    Queueing percentiles are virtual-time and deterministic — they show
    the oversubscription curve as shards are removed.  Part two scales
    fleet size at the widest shard count (no serial oracle there;
    ``identical`` is ``None``).

    Wall-clock engine throughput (decisions/s) and per-decision engine
    latency percentiles are aggregated across all runs into ``meta``,
    keeping rows deterministic.
    """
    from repro.eval.fleet import (
        FleetConfig,
        FleetService,
        decision_identity,
        fleet_trace,
    )

    def n_dev(base: int) -> int:
        return max(200, int(base * scale))

    rows: List[Tuple] = []
    wall_latencies: List[float] = []
    decided_total = 0
    engine_total = 0.0

    def run_one(trace, shards):
        nonlocal decided_total, engine_total
        config = FleetConfig(
            n_shards=shards, batch_size=batch_size, service_us=service_us
        )
        report = FleetService(config=config).run(trace)
        wall_latencies.extend(report.wall_latencies_us)
        decided_total += report.decided
        engine_total += report.engine_s
        return report

    def row_of(arrival, n, shards, report, identical):
        queueing = report.queueing_latency_ms
        return (
            arrival, n, shards, report.requests, report.admitted,
            report.rejected_sram, report.rejected_rta, report.removed,
            report.shed, report.peak_queue_depth,
            round(report.shard_utilization, 4),
            queueing["p50"], queueing["p99"], identical,
        )

    # Shard sweep: one trace per arrival model, replayed at every shard
    # count; the first (serial) run is the identity oracle.
    for arrival in ("poisson", "bursty"):
        n = n_dev(devices)
        trace = fleet_trace(
            n, duration_s, rate_per_device_hz,
            seed=stable_seed(seed, "s1", arrival, n), arrival=arrival,
        )
        oracle = None
        for shards in shard_counts:
            report = run_one(trace, shards)
            identity = decision_identity(report.decisions)
            identical = 1 if oracle is None else int(identity == oracle)
            if oracle is None:
                oracle = identity
            rows.append(row_of(arrival, n, shards, report, identical))

    # Fleet-size sweep at the widest shard count (Poisson arrivals).
    wide = max(shard_counts)
    for base in fleet_sizes:
        n = n_dev(base)
        trace = fleet_trace(
            n, duration_s, rate_per_device_hz,
            seed=stable_seed(seed, "s1", "poisson", n), arrival="poisson",
        )
        rows.append(row_of("poisson", n, wide, run_one(trace, wide), None))

    meta: Dict = {
        "rate_per_device_hz": rate_per_device_hz,
        "duration_s": duration_s,
        "service_us": service_us,
        "total_decisions": decided_total,
        "decisions_per_s": (
            round(decided_total / engine_total, 1) if engine_total else None
        ),
        "decision_latency_us": latency_stats(wall_latencies),
    }
    return ExperimentResult(
        exp_id="EXP-S1",
        title=(
            f"Fleet admission sweep (shards x fleet size, "
            f"{duration_s:g}s virtual horizon)"
        ),
        columns=(
            "arrival", "devices", "shards", "requests", "admitted",
            "rej_sram", "rej_rta", "removed", "shed", "peak_depth",
            "util", "q_p50_ms", "q_p99_ms", "identical",
        ),
        rows=tuple(rows),
        notes=(
            "virtual-time shards; identical=1 means the sharded decision "
            "stream is bit-identical to the serial oracle; engine "
            "throughput/latency in meta"
        ),
        meta=meta,
    )


def exp_s2_planstore(
    platform_key: str = "f746-qspi",
    sram_kib: Sequence[int] = (128, 192, 320),
    deadlines_ms: Sequence[float] = (50.0, 200.0),
    seed: int = 2041,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Plan-store amortization: cold planning vs a warm on-disk store.

    Plans every zoo model at every SRAM budget and deadline twice into a
    temporary :mod:`repro.core.planstore`: a *cold* pass (empty store,
    empty in-RAM caches — every plan is a full segmentation search) and
    a *warm* pass after clearing the in-RAM caches again, simulating a
    fresh process on an already-provisioned device fingerprint.  The
    warm pass must hit the store instead of re-searching, and
    ``identical=1`` records that warm plans are bit-identical to cold
    ones.  Store counters are deterministic in the workload; wall
    seconds and the speedup live in ``meta``.

    ``seed`` is accepted for driver-signature uniformity (the workload
    is exhaustive, not sampled).
    """
    del seed  # exhaustive workload; kept for signature uniformity
    import shutil
    import tempfile

    from repro.core import planstore
    from repro.online.admission import plan_segments

    models = list(list_models())
    if scale < 1:
        models = models[: max(3, int(round(len(models) * scale)))]
    combos = [
        (kib, model, ms)
        for kib in sram_kib
        for model in models
        for ms in deadlines_ms
    ]

    def run_pass():
        outcomes = []
        start = time.perf_counter()
        for kib, model, ms in combos:
            platform = get_platform(platform_key).with_sram_bytes(kib * KIB)
            deadline = max(1, platform.mcu.seconds_to_cycles(ms / 1000.0))
            try:
                segments, cost = plan_segments(
                    platform, model, deadline, platform.usable_sram_bytes
                )
                outcomes.append((
                    "ok",
                    cost,
                    tuple(
                        (s.name, s.load_cycles, s.compute_cycles,
                         s.load_bytes, s.xip_bytes)
                        for s in segments
                    ),
                ))
            except SegmentationError as exc:
                outcomes.append(("err", str(exc)))
        return outcomes, time.perf_counter() - start

    def counters_since(before):
        return dict(zip(obs.TABLE["planstore"], obs.delta_since(before)["planstore"]))

    previous = planstore.active()
    root = tempfile.mkdtemp(prefix="rtmdm-planstore-")
    try:
        planstore.configure(root)
        segcache.clear_all()
        mark = obs.snapshot()
        cold, cold_s = run_pass()
        cold_counts = counters_since(mark)
        # A warm run is a fresh process: in-RAM caches are gone, the
        # on-disk store is not.
        segcache.clear_all()
        mark = obs.snapshot()
        warm, warm_s = run_pass()
        warm_counts = counters_since(mark)
        store_entries = len(planstore.active())
    finally:
        planstore.configure(previous.root if previous is not None else None)
        shutil.rmtree(root, ignore_errors=True)

    def phase_row(phase, outcomes, counts, identical):
        ok = sum(1 for outcome in outcomes if outcome[0] == "ok")
        return (
            phase, len(outcomes), ok, len(outcomes) - ok, identical,
            counts["hits"], counts["misses"], counts["writes"],
        )

    rows = (
        phase_row("cold", cold, cold_counts, 1),
        phase_row("warm", warm, warm_counts, int(warm == cold)),
    )
    meta = {
        "platform": platform_key,
        "store_entries": store_entries,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2) if warm_s else None,
    }
    return ExperimentResult(
        exp_id="EXP-S2",
        title=(
            f"Plan-store amortization ({len(combos)} plans, cold vs warm)"
        ),
        columns=(
            "phase", "plans", "ok", "err", "identical",
            "hits", "misses", "writes",
        ),
        rows=rows,
        notes=(
            "warm pass re-plans after clearing in-RAM caches against the "
            "persisted store; identical=1 means warm plans are "
            "bit-identical to cold; wall seconds in meta"
        ),
        meta=meta,
    )


@_cache_noted
def exp_s3_resilience(
    devices: int = 60,
    rates_hz: Sequence[float] = (14.0, 20.0),
    duration_s: float = 2.0,
    shards: int = 2,
    batch_size: int = 4,
    queue_depth: int = 8,
    service_us: float = 400.0,
    degrade_watermark: int = 4,
    timeout_ms: float = 5.0,
    crash_frac: float = 0.5,
    seed: int = 2042,
    scale: float = 1.0,
    **_,
) -> ExperimentResult:
    """Fleet resilience under arrival storms: degrade-before-shed + crashes.

    For each storm intensity (bursty arrivals at ``rates_hz`` per
    device), serves the *same* trace under three policies on a
    deliberately tight shard config (small batch, shallow queue, slow
    service) so the queue actually overflows:

    * ``shed-only`` — PR 8 behaviour: queue-full arrivals are dropped.
    * ``ladder`` — decision timeouts with backoff retries plus the
      degrade-before-shed ladder (rate-stretch, then a smaller model
      variant, screened by the admission RTA) with shedding terminal.
    * ``ladder+crash`` — the ladder policy with every shard crashed at
      ``crash_frac`` of its decision count and recovered from its
      journal; ``identical=1`` asserts the recovered decision stream is
      bit-identical to the uninterrupted ``ladder`` run.

    The ladder must strictly reduce ``shed`` whenever ``shed-only``
    dropped anything (degraded admits replace drops).  Virtual-time
    queueing percentiles are deterministic and live in rows; wall-clock
    recovery latency and engine decision latency aggregate into
    ``meta``.
    """
    import shutil
    import tempfile

    from repro.eval.fleet import (
        FleetConfig,
        FleetService,
        decision_identity,
        fleet_trace,
    )
    from repro.robust.chaos import crash_every_shard, fleet_invariants

    n = max(24, int(devices * scale))
    rows: List[Tuple] = []
    wall_latencies: List[float] = []
    recovery_us: List[float] = []
    shed_reductions: Dict[str, int] = {}

    shed_only = FleetConfig(
        n_shards=shards, batch_size=batch_size,
        max_queue_depth=queue_depth, service_us=service_us,
    )
    ladder = replace(
        shed_only,
        degrade_watermark=degrade_watermark,
        timeout_ms=timeout_ms,
        checkpoint_interval=max(batch_size, 16),
    )

    def row_of(rate, policy, report, crashes, identical):
        return (
            round(rate, 3), policy, report.requests, report.admitted,
            report.degraded_admits, report.timeout_retries, report.shed,
            crashes, report.recovered,
            report.queueing_latency_ms["p99"], identical,
        )

    for rate in rates_hz:
        trace = fleet_trace(
            n, duration_s, rate,
            seed=stable_seed(seed, "s3", rate, n), arrival="bursty",
        )
        off = FleetService(config=shed_only).run(trace)
        wall_latencies.extend(off.wall_latencies_us)
        rows.append(row_of(rate, "shed-only", off, 0, None))

        on = FleetService(config=ladder).run(trace)
        fleet_invariants(on)
        wall_latencies.extend(on.wall_latencies_us)
        rows.append(row_of(rate, "ladder", on, 0, None))
        shed_reductions[f"{rate:g}"] = off.shed - on.shed
        oracle = decision_identity(on.all_decisions())

        journal_dir = tempfile.mkdtemp(prefix="rtmdm-s3-")
        try:
            crashed, crashes = crash_every_shard(
                trace, ladder, on, crash_frac, journal_dir
            )
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)
        fleet_invariants(crashed)
        wall_latencies.extend(crashed.wall_latencies_us)
        recovery_us.extend(
            rec["recovery_us"]
            for stats in crashed.shard_stats
            for rec in stats["recoveries"]
        )
        identical = int(
            decision_identity(crashed.all_decisions()) == oracle
        )
        rows.append(row_of(rate, "ladder+crash", crashed, crashes, identical))

    meta: Dict = {
        "devices": n,
        "duration_s": duration_s,
        "service_us": service_us,
        "degrade_watermark": degrade_watermark,
        "timeout_ms": timeout_ms,
        "crash_frac": crash_frac,
        "shed_reduction": shed_reductions,
        "recovery_us": latency_stats(recovery_us),
        "decision_latency_us": latency_stats(wall_latencies),
    }
    return ExperimentResult(
        exp_id="EXP-S3",
        title=(
            f"Fleet resilience under storms ({n} devices, "
            f"degrade-before-shed + crash/recovery)"
        ),
        columns=(
            "rate_hz", "policy", "requests", "admitted", "degraded",
            "retries", "shed", "crashes", "recovered", "q_p99_ms",
            "identical",
        ),
        rows=tuple(rows),
        notes=(
            "same trace per rate under three policies; the ladder row "
            "must shed strictly less than shed-only whenever shed-only "
            "dropped anything; identical=1 means the crashed+recovered "
            "stream matches the uninterrupted ladder run bit-for-bit; "
            "recovery/engine latency in meta"
        ),
        meta=meta,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "EXP-T1": exp_t1_model_zoo,
    "EXP-T2": exp_t2_platforms,
    "EXP-F3": exp_f3_single_dnn_latency,
    "EXP-F4": exp_f4_sched_vs_util,
    "EXP-F5": exp_f5_sched_vs_sram,
    "EXP-F6": exp_f6_sched_vs_bandwidth,
    "EXP-F7": exp_f7_miss_ratio,
    "EXP-F8": exp_f8_tightness,
    "EXP-T3": exp_t3_case_study,
    "EXP-F9": exp_f9_granularity,
    "EXP-F10": exp_f10_dma_policy,
    "EXP-F11": exp_f11_buffering,
    "EXP-F12": exp_f12_fp_vs_edf,
    "EXP-F13": exp_f13_flash_placement,
    "EXP-F14": exp_f14_energy,
    "EXP-F15": exp_f15_dma_channels,
    "EXP-R1": exp_r1_overload_policies,
    "EXP-D1": exp_d1_admission,
    "EXP-R2": exp_r2_recovery,
    "EXP-R3": exp_r3_crash_recovery,
    "EXP-F16": exp_f16_steady_state,
    "EXP-F17": exp_f17_rta_throughput,
    "EXP-F18": exp_f18_sim_throughput,
    "EXP-S1": exp_s1_fleet,
    "EXP-S2": exp_s2_planstore,
    "EXP-S3": exp_s3_resilience,
}


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run an experiment by id, with a helpful error on typos.

    Options a particular driver does not take (e.g. ``jobs`` for an
    experiment with no parallel decomposition) are dropped, so callers
    like the CLI can pass ``scale``/``n_sets``/``jobs`` uniformly.
    ``None`` values are also dropped so driver defaults apply.

    Every invocation starts from a *cold* plan cache: the hit/miss note
    an experiment reports is then a deterministic function of the
    experiment and its arguments, not of whatever ran earlier in the
    process (results are warmth-independent by construction either way).
    Clearing drops entries, not counts: drivers report counter deltas.
    """
    try:
        driver = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    params = inspect.signature(driver).parameters
    accepted = {
        k: v for k, v in kwargs.items() if k in params and v is not None
    }
    segcache.clear_all()
    return driver(**accepted)
