"""Command-line interface: ``rtmdm <command>``.

Commands:

* ``models`` — list the model zoo with key statistics.
* ``platforms`` — list platform presets.
* ``plan`` — plan a scenario and print the deployment table.
* ``simulate`` — plan + simulate a scenario, print a Gantt excerpt
  (optionally write an SVG of the schedule).
* ``energy`` — plan + simulate a scenario and report its energy budget.
* ``serve`` — replay a timestamped request trace through the online
  admission controller (``repro.online``).
* ``fleet`` — simulate a device fleet against the sharded admission
  service (``repro.eval.fleet``), optionally backed by a persistent
  plan store.
* ``exp`` — run one (or ``all``) reconstructed experiments.
* ``validate`` — analysis-vs-simulation consistency sweep (self-test).
* ``robust`` — fault-injected simulation of a scenario under every
  overload policy, plus the analysis sensitivity margin.
* ``recover`` — persistent external-memory faults (bad flash regions)
  simulated under each recovery ladder, plus the fault-aware
  admission verdict.

``plan``, ``simulate``, ``serve`` and ``recover`` take ``--json`` for a
machine-readable report on stdout (exit codes are unchanged).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import obs
from repro.core.framework import RtMdm
from repro.dnn.quantization import INT8
from repro.dnn.zoo import build_model, list_models
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.eval.reporting import render
from repro.hw.presets import PLATFORMS, get_platform
from repro.robust.recovery import LADDERS
from repro.workload.scenarios import SCENARIOS, get_scenario


def _cmd_models(_: argparse.Namespace) -> int:
    print(f"{'model':20s} {'layers':>6s} {'MMACs':>8s} {'weights':>10s} {'peak act':>10s}")
    for name in list_models():
        model = build_model(name)
        print(
            f"{name:20s} {model.num_layers:6d} {model.total_macs / 1e6:8.2f} "
            f"{model.total_param_bytes(INT8) / 1024:8.1f}Ki "
            f"{model.peak_activation_bytes(INT8) / 1024:8.1f}Ki"
        )
    return 0


def _cmd_platforms(_: argparse.Namespace) -> int:
    print(f"{'key':12s} {'platform':26s} {'MHz':>5s} {'SRAM':>8s} {'ext BW':>9s}")
    for key, platform in sorted(PLATFORMS.items()):
        print(
            f"{key:12s} {platform.name:26s} {platform.mcu.clock_hz / 1e6:5.0f} "
            f"{platform.mcu.usable_sram_bytes / 1024:6.0f}Ki "
            f"{platform.memory.read_bandwidth_bps / 1e6:7.1f}MB"
        )
    return 0


def _build_config(
    scenario_key: str, platform_key: Optional[str], use_flash: bool = False
):
    scenario = get_scenario(scenario_key)
    platform = get_platform(platform_key or scenario.platform_key)
    rt = RtMdm(platform, use_internal_flash=use_flash)
    for spec in scenario.specs():
        rt.add_task(spec.name, spec.model, spec.period_s, spec.deadline_s)
    return rt.configure()


def _plan_payload(args: argparse.Namespace, config) -> dict:
    payload = {
        "schema": "rtmdm-plan/1",
        "scenario": args.scenario,
        "platform": config.platform.name,
        "feasible": config.feasible,
        "admitted": config.feasible and config.admitted,
    }
    if not config.feasible:
        payload["infeasible_reason"] = config.infeasible_reason
        return payload
    payload["analysis"] = config.analysis.method
    payload["tasks"] = config.report_rows()
    if config.sram_plan:
        payload["sram"] = {
            "used_bytes": config.sram_plan.used,
            "capacity_bytes": config.sram_plan.capacity,
        }
    if config.placement and config.placement.resident:
        payload["internal_flash"] = {
            "used_bytes": config.placement.flash_used,
            "budget_bytes": config.placement.flash_budget,
            "resident": list(config.placement.resident),
        }
    return payload


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _build_config(args.scenario, args.platform, args.flash)
    if args.json:
        print(json.dumps(_plan_payload(args, config), indent=2))
        return 0 if config.feasible and config.admitted else 1
    if not config.feasible:
        print(f"INFEASIBLE: {config.infeasible_reason}")
        return 1
    print(f"platform: {config.platform.name}")
    print(f"admitted: {config.admitted} (analysis: {config.analysis.method})")
    if not args.quiet:
        for row in config.report_rows():
            wcrt = f"{row['wcrt_ms']:.2f}" if row["wcrt_ms"] is not None else "-"
            print(
                f"  {row['task']:10s} prio={row['priority']} T={row['period_ms']:.0f}ms "
                f"segs={row['segments']:3d} sram={row['sram_kib']:.1f}Ki "
                f"weights={row['weights_in']:8s} "
                f"lat={row['latency_ms']:.2f}ms wcrt={wcrt}ms "
                f"{'OK' if row['admitted'] else 'MISS-RISK'}"
            )
    if config.placement and config.placement.resident:
        print(
            f"internal flash: {config.placement.flash_used / 1024:.0f} / "
            f"{config.placement.flash_budget / 1024:.0f} KiB for "
            f"{', '.join(config.placement.resident)}"
        )
    if config.sram_plan:
        print(
            f"SRAM: {config.sram_plan.used / 1024:.1f} / "
            f"{config.sram_plan.capacity / 1024:.1f} KiB used"
        )
    return 0 if config.admitted else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args.scenario, args.platform, args.flash)
    if args.json:
        if not config.feasible:
            print(json.dumps(_plan_payload(args, config), indent=2))
            return 1
        result = config.simulate(duration_s=args.duration)
        mcu = config.platform.mcu
        tasks = {}
        for name, stats in sorted(result.stats.items()):
            worst = stats.max_response
            tasks[name] = {
                "jobs": stats.jobs,
                "misses": stats.misses,
                "unfinished": stats.unfinished,
                "worst_ms": (
                    round(mcu.cycles_to_ms(worst), 3) if worst is not None else None
                ),
            }
        payload = {
            "schema": "rtmdm-sim/1",
            "scenario": args.scenario,
            "platform": config.platform.name,
            "end_ms": round(mcu.cycles_to_ms(result.end_time), 1),
            "total_misses": result.total_misses,
            "no_misses": result.no_misses,
            "fold": {
                "cycles_detected": result.fold_cycles,
                "jobs_skipped": result.fold_jobs_skipped,
            },
            "tasks": tasks,
        }
        print(json.dumps(payload, indent=2))
        return 0 if result.no_misses else 1
    if not config.feasible:
        print(f"INFEASIBLE: {config.infeasible_reason}")
        return 1
    result = config.simulate(duration_s=args.duration, record_trace=True)
    mcu = config.platform.mcu
    print(f"simulated {mcu.cycles_to_ms(result.end_time):.0f} ms")
    print(f"misses: {result.total_misses}")
    for name, stats in result.stats.items():
        worst = stats.max_response
        worst_ms = f"{mcu.cycles_to_ms(worst):.2f}" if worst is not None else "-"
        print(f"  {name:10s} jobs={stats.jobs:4d} worst={worst_ms}ms misses={stats.misses}")
    if result.trace is not None:
        window = min(result.end_time, mcu.seconds_to_cycles(args.gantt_window))
        print(result.trace.gantt(until=window, width=90))
        if args.svg:
            from repro.sched.svg import write_svg

            write_svg(
                result.trace,
                args.svg,
                mcu=mcu,
                until=window,
                title=f"{args.scenario} on {config.platform.name}",
            )
            print(f"wrote {args.svg}")
    return 0 if result.no_misses else 1


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.hw.energy import energy_of_run, power_model_for

    config = _build_config(args.scenario, args.platform, args.flash)
    if not config.feasible:
        print(f"INFEASIBLE: {config.infeasible_reason}")
        return 1
    result = config.simulate(duration_s=args.duration)
    breakdown = energy_of_run(result, config.taskset, config.platform)
    pm = power_model_for(config.platform.mcu)
    print(f"platform: {config.platform.name} "
          f"(CPU {pm.cpu_active_mw:.0f} mW active, {pm.idle_mw:.1f} mW idle)")
    print(f"simulated {breakdown.duration_s:.2f} s")
    print(f"  CPU active : {breakdown.cpu_mj:9.2f} mJ")
    print(f"  DMA engine : {breakdown.dma_mj:9.2f} mJ")
    print(f"  ext. reads : {breakdown.ext_mj:9.2f} mJ")
    print(f"  idle floor : {breakdown.idle_mj:9.2f} mJ")
    print(f"  total      : {breakdown.total_mj:9.2f} mJ "
          f"(avg {breakdown.average_mw:.1f} mW)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.eval.validation import validate

    platform = get_platform(args.platform) if args.platform else None
    report = validate(
        platform=platform,
        n_cases=args.cases,
        phasings=args.phasings,
        seed=args.seed,
    )
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.passed else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.framework import plan_lone_model
    from repro.core.segmentation import SegmentationError

    platform = get_platform(args.platform or "f746-qspi")
    model = build_model(args.model)
    print(f"{args.model} on {platform.name}")
    print(f"{'#':>3s} {'layer':22s} {'kind':9s} {'out shape':>14s} "
          f"{'MACs':>10s} {'w bytes':>9s} {'act bytes':>10s}")
    for row in model.summary_rows(INT8):
        print(
            f"{row['index']:3d} {row['name']:22s} {row['kind']:9s} "
            f"{str(row['output_shape']):>14s} {row['macs']:10,d} "
            f"{row['param_bytes']:9,d} {row['working_act_bytes']:10,d}"
        )
    print(
        f"total: {model.total_macs / 1e6:.2f} MMACs, "
        f"{model.total_param_bytes(INT8) / 1024:.1f} KiB weights, "
        f"{model.peak_activation_bytes(INT8) / 1024:.1f} KiB peak activations"
    )
    budget = args.budget * 1024 if args.budget else platform.usable_sram_bytes
    try:
        _, seg = plan_lone_model(model, platform, budget)
    except SegmentationError as error:
        print(f"segmentation: INFEASIBLE within {budget // 1024} KiB ({error})")
        return 1
    ms = platform.mcu.cycles_to_ms
    print(
        f"segmentation within {budget // 1024} KiB: {seg.num_segments} segments, "
        f"{seg.sram_need_bytes() / 1024:.1f} KiB SRAM, "
        f"latency {ms(seg.isolated_latency()):.2f} ms "
        f"(sequential {ms(seg.sequential_latency()):.2f} ms)"
    )
    return 0


def _cmd_robust(args: argparse.Namespace) -> int:
    from repro.core.analysis import sensitivity_margin
    from repro.robust.faults import FaultConfig, InflationModel
    from repro.robust.metrics import robustness_summary
    from repro.robust.overload import simulate_policies, variant_fallbacks

    config = _build_config(args.scenario, args.platform, args.flash)
    if not config.feasible:
        print(f"INFEASIBLE: {config.infeasible_reason}")
        return 1
    platform = config.platform
    taskset = config.taskset
    horizon = config.horizon_cycles(args.duration)
    crc = platform.dma.crc_cycles(platform.mcu)
    try:
        faults = FaultConfig(
            inflation=(
                InflationModel(args.inflation_model)
                if args.inflation > 1.0
                else InflationModel.NONE
            ),
            inflation_factor=args.inflation,
            spike_prob=args.spike_prob,
            dma_fault_prob=args.dma_fault_prob,
            dma_max_retries=3,
            dma_crc_overhead=crc,
            jitter_cycles=args.jitter,
            seed=args.seed,
        )
        degrade = variant_fallbacks(taskset, args.degrade_factor)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    margin = sensitivity_margin(taskset, "rtmdm")
    print(f"platform: {platform.name}")
    print(
        f"faults: inflation x{args.inflation} ({faults.inflation.value}), "
        f"DMA fault p={args.dma_fault_prob}, jitter<={args.jitter}cyc, "
        f"seed={args.seed}"
    )
    print(
        "analysis sensitivity margin: "
        + (f"x{margin:.3f}" if margin is not None else "none (not admitted nominally)")
    )
    print(
        f"{'policy':12s} {'jobs':>5s} {'miss%':>7s} {'misses':>6s} "
        f"{'aborts':>6s} {'skips':>5s} {'degr%':>6s} {'retries':>7s}"
    )
    worst_miss = 0.0
    for policy, result in simulate_policies(taskset, horizon, faults, degrade).items():
        s = robustness_summary(result)
        worst_miss = max(worst_miss, s["miss_ratio"])
        print(
            f"{policy.value:12s} {s['released']:5.0f} {100 * s['miss_ratio']:6.2f}% "
            f"{s['misses']:6.0f} {s['aborts']:6.0f} {s['skips']:5.0f} "
            f"{100 * s['degraded_residency']:5.1f}% {s['dma_retries']:7.0f}"
        )
    return 0 if worst_miss == 0.0 else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.robust.metrics import recovery_summary
    from repro.robust.recovery import bad_flash_faults, sweep_ladders

    config = _build_config(args.scenario, args.platform, args.flash)
    if not config.feasible:
        print(f"INFEASIBLE: {config.infeasible_reason}")
        return 1
    platform = config.platform
    taskset = config.taskset
    horizon = config.horizon_cycles(args.duration)
    try:
        escalation = bad_flash_faults(
            taskset,
            platform,
            args.bad_frac,
            retries=args.retries,
            seed=args.seed,
            crc_fault_prob=args.crc_fault_prob,
            mirror_bad=args.mirror_bad,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    selected = list(LADDERS) if args.protocol == "all" else [args.protocol]
    cost, fa_admit, results = sweep_ladders(
        taskset, platform, horizon, escalation, selected
    )
    protocols = {}
    best_miss: Optional[float] = None
    for name, result in results.items():
        summary = recovery_summary(result)
        protocols[name] = {
            **summary,
            "quarantined": list(result.quarantined),
            "fault_events": [e.to_dict() for e in result.fault_events],
        }
        miss = summary["survival_miss_ratio"]
        best_miss = miss if best_miss is None else min(best_miss, miss)
    ok = best_miss == 0.0
    if args.json:
        payload = {
            "schema": "rtmdm-recover/1",
            "platform": platform.name,
            "scenario": args.scenario,
            "bad_frac": args.bad_frac,
            "mirror_bad": args.mirror_bad,
            "crc_fault_prob": args.crc_fault_prob,
            "retries": args.retries,
            "seed": args.seed,
            "horizon_cycles": horizon,
            "fault_cost_cycles": cost,
            "fault_aware_admit": fa_admit,
            "survives": ok,
            "protocols": protocols,
        }
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    print(f"platform: {platform.name}")
    print(
        f"faults: bad region {100 * args.bad_frac:g}% of flash"
        f"{' (mirror too)' if args.mirror_bad else ''}, "
        f"transient CRC p={args.crc_fault_prob}, "
        f"{args.retries} retries/transfer, seed={args.seed}"
    )
    print(
        f"fault-aware admission (k={args.retries}, "
        f"cost={cost} cyc/fault): "
        + ("ADMIT" if fa_admit else "REJECT")
    )
    if args.quiet:
        print(f"survives: {'yes' if ok else 'NO'}")
        return 0 if ok else 1
    print(
        f"{'ladder':8s} {'jobs':>5s} {'miss%':>7s} {'faults':>6s} "
        f"{'remaps':>6s} {'xip':>5s} {'degr':>5s} {'quar':>5s} "
        f"{'rec lat':>8s}"
    )
    for name in selected:
        s = protocols[name]
        latency = s["mean_recovery_latency"]
        lat_ms = (
            f"{platform.mcu.cycles_to_ms(latency):.2f}ms" if latency else "-"
        )
        print(
            f"{name:8s} {s['released']:5.0f} "
            f"{100 * s['survival_miss_ratio']:6.2f}% {s['faults']:6.0f} "
            f"{s['remaps']:6.0f} {s['xip_fallbacks']:5.0f} "
            f"{s['degrades']:5.0f} {s['quarantined_tasks']:5.0f} "
            f"{lat_ms:>8s}"
        )
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.online.events import RequestTrace
    from repro.online.modechange import Protocol
    from repro.online.runtime import OnlineRuntime
    from repro.workload.arrivals import poisson_trace

    platform = get_platform(args.platform or "f746-qspi")
    if args.sram is not None:
        platform = platform.with_sram_bytes(args.sram * 1024)
    if args.trace is not None:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = RequestTrace.from_json(handle.read())
    else:
        trace = poisson_trace(args.duration, args.rate, seed=args.seed)
    if args.restore and not args.journal:
        raise ValueError("--restore requires --journal")
    runtime = OnlineRuntime(platform, protocol=Protocol(args.protocol))
    durable = None
    if args.journal:
        from repro.online.durable import serve_trace_durable

        durable = serve_trace_durable(
            runtime,
            trace,
            args.journal,
            checkpoint_interval=args.checkpoint_interval,
            restore=args.restore,
            simulate=not args.no_sim,
        )
        report = durable.report
    else:
        report = runtime.serve(trace, simulate=not args.no_sim)
    if args.json:
        payload = report.to_dict(mcu=platform.mcu)
        if durable is not None:
            payload["durable"] = {
                "journal": args.journal,
                "records": durable.journal_records,
                "checkpoints": durable.checkpoints_written,
                "invariants": dict(durable.invariants),
                "gate": durable.gate.to_dict(),
            }
            if durable.recovery is not None:
                payload["durable"]["recovery"] = durable.recovery.to_dict()
        print(json.dumps(payload, indent=2))
        return 0 if report.sound else 1
    print(f"platform: {platform.name} "
          f"({platform.usable_sram_bytes / 1024:.0f} KiB SRAM)")
    source = args.trace or f"poisson rate={args.rate}/s seed={args.seed}"
    print(f"trace: {source} ({trace.duration_s:g}s, {len(trace)} requests)")
    if durable is not None and durable.recovery is not None:
        rec = durable.recovery
        print(f"recovered from {args.journal}: checkpoint seq {rec.checkpoint_seq}, "
              f"replayed {rec.decisions_replayed} decisions "
              f"({rec.records_scanned} records, "
              f"{rec.truncated_lines} torn lines dropped) "
              f"in {rec.recovery_us / 1000:.1f} ms")
    if not args.quiet:
        for d in report.decisions:
            extra = f" [{d.mode}]" if d.outcome == "admitted" and d.mode != "full" else ""
            detail = f" ({d.reason})" if d.outcome in ("rejected", "ignored") else ""
            proto = f" via {d.protocol}" if d.protocol == "drain" else ""
            print(f"  t={d.time_s:7.3f}s {d.kind:7s} {d.task:10s} "
                  f"{d.outcome}{extra}{proto}{detail}")
    print(f"admitted {report.admitted}/{report.admit_requests} "
          f"({report.degraded} degraded), "
          f"rejected {report.rejected_sram} sram / {report.rejected_rta} rta")
    if durable is not None:
        checks = sum(durable.invariants.values())
        print(f"journal: {args.journal} ({durable.journal_records} records, "
              f"{durable.checkpoints_written} checkpoints); "
              f"invariants: {checks} checks passed")
    if report.sim is not None:
        verdict = "no misses" if report.sim.no_misses else (
            f"{report.sim.total_misses} MISSES")
        print(f"execution: {verdict} over "
              f"{platform.mcu.cycles_to_ms(report.sim.end_time):.0f} ms")
    return 0 if report.sound else 1


def _cmd_fleet_chaos(args: argparse.Namespace) -> int:
    from repro.robust.chaos import FLEET_CHAOS_MODES, quick_fleet_matrix
    from repro.robust.metrics import fleet_chaos_summary

    if args.modes == "all":
        modes = FLEET_CHAOS_MODES
    else:
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    shard_counts = tuple(
        int(n) for n in str(args.shard_counts).split(",") if n.strip()
    )
    report = quick_fleet_matrix(
        n_devices=args.devices,
        duration_s=args.duration,
        rate_hz=args.rate,
        seed=args.seed,
        modes=modes,
        shard_counts=shard_counts,
        checkpoint_interval=args.checkpoint_interval,
        journal_dir=args.journal_dir,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    summary = fleet_chaos_summary(report)
    print(f"fleet matrix: {report.n_devices} devices, {report.requests} "
          f"requests x {len(modes)} modes x shards {shard_counts} "
          f"(checkpoint every {report.checkpoint_interval}) "
          f"-> {summary['cells']} cells")
    if not args.quiet:
        print(f"{'mode':12s} {'cells':>5s} {'identical':>9s} "
              f"{'crashes':>7s} {'replay max':>10s} {'shed':>6s}")
        for mode in modes:
            cells = [c for c in report.cells if c.mode == mode]
            print(
                f"{mode:12s} {len(cells):5d} "
                f"{sum(1 for c in cells if c.identical):9d} "
                f"{sum(c.crashes for c in cells):7d} "
                f"{max((c.max_replayed for c in cells), default=0):10d} "
                f"{sum(c.shed for c in cells):6d}"
            )
    for cell in report.cells:
        if not cell.ok:
            print(f"FAIL {cell.mode} shards={cell.n_shards} "
                  f"frac={cell.crash_frac:g}: identical={cell.identical} "
                  f"replayed={cell.max_replayed} "
                  f"invariants_ok={cell.invariants_ok}")
    checks = sum(report.invariants.values())
    print(f"invariants: {checks} checks "
          f"({', '.join(sorted(report.invariants))})")
    verdict = "OK" if report.ok else "FAILED"
    print(f"fleet chaos matrix: {verdict} "
          f"({summary['identical_cells']}/{summary['cells']} bit-identical, "
          f"{summary['recovered']:g} recoveries, "
          f"max replay {summary['max_replayed']})")
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.fleet:
        return _cmd_fleet_chaos(args)

    from repro.online.runtime import OnlineRuntime
    from repro.robust.chaos import CHAOS_MODES, run_matrix
    from repro.robust.metrics import chaos_summary
    from repro.workload.arrivals import poisson_trace

    if args.modes == "all":
        modes = CHAOS_MODES
    else:
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    platform = get_platform(args.platform or "f746-qspi")
    runtime = OnlineRuntime(platform)
    trace = poisson_trace(args.duration, args.rate, seed=args.seed)
    report = run_matrix(
        runtime,
        trace,
        modes=modes,
        crash_stride=args.crash_stride,
        checkpoint_interval=args.checkpoint_interval,
        seed=args.seed,
        journal_dir=args.journal_dir,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    summary = chaos_summary(report)
    print(f"platform: {platform.name}")
    print(f"matrix: {report.n_decisions} decisions x {len(modes)} modes "
          f"(stride {args.crash_stride}, checkpoint every "
          f"{args.checkpoint_interval}) -> {summary['cells']} cells")
    if not args.quiet:
        print(f"{'mode':18s} {'cells':>5s} {'identical':>9s} "
              f"{'replay max':>10s} {'absorbed':>8s}")
        for mode in modes:
            cells = [c for c in report.cells if c.mode == mode]
            print(
                f"{mode:18s} {len(cells):5d} "
                f"{sum(1 for c in cells if c.identical):9d} "
                f"{max((c.decisions_replayed for c in cells), default=0):10d} "
                f"{sum(c.duplicates_absorbed for c in cells):8d}"
            )
    for cell in report.cells:
        if not cell.ok:
            print(f"FAIL {cell.mode} crash_at={cell.crash_at}: "
                  f"identical={cell.identical} "
                  f"replayed={cell.decisions_replayed} "
                  f"(checkpoint seq {cell.checkpoint_seq})")
    checks = sum(report.invariants.values())
    print(f"invariants: {checks} checks "
          f"({', '.join(sorted(report.invariants))})")
    verdict = "OK" if report.ok else "FAILED"
    print(f"chaos matrix: {verdict} "
          f"({summary['identical_cells']}/{summary['cells']} bit-identical, "
          f"max replay {summary['max_replayed']})")
    return 0 if report.ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.core import planstore
    from repro.eval.fleet import (
        FleetConfig,
        FleetService,
        decision_identity,
        fleet_trace,
    )

    if args.plan_store:
        planstore.configure(args.plan_store)
    before = obs.snapshot()
    trace = fleet_trace(
        args.devices,
        args.duration,
        args.rate,
        seed=args.seed,
        arrival=args.arrival,
    )
    crash_at = []
    for spec in args.crash_at or ():
        try:
            shard_str, index_str = spec.split(":", 1)
            crash_at.append((int(shard_str), int(index_str)))
        except ValueError:
            print(f"error: --crash-at expects SHARD:INDEX, got {spec!r}",
                  file=sys.stderr)
            return 2
    config = FleetConfig(
        n_shards=args.shards,
        batch_size=args.batch,
        max_queue_depth=args.queue_depth,
        service_us=args.service_us,
        journal_dir=args.journal_dir,
        checkpoint_interval=args.checkpoint_interval,
        crash_at=tuple(crash_at),
        timeout_ms=args.timeout_ms,
        max_retries=args.max_retries,
        backoff_ms=args.backoff_ms,
        degrade_watermark=args.degrade_watermark,
    )
    report = FleetService(config=config).run(trace)
    identity_ok: Optional[bool] = None
    if args.verify_identity:
        serial = FleetService(
            config=replace(config, n_shards=1, journal_dir=None)
        ).run(trace)
        identity_ok = decision_identity(report.decisions) == decision_identity(
            serial.decisions
        )
    ok = identity_ok is not False
    counts = dict(zip(obs.TABLE["planstore"], obs.delta_since(before)["planstore"]))
    counts["enabled"] = int(planstore.active() is not None)
    if args.json:
        payload = report.to_dict()
        if identity_ok is not None:
            payload["identity_vs_serial"] = identity_ok
        if args.plan_store:
            payload["planstore"] = counts
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    print(
        f"fleet: {report.n_devices} devices, {report.arrival} arrivals "
        f"@{args.rate:g}/device/s over {report.duration_s:g}s "
        f"-> {report.requests} requests (seed {args.seed})"
    )
    print(
        f"service: {report.n_shards} shards x batch {report.batch_size}, "
        f"{report.service_us:g}us/decision, queue depth <= {args.queue_depth}"
    )
    if not args.quiet:
        print(f"{'shard':>5s} {'decided':>8s} {'shed':>6s} {'tmout':>6s} "
              f"{'degr':>5s} {'recov':>5s} {'peak q':>7s} "
              f"{'busy s':>7s} {'journal':>8s}")
        for stats in report.shard_stats:
            print(
                f"{stats['shard']:5d} {stats['decided']:8d} "
                f"{stats['shed']:6d} {stats['timeouts']:6d} "
                f"{stats['degraded_admits']:5d} {stats['recovered']:5d} "
                f"{stats['peak_depth']:7d} "
                f"{stats['busy_s']:7.2f} {stats['journal_records']:8d}"
            )
    print(
        f"admitted {report.admitted}/{report.admit_requests} admits, "
        f"rejected {report.rejected_sram} sram / {report.rejected_rta} rta, "
        f"removed {report.removed}, shed {report.shed}"
    )
    if report.degraded_admits or report.timeout_retries or report.recovered:
        print(
            f"resilience: {report.degraded_admits} degraded admits, "
            f"{report.timeout_retries} timeout retries, "
            f"{report.recovered} shard recoveries"
        )
    queueing = report.queueing_latency_ms
    print(
        f"queueing (virtual): p50={queueing['p50']}ms p99={queueing['p99']}ms, "
        f"peak depth {report.peak_queue_depth}, "
        f"utilization {report.shard_utilization:.1%}"
    )
    latency = report.decision_latency_us
    print(
        f"engine: {report.decisions_per_s:,.0f} decisions/s "
        f"(p50={latency['p50']}us p99={latency['p99']}us) "
        f"in {report.wall_s:.2f}s wall"
    )
    if args.plan_store:
        print(
            f"plan store: {args.plan_store} "
            f"({counts['hits']} hits, {counts['misses']} misses, "
            f"{counts['writes']} writes)"
        )
    if identity_ok is not None:
        print(f"identity vs serial: {'OK' if identity_ok else 'MISMATCH'}")
    return 0 if ok else 1


def _run_exp_ids(args: argparse.Namespace, ids: List[str]) -> None:
    for exp_id in ids:
        result = run_experiment(
            exp_id, scale=args.scale, n_sets=args.n_sets, jobs=args.jobs
        )
        print(render(result))
        if args.plot and len(result.rows) >= 2:
            from repro.eval.plots import ascii_plot

            try:
                print()
                print(ascii_plot(result))
            except (TypeError, ValueError):
                pass  # non-sweep results have no meaningful plot
        print()


def _print_runtime_counters() -> None:
    """Every :mod:`repro.obs` counter and timer group, for ``--profile``."""
    print("--- runtime counters (timers in seconds) ---")
    for name, values in obs.stats().items():
        fields = " ".join(
            f"{field}={value:.3f}" if name in obs.TIMERS else f"{field}={value}"
            for field, value in values.items()
        )
        print(f"  {name}: {fields}")


def _cmd_exp(args: argparse.Namespace) -> int:
    ids = sorted(EXPERIMENTS) if args.id == "all" else [args.id.upper()]
    if not args.profile:
        _run_exp_ids(args, ids)
        return 0
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _run_exp_ids(args, ids)
    finally:
        profiler.disable()
        print("--- profile (top 25 by cumulative time) ---")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(25)
        _print_runtime_counters()
    return 0


def _typed_errors() -> tuple:
    """Exception types reported as one-line typed errors (exit code 2).

    Everything here is a *user-facing* failure — a bad trace file, a
    damaged journal, a config mismatch on restore, an invalid flag
    combination — not a bug, so the CLI prints ``error: <Type>: <msg>``
    on stderr instead of a traceback.  Imported lazily so ``rtmdm
    models`` doesn't pay for the online stack.
    """
    from repro.online.admission import CheckpointError
    from repro.online.durable import (
        InvariantViolation,
        JournalError,
        StreamError,
    )
    from repro.online.events import TraceFormatError

    return (
        TraceFormatError,
        JournalError,
        CheckpointError,
        StreamError,
        InvariantViolation,
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
        ValueError,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``rtmdm`` script)."""
    parser = argparse.ArgumentParser(
        prog="rtmdm",
        description="RT-MDM: multi-DNN real-time scheduling on MCUs (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(fn=_cmd_models)
    sub.add_parser("platforms", help="list platform presets").set_defaults(
        fn=_cmd_platforms
    )

    plan = sub.add_parser("plan", help="plan a scenario deployment")
    plan.add_argument("scenario", choices=sorted(SCENARIOS), nargs="?", default="doorbell")
    plan.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    plan.add_argument("--flash", action="store_true",
                      help="place small models in internal flash")
    plan.add_argument("--quiet", action="store_true",
                      help="suppress the per-task table; verdict only")
    plan.add_argument("--json", action="store_true",
                      help="machine-readable plan report on stdout")
    plan.set_defaults(fn=_cmd_plan)

    sim = sub.add_parser("simulate", help="plan and simulate a scenario")
    sim.add_argument("scenario", choices=sorted(SCENARIOS), nargs="?", default="doorbell")
    sim.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    sim.add_argument("--flash", action="store_true",
                     help="place small models in internal flash")
    sim.add_argument("--duration", type=float, default=None, help="seconds")
    sim.add_argument("--gantt-window", type=float, default=1.0, help="seconds shown")
    sim.add_argument("--svg", default=None, metavar="FILE",
                     help="write the schedule as an SVG")
    sim.add_argument("--json", action="store_true",
                     help="machine-readable simulation stats on stdout "
                     "(suppresses the Gantt excerpt)")
    sim.set_defaults(fn=_cmd_simulate)

    serve = sub.add_parser(
        "serve",
        help="replay a request trace through the online admission runtime",
    )
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="request trace JSON (rtmdm-trace/1); default: "
                       "generate a Poisson trace from --rate/--duration/--seed")
    serve.add_argument("--rate", type=float, default=1.0,
                       help="mean ADMIT arrival rate in requests/s "
                       "(generated trace only)")
    serve.add_argument("--duration", type=float, default=10.0,
                       help="trace horizon in seconds (generated trace only)")
    serve.add_argument("--seed", type=int, default=1,
                       help="trace RNG seed (generated trace only)")
    serve.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    serve.add_argument("--sram", type=int, default=None, metavar="KIB",
                       help="override the platform's SRAM size")
    serve.add_argument("--protocol", choices=("auto", "immediate", "drain"),
                       default="auto", help="mode-change protocol")
    serve.add_argument("--no-sim", action="store_true",
                       help="decisions only; skip the fault-free execution")
    serve.add_argument("--journal", default=None, metavar="FILE",
                       help="write-ahead decision journal "
                       "(rtmdm-journal/1); enables crash-tolerant serving")
    serve.add_argument("--checkpoint-interval", type=int, default=16,
                       dest="checkpoint_interval", metavar="N",
                       help="checkpoint controller state every N decisions "
                       "(journaled serving only; default: 16)")
    serve.add_argument("--restore", action="store_true",
                       help="recover controller state from --journal "
                       "(checkpoint + suffix replay) before serving")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the per-decision log; summary only")
    serve.add_argument("--json", action="store_true",
                       help="machine-readable event log on stdout")
    serve.set_defaults(fn=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="crash/chaos-injection matrix over the durable serving layer",
    )
    chaos.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    chaos.add_argument("--rate", type=float, default=1.5,
                       help="mean ADMIT arrival rate in requests/s")
    chaos.add_argument("--duration", type=float, default=5.0,
                       help="trace horizon in seconds")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--modes", default="all",
                       help="comma-separated perturbation modes, or 'all' "
                       "(none, duplicate, reorder, drop, skew, "
                       "truncate-journal, corrupt-journal)")
    chaos.add_argument("--crash-stride", type=int, default=1,
                       dest="crash_stride", metavar="K",
                       help="crash at every K-th decision index (1 = all)")
    chaos.add_argument("--checkpoint-interval", type=int, default=8,
                       dest="checkpoint_interval", metavar="N")
    chaos.add_argument("--journal-dir", default=None, dest="journal_dir",
                       metavar="DIR", help="keep per-cell journals here "
                       "(default: fresh temp dir)")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress the per-mode table; verdict only")
    chaos.add_argument("--json", action="store_true",
                       help="machine-readable matrix report on stdout "
                       "(schema rtmdm-chaos/1; rtmdm-fleet-chaos/1 with "
                       "--fleet)")
    chaos.add_argument("--fleet", action="store_true",
                       help="run the fleet crash/recovery matrix "
                       "(crash-point x shard-count x perturbation) "
                       "instead of the single-controller matrix")
    chaos.add_argument("--devices", type=int, default=24,
                       help="fleet size for --fleet (default: 24)")
    chaos.add_argument("--shard-counts", default="1,2,4",
                       dest="shard_counts", metavar="N,N,...",
                       help="comma-separated shard counts for --fleet "
                       "(default: 1,2,4)")
    chaos.set_defaults(fn=_cmd_chaos)

    fleet = sub.add_parser(
        "fleet",
        help="simulate a device fleet against the sharded admission service",
    )
    fleet.add_argument("--devices", type=int, default=10_000,
                       help="fleet size (default: 10000)")
    fleet.add_argument("--shards", type=int, default=4,
                       help="admission shards (default: 4)")
    fleet.add_argument("--batch", type=int, default=64,
                       help="max decisions drained per shard batch")
    fleet.add_argument("--queue-depth", type=int, default=100_000,
                       dest="queue_depth", metavar="N",
                       help="per-shard queue bound; arrivals beyond it "
                       "are shed (default: 100000)")
    fleet.add_argument("--duration", type=float, default=3.0,
                       help="virtual trace horizon in seconds")
    fleet.add_argument("--rate", type=float, default=0.35,
                       help="mean ADMIT arrival rate per device in "
                       "requests/s (default: 0.35)")
    fleet.add_argument("--arrival", choices=("poisson", "bursty"),
                       default="poisson", help="arrival process")
    fleet.add_argument("--seed", type=int, default=1)
    fleet.add_argument("--service-us", type=float, default=150.0,
                       dest="service_us", metavar="US",
                       help="virtual per-decision service time "
                       "(default: 150)")
    fleet.add_argument("--journal-dir", default=None, dest="journal_dir",
                       metavar="DIR",
                       help="write per-shard decision journals here "
                       "(open-or-create: an existing journal is recovered "
                       "and appended to, never clobbered)")
    fleet.add_argument("--checkpoint-interval", type=int, default=64,
                       dest="checkpoint_interval", metavar="N",
                       help="checkpoint a shard after N journaled "
                       "decisions (bounds crash-replay; default: 64)")
    fleet.add_argument("--crash-at", action="append", default=None,
                       dest="crash_at", metavar="SHARD:INDEX",
                       help="crash shard SHARD before its INDEX-th "
                       "decision commits, then recover from its journal "
                       "(repeatable; requires --journal-dir)")
    fleet.add_argument("--timeout-ms", type=float, default=None,
                       dest="timeout_ms", metavar="MS",
                       help="virtual decision deadline: a request queued "
                       "longer gets a TIMEOUT record and an "
                       "exponential-backoff retry")
    fleet.add_argument("--max-retries", type=int, default=3,
                       dest="max_retries", metavar="K",
                       help="timeout retries before deciding "
                       "unconditionally (default: 3)")
    fleet.add_argument("--backoff-ms", type=float, default=2.0,
                       dest="backoff_ms", metavar="MS",
                       help="base retry backoff, doubling per attempt "
                       "(default: 2)")
    fleet.add_argument("--degrade-watermark", type=int, default=None,
                       dest="degrade_watermark", metavar="D",
                       help="queue depth at which incoming admits take "
                       "the degrade ladder (rate-stretch, then smaller "
                       "variant) before any shedding")
    fleet.add_argument("--plan-store", default=None, dest="plan_store",
                       metavar="DIR",
                       help="persistent content-addressed plan store "
                       "(created if missing; also via REPRO_PLAN_STORE)")
    fleet.add_argument("--verify-identity", action="store_true",
                       dest="verify_identity",
                       help="re-run the trace on 1 shard and require "
                       "bit-identical decisions (exit 1 on mismatch)")
    fleet.add_argument("--quiet", action="store_true",
                       help="suppress the per-shard table")
    fleet.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout "
                       "(schema rtmdm-fleet/1)")
    fleet.set_defaults(fn=_cmd_fleet)

    energy = sub.add_parser("energy", help="energy budget of a scenario")
    energy.add_argument("scenario", choices=sorted(SCENARIOS), nargs="?",
                        default="doorbell")
    energy.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    energy.add_argument("--flash", action="store_true",
                        help="place small models in internal flash")
    energy.add_argument("--duration", type=float, default=None, help="seconds")
    energy.set_defaults(fn=_cmd_energy)

    val = sub.add_parser("validate", help="analysis-vs-simulation self-test")
    val.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    val.add_argument("--cases", type=int, default=20)
    val.add_argument("--phasings", type=int, default=3)
    val.add_argument("--seed", type=int, default=1)
    val.set_defaults(fn=_cmd_validate)

    inspect = sub.add_parser("inspect", help="per-layer report for one model")
    inspect.add_argument("model", choices=list_models())
    inspect.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    inspect.add_argument("--budget", type=int, default=None, metavar="KIB",
                         help="SRAM budget for the segmentation preview")
    inspect.set_defaults(fn=_cmd_inspect)

    robust = sub.add_parser(
        "robust", help="fault-injected scenario simulation per overload policy"
    )
    robust.add_argument("scenario", choices=sorted(SCENARIOS), nargs="?",
                        default="doorbell")
    robust.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    robust.add_argument("--flash", action="store_true",
                        help="place small models in internal flash")
    robust.add_argument("--duration", type=float, default=None, help="seconds")
    robust.add_argument("--inflation", type=float, default=1.5,
                        help="WCET inflation factor (>= 1)")
    robust.add_argument("--inflation-model", choices=("fixed", "uniform", "spike"),
                        default="fixed", help="how per-burst factors are drawn")
    robust.add_argument("--spike-prob", type=float, default=0.05,
                        help="per-burst spike probability (spike model)")
    robust.add_argument("--dma-fault-prob", type=float, default=0.02,
                        help="per-transfer CRC failure probability")
    robust.add_argument("--jitter", type=int, default=0, metavar="CYCLES",
                        help="max additive bus-contention jitter per transfer")
    robust.add_argument("--degrade-factor", type=float, default=0.5,
                        help="fallback variant scale for the DEGRADE policy")
    robust.add_argument("--seed", type=int, default=1)
    robust.set_defaults(fn=_cmd_robust)

    recover = sub.add_parser(
        "recover",
        help="persistent-fault simulation of a scenario per recovery ladder",
    )
    recover.add_argument("scenario", choices=sorted(SCENARIOS), nargs="?",
                         default="doorbell")
    recover.add_argument("--platform", choices=sorted(PLATFORMS), default=None)
    recover.add_argument("--flash", action="store_true",
                         help="place small models in internal flash")
    recover.add_argument("--duration", type=float, default=None, help="seconds")
    recover.add_argument("--bad-frac", type=float, default=0.25,
                         dest="bad_frac",
                         help="fraction of the flash layout that is "
                         "permanently bad (CRC always fails)")
    recover.add_argument("--mirror-bad", action="store_true", dest="mirror_bad",
                         help="mirror copies share the bad region, forcing "
                         "escalation past REMAP")
    recover.add_argument("--crc-fault-prob", type=float, default=0.0,
                         dest="crc_fault_prob",
                         help="additional transient per-attempt CRC failure "
                         "probability")
    recover.add_argument("--retries", type=int, default=3,
                         help="retry budget per transfer before escalation")
    recover.add_argument("--protocol",
                         choices=(*LADDERS, "all"), default="all",
                         help="recovery ladder to simulate (default: all)")
    recover.add_argument("--seed", type=int, default=1)
    recover.add_argument("--quiet", action="store_true",
                         help="suppress the per-ladder table; verdict only")
    recover.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout "
                         "(schema rtmdm-recover/1)")
    recover.set_defaults(fn=_cmd_recover)

    exp = sub.add_parser("exp", help="run a reconstructed experiment")
    exp.add_argument("id", help="experiment id (e.g. EXP-F4) or 'all'")
    exp.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every experiment's sample count (task-set draws, "
        "Monte-Carlo phasings) by this factor; <1 for quick smoke runs, "
        ">1 for tighter confidence intervals (default: 1.0)",
    )
    exp.add_argument(
        "--n-sets", type=int, default=None, dest="n_sets",
        help="override the number of task sets drawn per sweep point "
        "(before --scale is applied); default: per-experiment",
    )
    exp.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for parallel experiments (default: "
        "REPRO_JOBS env var, else 1 = serial); results are bit-identical "
        "at any worker count",
    )
    exp.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top 25 functions by "
        "cumulative time",
    )
    exp.add_argument("--plot", action="store_true", help="ASCII chart for sweeps")
    exp.set_defaults(fn=_cmd_exp)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _typed_errors() as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
