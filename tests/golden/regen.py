"""Rewrite the golden outputs under ``tests/golden/``.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

Three sets, each diffed against a fresh render by its own test:

* ``plan/`` — ``rtmdm plan <scenario> --json`` and ``rtmdm simulate
  <scenario> --json --duration 1``, each with and without ``--flash``,
  for every scenario (``tests/test_golden_plans.py``);
* ``cli/`` — the fault, recovery, chaos and inspect subcommands at
  small arguments (``tests/test_golden_cli.py``);
* ``exp/`` — every experiment driver's ``title``, ``columns``, ``rows``
  and ``notes`` at the tiny arguments of :data:`EXP_KWARGS`, run
  serially from a cold plan cache (``tests/test_golden_experiments.py``).
  ``meta`` is left out: it holds wall-clock measurements.

Commands run in-process through :func:`repro.cli.main`; each stdout goes
to ``<set>/<name>`` and each exit code to ``<set>/exit_codes.json``.
Only regenerate when a change to these outputs is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from typing import Dict, List, Tuple

from repro import cli
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.workload.scenarios import SCENARIOS

HERE = os.path.dirname(os.path.abspath(__file__))
PLAN_DIR = os.path.join(HERE, "plan")
CLI_DIR = os.path.join(HERE, "cli")
EXP_DIR = os.path.join(HERE, "exp")
EXIT_CODES = "exit_codes.json"

#: Replaced by a fresh temporary directory in every rendered argv.
JOURNAL_DIR = "{journal_dir}"

#: Tiny per-driver arguments.  Chosen so the columns that share library
#: code carry real values: EXP-R1 misses under every policy, EXP-R2
#: recovers, EXP-R3 replays, EXP-S3's shed-only row sheds and its crash
#: row crashes, and EXP-F12/F15 miss in simulation.
EXP_KWARGS: Dict[str, Dict] = {
    "EXP-T1": {},
    "EXP-T2": {},
    "EXP-F3": {},
    "EXP-F4": dict(n_sets=4, utils=(0.3, 0.6)),
    "EXP-F5": dict(n_sets=4, sram_kib=(128, 320), util=0.3),
    "EXP-F6": dict(n_sets=4, factors=(0.5, 4.0)),
    "EXP-F7": dict(n_sets=2, n_phasings=2, utils=(0.5, 0.9)),
    "EXP-F8": dict(n_sets=3, utils=(0.3, 0.4)),
    "EXP-T3": {},
    "EXP-F9": {},
    "EXP-F10": dict(n_sets=2, utils=(0.5,)),
    "EXP-F11": dict(n_sets=4),
    "EXP-F12": dict(n_sets=4, utils=(0.8,)),
    "EXP-F13": dict(n_sets=4, utils=(0.5,)),
    "EXP-F14": {},
    "EXP-F15": dict(n_sets=2, utils=(0.8,)),
    "EXP-R1": dict(n_sets=3, inflations=(2.0,)),
    "EXP-D1": dict(n_traces=2, rates_hz=(1.5,), sram_kib=(192,), duration_s=8.0),
    "EXP-R2": dict(n_sets=2, bad_fracs=(0.0, 0.2), retry_budgets=(1,)),
    "EXP-R3": dict(checkpoint_intervals=(4,), n_crash_points=3, duration_s=4.0),
    "EXP-F16": dict(n_sets=2, utils=(0.5,), hyperperiods=8),
    "EXP-F17": dict(n_sets=8, tasks_per_set=4),
    "EXP-F18": dict(n_sets=4, hyperperiods=4),
    "EXP-S1": dict(
        devices=200, shard_counts=(1, 2), fleet_sizes=(200,), duration_s=1.0
    ),
    "EXP-S2": dict(sram_kib=(192,), deadlines_ms=(50.0,), scale=0.1),
    "EXP-S3": dict(devices=24, rates_hz=(20.0,), duration_s=1.0, service_us=1500.0),
}


def commands() -> List[Tuple[str, List[str]]]:
    """``(file name, argv)`` of every golden plan command."""
    out = []
    for scenario in sorted(SCENARIOS):
        for flash in (False, True):
            suffix = "-flash" if flash else ""
            extra = ["--flash"] if flash else []
            out.append((f"plan-{scenario}{suffix}.json",
                        ["plan", scenario, "--json", *extra]))
            out.append((f"simulate-{scenario}{suffix}.json",
                        ["simulate", scenario, "--json", "--duration", "1", *extra]))
    return out


def cli_commands() -> List[Tuple[str, List[str]]]:
    """``(file name, argv)`` of every golden fault/recovery/chaos command."""
    return [
        ("robust-drone.txt", ["robust", "drone", "--inflation", "3.5",
                              "--dma-fault-prob", "0.05", "--jitter", "50"]),
        ("recover-doorbell.json", ["recover", "doorbell", "--json",
                                   "--bad-frac", "0.2"]),
        ("recover-drone.txt", ["recover", "drone", "--bad-frac", "0.2"]),
        ("chaos.json", ["chaos", "--json", "--duration", "3",
                        "--crash-stride", "4", "--journal-dir", JOURNAL_DIR]),
        ("chaos-fleet.json", ["chaos", "--fleet", "--json", "--devices", "8",
                              "--shard-counts", "1,2",
                              "--journal-dir", JOURNAL_DIR]),
        ("inspect-ds-cnn.txt", ["inspect", "ds-cnn"]),
        ("inspect-mobilenet-v1-0.25.txt", ["inspect", "mobilenet-v1-0.25",
                                           "--budget", "96"]),
    ]


def render(argv: List[str]) -> Tuple[int, str]:
    """Exit code and stdout of one in-process CLI run."""
    buf = io.StringIO()
    with tempfile.TemporaryDirectory(prefix="rtmdm-golden-") as tmp:
        with contextlib.redirect_stdout(buf):
            code = cli.main([tmp if arg == JOURNAL_DIR else arg for arg in argv])
    return code, buf.getvalue()


def _render_each(cmds) -> Tuple[Dict[str, str], Dict[str, int]]:
    outputs, codes = {}, {}
    for name, argv in cmds:
        codes[name], outputs[name] = render(argv)
    return outputs, codes


def render_all() -> Tuple[Dict[str, str], Dict[str, int]]:
    """Stdout and exit code of every golden plan command, by file name."""
    return _render_each(commands())


def render_cli_all() -> Tuple[Dict[str, str], Dict[str, int]]:
    """Stdout and exit code of every golden CLI command, by file name."""
    return _render_each(cli_commands())


def exp_text(exp_id: str) -> str:
    """One driver's deterministic output at its tiny arguments, as JSON."""
    result = run_experiment(exp_id, jobs=1, **EXP_KWARGS[exp_id])
    payload = {
        "title": result.title,
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
    }
    return json.dumps(payload, indent=1) + "\n"


def _write(directory: str, outputs: Dict[str, str]) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, text in outputs.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_codes(directory: str, codes: Dict[str, int]) -> None:
    with open(os.path.join(directory, EXIT_CODES), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    for directory, (outputs, codes) in (
        (PLAN_DIR, render_all()),
        (CLI_DIR, render_cli_all()),
    ):
        _write(directory, outputs)
        _write_codes(directory, codes)
        print(f"wrote {len(outputs)} golden outputs to {directory}")
    exp = {f"{exp_id}.json": exp_text(exp_id) for exp_id in sorted(EXPERIMENTS)}
    _write(EXP_DIR, exp)
    print(f"wrote {len(exp)} golden experiments to {EXP_DIR}")


if __name__ == "__main__":
    main()
