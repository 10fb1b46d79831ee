"""Rewrite the golden RT-MDM plans under ``tests/golden/plan/``.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

Runs ``rtmdm plan <scenario> --json`` and ``rtmdm simulate <scenario>
--json --duration 1``, each with and without ``--flash``, for every
scenario, in-process through :func:`repro.cli.main`.  Each command's
stdout goes to ``plan/<command>-<scenario>[-flash].json`` and its exit
code to ``plan/exit_codes.json``; ``tests/test_golden_plans.py`` diffs a
fresh render against these files.  Only regenerate when a change to the
plans is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Dict, List, Tuple

from repro import cli
from repro.workload.scenarios import SCENARIOS

HERE = os.path.dirname(os.path.abspath(__file__))
PLAN_DIR = os.path.join(HERE, "plan")
EXIT_CODES = "exit_codes.json"


def commands() -> List[Tuple[str, List[str]]]:
    """``(file name, argv)`` of every golden command."""
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


def render(argv: List[str]) -> Tuple[int, str]:
    """Exit code and stdout of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def render_all() -> Tuple[Dict[str, str], Dict[str, int]]:
    """Stdout and exit code of every golden command, by file name."""
    outputs, codes = {}, {}
    for name, argv in commands():
        codes[name], outputs[name] = render(argv)
    return outputs, codes


def main() -> None:
    outputs, codes = render_all()
    os.makedirs(PLAN_DIR, exist_ok=True)
    for name, text in outputs.items():
        with open(os.path.join(PLAN_DIR, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(PLAN_DIR, EXIT_CODES), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} golden outputs to {PLAN_DIR}")


if __name__ == "__main__":
    main()
