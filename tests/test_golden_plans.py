"""Golden RT-MDM plans: every scenario's plan and short simulation.

``tests/golden/plan/`` pins ``rtmdm plan <scenario> --json`` and
``rtmdm simulate <scenario> --json --duration 1``, with and without
``--flash``, for all scenarios: per-task budgets (``sram_kib``), segment
counts, bounds and simulated worst cases.  A change to the framework's
budgeting, granularity or segmentation policy shows up here as a diff.
Regenerate with ``PYTHONPATH=src python tests/golden/regen.py`` only when
the change is intended.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "regen.py")
_spec = importlib.util.spec_from_file_location("golden_regen", _PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _read(name: str) -> str:
    with open(os.path.join(regen.PLAN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def rendered():
    return regen.render_all()


def test_golden_set_is_complete():
    names = {name for name, _ in regen.commands()}
    on_disk = set(os.listdir(regen.PLAN_DIR)) - {regen.EXIT_CODES}
    assert on_disk == names
    assert len(names) == 4 * len(regen.SCENARIOS)


@pytest.mark.parametrize("name", [name for name, _ in regen.commands()])
def test_output_matches_golden(rendered, name):
    outputs, codes = rendered
    assert outputs[name] == _read(name)
    assert codes[name] == json.loads(_read(regen.EXIT_CODES))[name]
