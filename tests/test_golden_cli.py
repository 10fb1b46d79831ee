"""Golden CLI outputs of the fault, recovery, chaos and inspect commands.

``tests/golden/cli/`` pins ``rtmdm robust`` (a scenario that misses
under some policy), ``rtmdm recover`` (JSON and text), a reduced
``rtmdm chaos --json`` and ``rtmdm chaos --fleet --json``, and ``rtmdm
inspect`` for two models, with their exit codes.  These commands share
the overrun-policy sweep, the recovery-ladder sweep, the crash cell and
the single-model plan with the experiment drivers.  Regenerate with
``PYTHONPATH=src python tests/golden/regen.py`` only when a change to the
outputs is intended.
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
    with open(os.path.join(regen.CLI_DIR, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def rendered():
    return regen.render_cli_all()


def test_golden_set_is_complete():
    names = {name for name, _ in regen.cli_commands()}
    assert set(os.listdir(regen.CLI_DIR)) - {regen.EXIT_CODES} == names


@pytest.mark.parametrize("name", [name for name, _ in regen.cli_commands()])
def test_output_matches_golden(rendered, name):
    outputs, codes = rendered
    assert outputs[name] == _read(name)
    assert codes[name] == json.loads(_read(regen.EXIT_CODES))[name]
