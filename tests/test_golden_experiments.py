"""Golden experiment rows: every driver's table at tiny arguments.

``tests/golden/exp/<EXP-ID>.json`` pins each driver's ``title``,
``columns``, ``rows`` and ``notes`` (with its plan-cache hit/miss
counts) at the arguments of ``regen.EXP_KWARGS``, run serially from a
cold plan cache.  A refactor of the drivers or of the library code they
share must leave every file unchanged.  Regenerate with
``PYTHONPATH=src python tests/golden/regen.py`` only when a change to the
tables is intended.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "regen.py")
_spec = importlib.util.spec_from_file_location("golden_regen", _PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_golden_set_is_complete():
    assert set(regen.EXP_KWARGS) == set(regen.EXPERIMENTS)
    on_disk = set(os.listdir(regen.EXP_DIR))
    assert on_disk == {f"{exp_id}.json" for exp_id in regen.EXPERIMENTS}


@pytest.mark.parametrize("exp_id", sorted(regen.EXP_KWARGS))
def test_rows_match_golden(exp_id):
    with open(os.path.join(regen.EXP_DIR, f"{exp_id}.json"), encoding="utf-8") as fh:
        assert regen.exp_text(exp_id) == fh.read()
