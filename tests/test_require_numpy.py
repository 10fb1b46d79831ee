"""The import-time numpy guard, :func:`repro._require_numpy`.

numpy is a declared dependency and the analysis and simulation engines
import it unconditionally, so ``import repro`` must fail fast with a
clear message when numpy is missing or older than the tested floor,
instead of failing later inside an engine.
"""

from __future__ import annotations

import sys
import types

import pytest

import repro


def test_missing_numpy_names_the_requirement(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # import raises ImportError
    with pytest.raises(ImportError, match=r"requires numpy >= 1\.22") as info:
        repro._require_numpy()
    assert isinstance(info.value.__cause__, ImportError)


def test_old_numpy_reports_the_version_found(monkeypatch):
    monkeypatch.setitem(
        sys.modules, "numpy", types.SimpleNamespace(__version__="1.21.6")
    )
    with pytest.raises(ImportError, match=r"numpy >= 1\.22, found 1\.21\.6"):
        repro._require_numpy()


@pytest.mark.parametrize("version", ["1.22.0", "2.0.0rc1", "dev.build"])
def test_supported_or_unparsed_version_passes(monkeypatch, version):
    monkeypatch.setitem(
        sys.modules, "numpy", types.SimpleNamespace(__version__=version)
    )
    assert repro._require_numpy() is None
