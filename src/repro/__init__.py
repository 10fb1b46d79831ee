"""RT-MDM: real-time scheduling for multi-DNN inference on MCUs with
external memory — a from-scratch reproduction (DAC 2024).

The public API in one breath::

    from repro import RtMdm, build_model, get_platform

    rt = RtMdm(get_platform("f746-qspi"))
    rt.add_task("kws", build_model("ds-cnn"), period_s=0.200)
    rt.add_task("vww", build_model("mobilenet-v1-0.25"), period_s=1.000)
    config = rt.configure()          # segment, plan SRAM, assign priorities
    assert config.admitted           # offline schedulability guarantee
    result = config.simulate()       # discrete-event validation
    assert result.no_misses

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.hw` — MCU / external memory / DMA / timing models.
* :mod:`repro.dnn` — layer algebra, model zoo, quantization, splitting.
* :mod:`repro.sched` — segmented task model, two-resource simulator, RTA.
* :mod:`repro.core` — RT-MDM: segmentation, buffers, analyses, framework.
* :mod:`repro.baselines` — sequential / single-buffer / NP-whole / XIP.
* :mod:`repro.workload` — synthetic task sets and named scenarios.
* :mod:`repro.eval` — experiment drivers for every table and figure.
"""

from repro.core.framework import Configuration, RtMdm, TaskSpec
from repro.dnn.quantization import FLOAT32, INT8
from repro.dnn.zoo import build_model, list_models
from repro.hw.presets import get_platform

_NUMPY_FLOOR = (1, 22)


def _require_numpy() -> None:
    """Fail fast, with a clear message, when numpy is absent or too old.

    The vectorized RTA engine (:mod:`repro.sched.vecrta`) needs numpy's
    exact int64 array semantics, introduced well before 1.22, and the
    struct-of-arrays simulator (:mod:`repro.sched.simcore`) keeps its
    response buffers in numpy arrays; the floor simply pins the oldest
    version both are tested against.  Both import numpy unconditionally,
    so analysis and simulation results never depend on which optional
    packages happen to be importable.
    """
    floor = ".".join(str(part) for part in _NUMPY_FLOOR)
    try:
        import numpy
    except ImportError as exc:
        raise ImportError(
            f"repro requires numpy >= {floor} for the vectorized RTA engine "
            "(repro.sched.vecrta); install it with "
            f"`pip install 'numpy>={floor}'`."
        ) from exc
    try:
        version = tuple(
            int(part) for part in numpy.__version__.split(".")[:2]
        )
    except ValueError:  # pre-release or development version strings
        return
    if version < _NUMPY_FLOOR:
        raise ImportError(
            f"repro requires numpy >= {floor}, found {numpy.__version__}; "
            f"upgrade with `pip install 'numpy>={floor}'`."
        )


_require_numpy()

__version__ = "0.1.0"

__all__ = [
    "RtMdm",
    "Configuration",
    "TaskSpec",
    "build_model",
    "list_models",
    "get_platform",
    "INT8",
    "FLOAT32",
    "__version__",
]
