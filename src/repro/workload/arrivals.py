"""Stochastic request-trace generation for the online runtime.

Arrivals follow either a Poisson process (exponential inter-arrival
times — the standard open-workload model for independent deployment
requests) or an on-off Markov-modulated Poisson process
(:func:`bursty_trace`) that alternates exponential ON/OFF phases with
the ON rate inflated by a burst factor, modelling correlated deployment
storms at an unchanged mean rate.  Each arriving task draws a model from
the pool, a period from a small discrete ladder (discrete on purpose:
recurring periods let repeated admissions share plan-cache entries), and
an exponential lifetime after which it departs; some tasks additionally
rescale once mid-life.

Generation is exactly reproducible from ``seed`` (plain
:class:`random.Random`, stable across supported Python versions) and
never consults the platform — the same trace can be replayed against
different SRAM budgets, which is what the EXP-D1 sweep does.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.online.events import Request, RequestKind, RequestTrace
from repro.workload.taskset import DEFAULT_MODEL_POOL

#: Discrete request-period ladder in seconds.  Spans comfortably
#: admissible (pool latencies are ~1-170 ms on the default platform) to
#: clearly overloading, so sweeps exercise full admissions, degraded
#: admissions and both rejection kinds.
DEFAULT_PERIOD_LADDER_S: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.8)

#: Rescale factors (applied to the running period; < 1 = faster rate).
DEFAULT_RESCALE_FACTORS: Tuple[float, ...] = (0.5, 1.5, 2.0)


def require_finite_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0.

    Every generator here loops until a running arrival time passes the
    horizon: a NaN horizon or rate never ends that loop (``t >= nan`` is
    always false), nor does an infinite rate (each draw adds 0.0), and
    an infinite lifetime mean reaches ``expovariate(0.0)``.
    """
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _task_requests(
    rng: random.Random,
    task: str,
    time_s: float,
    duration_s: float,
    model_pool: Sequence[str],
    period_ladder_s: Sequence[float],
    mean_lifetime_s: float,
    rescale_prob: float,
) -> List[Request]:
    """The lifecycle requests of one arriving task (shared draw order).

    Draws, in order: model, period, lifetime, rescale coin (then rescale
    point and factor) — exactly the sequence :func:`poisson_trace` has
    always used, so extracting this helper keeps existing traces
    byte-identical.
    """
    model = rng.choice(list(model_pool))
    period_s = rng.choice(list(period_ladder_s))
    requests = [
        Request(
            time_s=time_s,
            kind=RequestKind.ADMIT,
            task=task,
            model=model,
            period_s=period_s,
        )
    ]
    lifetime_s = rng.expovariate(1.0 / mean_lifetime_s)
    end_s = time_s + lifetime_s
    in_horizon_end = min(end_s, duration_s)
    if rng.random() < rescale_prob and in_horizon_end - time_s > 1e-6:
        at_s = time_s + rng.random() * (in_horizon_end - time_s)
        factor = rng.choice(list(DEFAULT_RESCALE_FACTORS))
        requests.append(
            Request(
                time_s=at_s,
                kind=RequestKind.RESCALE,
                task=task,
                period_s=period_s * factor,
            )
        )
    if end_s < duration_s:
        requests.append(Request(time_s=end_s, kind=RequestKind.REMOVE, task=task))
    return requests


def poisson_arrival_times(
    duration_s: float, rate_hz: float, rng: random.Random
) -> List[float]:
    """Poisson arrival instants on ``[0, duration_s)`` (rate ``rate_hz``)."""
    times = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_hz)
        if t >= duration_s:
            return times
        times.append(t)


def bursty_arrival_times(
    duration_s: float,
    rate_hz: float,
    rng: random.Random,
    burst_factor: float = 4.0,
    duty: float = 0.25,
    mean_cycle_s: float = 2.0,
) -> List[float]:
    """On-off MMPP arrival instants at mean rate ``rate_hz``.

    The process alternates exponential ON phases (mean ``duty *
    mean_cycle_s``, rate ``rate_hz * burst_factor``) and OFF phases
    (mean ``(1 - duty) * mean_cycle_s``) whose rate is solved so the
    long-run mean stays ``rate_hz``.  Phases start ON.  Restarting the
    inter-arrival draw at each phase boundary is exact for a
    piecewise-constant-rate Poisson process (memorylessness), so no
    thinning is needed.
    """
    if not 1.0 <= burst_factor < math.inf:
        raise ValueError(
            f"burst_factor must be finite and >= 1, got {burst_factor}"
        )
    if not 0.0 < duty < 1.0:
        raise ValueError(f"duty must be in (0, 1), got {duty}")
    if burst_factor * duty > 1.0:
        raise ValueError(
            f"burst_factor * duty must be <= 1 (OFF rate would be negative), "
            f"got {burst_factor} * {duty}"
        )
    require_finite_positive("mean_cycle_s", mean_cycle_s)
    on_rate = rate_hz * burst_factor
    off_rate = rate_hz * (1.0 - duty * burst_factor) / (1.0 - duty)
    on_mean = duty * mean_cycle_s
    off_mean = (1.0 - duty) * mean_cycle_s
    times: List[float] = []
    t = 0.0
    on = True
    while t < duration_s:
        phase_end = min(
            duration_s, t + rng.expovariate(1.0 / (on_mean if on else off_mean))
        )
        rate = on_rate if on else off_rate
        if rate > 0:
            at = t
            while True:
                at += rng.expovariate(rate)
                if at >= phase_end:
                    break
                times.append(at)
        t = phase_end
        on = not on
    return times


def poisson_trace(
    duration_s: float,
    rate_hz: float,
    seed: int,
    model_pool: Sequence[str] = DEFAULT_MODEL_POOL,
    period_ladder_s: Sequence[float] = DEFAULT_PERIOD_LADDER_S,
    mean_lifetime_s: float = 6.0,
    rescale_prob: float = 0.2,
) -> RequestTrace:
    """Draw one request trace.

    Args:
        duration_s: Trace horizon in seconds.
        rate_hz: Mean ADMIT arrival rate (Poisson).
        seed: RNG seed; traces are a pure function of all arguments.
        model_pool: Zoo names to draw from (with replacement).
        period_ladder_s: Candidate request periods (uniform choice).
        mean_lifetime_s: Mean of the exponential task lifetime; REMOVE
            events past the horizon are dropped (the task runs out the
            trace).
        rescale_prob: Probability a task issues one RESCALE at a uniform
            point within its (in-horizon) lifetime.
    """
    require_finite_positive("duration_s", duration_s)
    require_finite_positive("rate_hz", rate_hz)
    require_finite_positive("mean_lifetime_s", mean_lifetime_s)
    if not 0.0 <= rescale_prob <= 1.0:
        raise ValueError(f"rescale_prob must be in [0, 1], got {rescale_prob}")
    if not model_pool or not period_ladder_s:
        raise ValueError("model_pool and period_ladder_s must be non-empty")
    rng = random.Random(seed)
    requests = []
    time_s = 0.0
    index = 0
    while True:
        time_s += rng.expovariate(rate_hz)
        if time_s >= duration_s:
            break
        # Interleaving the arrival draw with the task-block draws is the
        # historical order; bit-identical traces depend on it.
        requests.extend(
            _task_requests(
                rng, f"req{index}", time_s, duration_s, model_pool,
                period_ladder_s, mean_lifetime_s, rescale_prob,
            )
        )
        index += 1
    return RequestTrace.of(requests, duration_s)


def bursty_trace(
    duration_s: float,
    rate_hz: float,
    seed: int,
    model_pool: Sequence[str] = DEFAULT_MODEL_POOL,
    period_ladder_s: Sequence[float] = DEFAULT_PERIOD_LADDER_S,
    mean_lifetime_s: float = 6.0,
    rescale_prob: float = 0.2,
    burst_factor: float = 4.0,
    duty: float = 0.25,
    mean_cycle_s: float = 2.0,
) -> RequestTrace:
    """Draw one bursty (on-off MMPP) request trace.

    Same task-lifecycle model as :func:`poisson_trace`, but arrivals
    cluster into storms: ON phases run at ``rate_hz * burst_factor``
    for a ``duty`` fraction of an exponential ON/OFF cycle of mean
    ``mean_cycle_s`` seconds, with the OFF rate solved so the long-run
    mean rate is still ``rate_hz``.  All arrival instants are drawn
    first, then each arrival's task block, so the trace is a pure
    function of the arguments (seed-deterministic) and round-trips
    through the standard ``rtmdm-trace/1`` JSON form.
    """
    require_finite_positive("duration_s", duration_s)
    require_finite_positive("rate_hz", rate_hz)
    require_finite_positive("mean_lifetime_s", mean_lifetime_s)
    if not 0.0 <= rescale_prob <= 1.0:
        raise ValueError(f"rescale_prob must be in [0, 1], got {rescale_prob}")
    if not model_pool or not period_ladder_s:
        raise ValueError("model_pool and period_ladder_s must be non-empty")
    rng = random.Random(seed)
    arrivals = bursty_arrival_times(
        duration_s, rate_hz, rng, burst_factor, duty, mean_cycle_s
    )
    requests = []
    for index, time_s in enumerate(arrivals):
        requests.extend(
            _task_requests(
                rng, f"req{index}", time_s, duration_s, model_pool,
                period_ladder_s, mean_lifetime_s, rescale_prob,
            )
        )
    return RequestTrace.of(requests, duration_s)
