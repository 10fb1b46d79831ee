"""Vectorized response-time analysis: numpy-batched fixpoint iteration.

The scalar analysis in :mod:`repro.core.analysis` solves one fixpoint
at a time; a sweep solves hundreds of thousands.  This module packs
*many* fixpoint problems into struct-of-arrays (SoA) buffers and
iterates the recurrences for all of them simultaneously per array step,
with a per-row convergence mask.

Layout
    A :class:`ChainBatch` holds jitter-chained analysis cascades — one
    chain per (task set, analysis flavor).  Rows at the same priority
    *level* share their interferer count, so each level is one dense
    ``(rows, level)`` problem: interference ``I``, periods ``T``, and
    chained jitters ``J`` as ``int64`` matrices, plus ``base = own +
    blocking`` and ``cap`` vectors.  The solver iterates

        ``w <- base + sum_j ceil((w + J_j) / T_j) * I_j``

    over the whole matrix, masking out rows that converged (``demand ==
    w``) or exceeded their cap (``demand > cap`` → the scalar's ``None``
    verdict).  Level ``k + 1`` packs only the chains still alive, with
    jitters chained from level ``k``'s bounds exactly as the scalar does.

Exactness
    The solver mirrors ``core.analysis._fixpoint``: pure ``int64``
    arithmetic with integer ceil division ``-((w + J) // -T)`` — no
    float drift.

Stand-down
    The engine refuses problems it cannot solve exactly — demand
    ceilings near int64 range, non-positive periods — by raising
    :class:`StandDown` from :func:`plan_chains`, which screens each
    column set once before packing its chains; callers fall back to the
    scalar oracle for those cases (counted in ``vec_stand_downs``).

Telemetry lives in :mod:`repro.obs`: the ``rta.fixpoint`` counter group
gains ``vec_batches`` array solves, ``vec_rows`` rows solved inside
them and ``vec_stand_downs`` scalar fallbacks, and the ``vecrta`` timer
group splits wall-clock between packing, array iteration and unpacking
for ``rtmdm exp --profile``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro import obs

#: Demand ceilings at or above this stand down (int64 headroom).
_INT64_LIMIT = 1 << 62

#: Hard iteration guard; the screened demand ceilings make genuine
#: divergence hit the cap first, so tripping this is a logic error.
_ITER_GUARD = 1_000_000


class StandDown(Exception):
    """The vector engine cannot solve this problem exactly; use scalar."""


_COUNTS = obs.live("rta.fixpoint")
_TIMES = obs.live("vecrta")


def _count_batch(n_rows: int) -> None:
    _COUNTS["vec_batches"] += 1
    _COUNTS["vec_rows"] += n_rows


def _count_stand_down() -> None:
    _COUNTS["vec_stand_downs"] += 1


# ----------------------------------------------------------------------
# Core masked solver (exact integer semantics)
# ----------------------------------------------------------------------


def _solve_rows_exact(base, caps, inter, periods, jitters):
    """Least fixpoints of ``w = base + sum ceil((w + J)/T) * I`` per row.

    All arrays ``int64``; ``inter``/``periods``/``jitters`` are ``(R,
    k)`` with ``k >= 1``.  Returns ``(w, ok)``: rows with ``ok`` False
    exceeded their cap (the scalar returns ``None`` there).  Integer
    ceil division throughout — no float drift.
    """
    w = base.copy()
    n_rows = int(base.shape[0])
    ok = _np.ones(n_rows, dtype=bool)
    active = _np.ones(n_rows, dtype=bool)
    _count_batch(n_rows)
    for _ in range(_ITER_GUARD):
        q = -((w[:, None] + jitters) // -periods)
        demand = base + (q * inter).sum(axis=1)
        over = active & (demand > caps)
        conv = active & ~over & (demand == w)
        ok &= ~over
        active &= ~(over | conv)
        if not active.any():
            return w, ok
        w = _np.where(active, demand, w)
    raise StandDown("fixpoint iteration guard tripped")


# ----------------------------------------------------------------------
# Chain batch: jitter-chained cascades in struct-of-arrays form
# ----------------------------------------------------------------------


class _Chain:
    """One analysis cascade (all levels of one task set, one flavor)."""

    __slots__ = (
        "kind", "n", "periods", "deadlines",
        "own", "blocking", "inter",                      # simple
        "tl", "tc", "lat", "bl_l", "bl_c", "bl_both",    # holistic
        "gated", "both_inter",
        "jit", "dma_j", "cpu_j", "both_j",
        "bounds", "dead",
    )

    def __init__(self, kind: str, n: int, periods, deadlines) -> None:
        self.kind = kind
        self.n = n
        self.periods = periods
        self.deadlines = deadlines
        self.jit: List[int] = []
        self.dma_j: List[int] = []
        self.cpu_j: List[int] = []
        self.both_j: List[int] = []
        self.bounds: List[Optional[int]] = []
        self.dead = False


class ChainBatch:
    """Many jitter-chained fixpoint cascades, solved level-by-level.

    Build chains with :meth:`add_simple` (single-resource cascades:
    oblivious/overlap flavors) and :meth:`add_holistic` (two-stage
    DMA+CPU decomposition with per-level gating fallback), then call
    :meth:`solve` once and read each chain's bounds back with
    :meth:`bounds`.  Results are bit-identical to running the scalar
    recurrences per chain.
    """

    def __init__(self) -> None:
        self._chains: List[_Chain] = []
        self._solved = False

    def add_simple(self, own, blocking, inter, periods, deadlines) -> int:
        """Add one single-resource cascade; returns its handle.

        All arguments are equal-length sequences of Python ints ordered
        highest priority first: per-level own demand, blocking,
        interference contribution, period, and deadline (the cap).  The
        caller bounds every demand below int64 range first (as
        :func:`plan_chains` does).
        """
        own, blocking, inter = list(own), list(blocking), list(inter)
        periods, deadlines = list(periods), list(deadlines)
        chain = _Chain("s", len(own), periods, deadlines)
        chain.own, chain.blocking, chain.inter = own, blocking, inter
        self._chains.append(chain)
        return len(self._chains) - 1

    def add_holistic(
        self, total_l, total_c, latency, block_l, block_c, block_both,
        gated, periods, deadlines,
    ) -> int:
        """Add one two-stage cascade; returns its handle.

        Buffered levels (``gated[k]`` False) solve DMA and CPU stage
        fixpoints and sum them; gated levels solve a single combined
        fixpoint on the pipeline latency, exactly as
        ``core.analysis._analyze_holistic`` does.  Magnitudes as in
        :meth:`add_simple`.
        """
        total_l, total_c, latency = list(total_l), list(total_c), list(latency)
        block_l, block_c, block_both = list(block_l), list(block_c), list(block_both)
        gated = list(gated)
        periods, deadlines = list(periods), list(deadlines)
        chain = _Chain("h", len(total_l), periods, deadlines)
        chain.tl, chain.tc, chain.lat = total_l, total_c, latency
        chain.bl_l, chain.bl_c, chain.bl_both = block_l, block_c, block_both
        chain.gated = gated
        chain.both_inter = [l + c for l, c in zip(total_l, total_c)]
        self._chains.append(chain)
        return len(self._chains) - 1

    def solve(self) -> None:
        """Solve every chain (once)."""
        if self._solved:
            raise RuntimeError("ChainBatch.solve() may only run once")
        self._solved = True
        start = time.perf_counter()
        n_levels = max((c.n for c in self._chains), default=0)
        for level in range(n_levels):
            rows: List[Tuple[_Chain, str]] = []
            for chain in self._chains:
                if chain.dead or chain.n <= level:
                    continue
                if chain.kind == "s":
                    rows.append((chain, "s"))
                elif chain.gated[level]:
                    rows.append((chain, "g"))
                else:
                    rows.append((chain, "rl"))
                    rows.append((chain, "rc"))
            if rows:
                self._solve_level(level, rows)
        _TIMES["solve_s"] += time.perf_counter() - start

    def bounds(self, handle: int) -> List[Optional[int]]:
        """Per-level bounds of one chain, ``None``-padded after a kill."""
        if not self._solved:
            raise RuntimeError("call solve() before bounds()")
        chain = self._chains[handle]
        out = list(chain.bounds)
        out.extend([None] * (chain.n - len(out)))
        return out

    # -- internals -----------------------------------------------------

    @staticmethod
    def _row_params(chain: _Chain, part: str, k: int):
        """(own, blocking, interference[:k], jitters) for one row."""
        if part == "s":
            return chain.own[k], chain.blocking[k], chain.inter[:k], chain.jit
        if part == "rl":
            return chain.tl[k], chain.bl_l[k], chain.tl[:k], chain.dma_j
        if part == "rc":
            return chain.tc[k], chain.bl_c[k], chain.tc[:k], chain.cpu_j
        return chain.lat[k], chain.bl_both[k], chain.both_inter[:k], chain.both_j

    def _solve_level(self, level, rows) -> None:
        pending = []
        for chain, part in rows:
            own, blocking, inter, jit = self._row_params(chain, part, level)
            pending.append(
                (own + blocking, chain.deadlines[level], inter, chain.periods[:level], jit)
            )
        values: List[Optional[int]]
        if level == 0:
            # No interference at the top level: the fixpoint is the base.
            _count_batch(len(pending))
            values = [base if base <= cap else None for base, cap, *_ in pending]
        else:
            base = _np.array([p[0] for p in pending], dtype=_np.int64)
            caps = _np.array([p[1] for p in pending], dtype=_np.int64)
            inter = _np.array([p[2] for p in pending], dtype=_np.int64)
            periods = _np.array([p[3] for p in pending], dtype=_np.int64)
            jitters = _np.array([p[4] for p in pending], dtype=_np.int64)
            w, ok = _solve_rows_exact(base, caps, inter, periods, jitters)
            values = [int(v) if good else None for v, good in zip(w, ok)]
        i = 0
        while i < len(rows):
            chain, part = rows[i]
            if part == "rl":
                rl, rc = values[i], values[i + 1]
                i += 2
                bound = None if rl is None or rc is None else rl + rc
                if bound is not None and bound > chain.deadlines[level]:
                    bound = None
            else:
                bound = values[i]
                i += 1
            self._push(chain, level, bound)

    @staticmethod
    def _push(chain: _Chain, level: int, bound: Optional[int]) -> None:
        chain.bounds.append(bound)
        if bound is None:
            # Scalar cascade kill: everything below is None too.
            chain.dead = True
            return
        if chain.kind == "s":
            chain.jit.append(max(0, bound - chain.own[level]))
        else:
            chain.dma_j.append(max(0, bound - chain.tl[level]))
            chain.cpu_j.append(max(0, bound - chain.tc[level]))
            chain.both_j.append(max(0, bound - chain.tl[level] - chain.tc[level]))


# ----------------------------------------------------------------------
# Column view of a task set + chain planning shared with eval.systems
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ViewCols:
    """Struct-of-arrays form of ``core.analysis._View``, priority order."""

    total_c: List[int]
    total_l: List[int]
    n_seg: List[int]
    n_load: List[int]
    max_c: List[int]
    max_l: List[int]
    latency: List[int]
    buffers: List[int]
    periods: List[int]
    deadlines: List[int]


def cols_from_views(views) -> ViewCols:
    """Columns from ``core.analysis`` views (already priority-sorted)."""
    return ViewCols(
        total_c=[v.total_c for v in views],
        total_l=[v.total_l for v in views],
        n_seg=[v.n_seg for v in views],
        n_load=[v.n_load for v in views],
        max_c=[v.max_c for v in views],
        max_l=[v.max_l for v in views],
        latency=[v.latency for v in views],
        buffers=[v.task.buffers for v in views],
        periods=[v.task.period for v in views],
        deadlines=[v.task.deadline for v in views],
    )


def _suffix_max(values: Sequence[int]) -> List[int]:
    """``out[i] = max(values[i:])`` with ``out[len] = 0``."""
    out = [0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        out[i] = max(values[i], out[i + 1])
    return out


def _screen(cols: ViewCols, serial, lp_l, lp_c, block_both) -> None:
    """Stand down unless every chain :func:`plan_chains` packs for
    ``cols`` stays exactly inside int64.

    Every packed row at level ``i`` solves ``w = base + sum_j
    ceil((w + J_j) / T_j) * I_j`` for ``j < i`` with ``base = own +
    blocking``, capped at ``D_i``.  Once every column is non-negative
    (checked below):

    * ``own`` is ``serial_i``, ``latency_i``, ``total_l_i`` or
      ``total_c_i``, so ``0 <= own <= max(max(serial), max(latency))``;
    * ``blocking`` is ``block_both_i``, ``lp_l[i+1]`` (holistic DMA
      stage) or ``lp_c[i+1]`` (CPU stage), so it is at most
      ``max(max(block_both), lp_l[1], lp_c[1])``.  ``lp_l[i+1]`` is not
      bounded by ``block_both_i``: a task with no loads above a loaded
      task has ``n_load_i = 0``;
    * ``I_j`` is ``serial_j``, ``total_l_j`` or ``total_c_j``, so at most
      ``serial_j``;
    * every jitter is ``max(0, bound - x)`` with ``x >= 0`` and a bound
      no larger than its cap, so ``0 <= J_j <= d_max``.

    So ``0 <= base <= B``, the largest own plus the largest blocking.
    The first iterate is ``base``, which may exceed its cap, and every
    later one a demand that did not, so ``w <= max(B, d_max)`` and ``0 <=
    w + J_j <= reach``.  Hence ``ceil((w + J_j) / T_j) <= reach // T_j +
    1`` and every demand, partial sum, product and cap is at most
    ``ceiling`` below.
    """
    periods, deadlines = cols.periods, cols.deadlines
    if not periods:
        return
    if min(periods) <= 0:
        raise StandDown("non-positive period")
    if min(deadlines) <= 0:
        raise StandDown("non-positive deadline")
    columns = (cols.total_c, cols.total_l, cols.max_c, cols.max_l, cols.latency)
    if min(map(min, columns)) < 0:
        raise StandDown("negative demand term")
    if max(periods) >= _INT64_LIMIT:
        raise StandDown("period exceeds int64 headroom")
    base = max(max(serial), max(cols.latency)) + max(max(block_both), lp_l[1], lp_c[1])
    d_max = max(deadlines)
    reach = max(base, d_max) + d_max
    ceiling = reach + sum((reach // t + 1) * s for t, s in zip(periods, serial))
    if ceiling >= _INT64_LIMIT:
        raise StandDown("demand ceiling exceeds int64 headroom")


def plan_chains(
    batch: ChainBatch,
    cols: ViewCols,
    method: str,
    memo: Optional[Dict[str, int]] = None,
) -> Dict[str, int]:
    """Pack one task set's analysis into ``batch``; returns handles.

    Mirrors :func:`repro.core.analysis.analyze`'s structure: oblivious
    and overlap are simple cascades, holistic is a two-stage cascade,
    and ``rtmdm`` plans both overlap and holistic (combined at unpack).
    Raises :class:`StandDown`, before packing anything, when a chain's
    demand could leave int64 range (see :func:`_screen`).

    ``memo`` (one dict per task set, shared across that set's methods)
    reuses already-packed chains: a set analyzed under both ``overlap``
    and ``rtmdm`` packs its overlap cascade once and both methods read
    the same solved rows.
    """
    handles: Dict[str, int] = {}
    if memo is None:
        memo = {}
    wanted = {
        "oblivious": ("obl",),
        "overlap": ("ovl",),
        "holistic": ("hol",),
        "rtmdm": ("ovl", "hol"),
    }[method]
    if all(kind in memo for kind in wanted):
        return {kind: memo[kind] for kind in wanted}
    n = len(cols.periods)
    lp_c = _suffix_max(cols.max_c)
    lp_l = _suffix_max(cols.max_l)
    block_both = [
        cols.n_seg[i] * lp_c[i + 1] + cols.n_load[i] * lp_l[i + 1]
        for i in range(n)
    ]
    serial = [c + l for c, l in zip(cols.total_c, cols.total_l)]
    _screen(cols, serial, lp_l, lp_c, block_both)
    if "obl" in wanted and "obl" not in memo:
        memo["obl"] = batch.add_simple(
            serial, block_both, serial, cols.periods, cols.deadlines
        )
    if "ovl" in wanted and "ovl" not in memo:
        memo["ovl"] = batch.add_simple(
            cols.latency, block_both, serial, cols.periods, cols.deadlines
        )
    if "hol" in wanted and "hol" not in memo:
        gated = [b < s for b, s in zip(cols.buffers, cols.n_seg)]
        memo["hol"] = batch.add_holistic(
            cols.total_l, cols.total_c, cols.latency,
            lp_l[1:], lp_c[1:], block_both, gated, cols.periods, cols.deadlines,
        )
    for kind in wanted:
        handles[kind] = memo[kind]
    return handles


def assemble_wcrt(
    batch: ChainBatch, handles: Dict[str, int], method: str, names: Sequence[str]
) -> Dict[str, Optional[int]]:
    """Per-task bounds for one planned set, scalar-identical dict order."""
    if method == "rtmdm":
        overlap = batch.bounds(handles["ovl"])
        holistic = batch.bounds(handles["hol"])
        combined: Dict[str, Optional[int]] = {}
        for name, o, h in zip(names, overlap, holistic):
            options = [b for b in (o, h) if b is not None]
            combined[name] = min(options) if options else None
        return combined
    key = {"oblivious": "obl", "overlap": "ovl", "holistic": "hol"}[method]
    return dict(zip(names, batch.bounds(handles[key])))


def chains_schedulable(
    batch: ChainBatch, handles: Dict[str, int], method: str
) -> bool:
    """Admission verdict for one planned set.

    Bounds are capped at the deadline during the solve, so a chain is
    schedulable iff every level's bound is non-``None`` (for ``rtmdm``:
    in at least one of the two chains).
    """
    if method == "rtmdm":
        return all(
            o is not None or h is not None
            for o, h in zip(batch.bounds(handles["ovl"]), batch.bounds(handles["hol"]))
        )
    key = {"oblivious": "obl", "overlap": "ovl", "holistic": "hol"}[method]
    return all(b is not None for b in batch.bounds(handles[key]))


# ----------------------------------------------------------------------
# Batched analysis entry point (core.analysis.analyze equivalent)
# ----------------------------------------------------------------------


def solve_cols_batch(items: Sequence[Tuple[ViewCols, str, Dict[str, int]]]):
    """Pack and solve many column-form analyses in one :class:`ChainBatch`.

    ``items`` are ``(cols, method, chain_memo)`` triples (the memo as in
    :func:`plan_chains`; pass one dict per task set).  Returns ``(batch,
    handles)`` with ``handles[i]`` ``None`` where item ``i`` stood down
    (the caller answers it with the scalar oracle), or ``None`` when the
    whole solve stood down.  Read verdicts back with
    :func:`chains_schedulable` or bounds with :func:`assemble_wcrt`.
    """
    start = time.perf_counter()
    batch = ChainBatch()
    handles: List[Optional[Dict[str, int]]] = []
    for cols, method, memo in items:
        try:
            handles.append(plan_chains(batch, cols, method, memo=memo))
        except StandDown:
            _count_stand_down()
            handles.append(None)
    _TIMES["pack_s"] += time.perf_counter() - start
    try:
        batch.solve()
    except StandDown:  # pragma: no cover - needs ~1e6 fixpoint steps
        _count_stand_down()
        return None
    return batch, handles


def analyze_taskset_batch(cases: Sequence[Tuple[Any, str]]):
    """Batched :func:`repro.core.analysis.analyze` over many task sets.

    ``cases`` are ``(taskset, method)`` pairs; returns the matching list
    of ``AnalysisResult`` objects, bit-identical to calling the scalar
    ``analyze`` per case.  Cases the vector engine stands down on (see
    module docstring) are solved by the scalar oracle transparently.
    """
    from repro.core import analysis as _analysis

    cases = list(cases)
    start = time.perf_counter()
    items = []
    names_of = []
    # Batches routinely analyze the same task set under several methods
    # (method-family sweeps, rtmdm next to its components); views and
    # columns depend only on the set, so share them per set object.
    shared: dict = {}
    for taskset, method in cases:
        if method not in _analysis.METHODS:
            raise ValueError(
                f"unknown analysis method {method!r}; choose from {_analysis.METHODS}"
            )
        prepared = shared.get(id(taskset))
        if prepared is None:
            views = _analysis._views_by_priority(taskset)
            prepared = shared[id(taskset)] = (
                cols_from_views(views), [v.task.name for v in views], {},
            )
        cols, names, chain_memo = prepared
        items.append((cols, method, chain_memo))
        names_of.append(names)
    _TIMES["pack_s"] += time.perf_counter() - start
    solved = solve_cols_batch(items)
    if solved is None:  # pragma: no cover - see solve_cols_batch
        return [_analysis.analyze(ts, method) for ts, method in cases]
    batch, handles = solved
    start = time.perf_counter()
    results = []
    for (taskset, method), names, plan in zip(cases, names_of, handles):
        if plan is None:
            results.append(_analysis.analyze(taskset, method))
            continue
        wcrt = assemble_wcrt(batch, plan, method, names)
        deadlines = {t.name: t.deadline for t in taskset}
        results.append(_analysis.AnalysisResult(method, wcrt, deadlines))
    _TIMES["unpack_s"] += time.perf_counter() - start
    return results
