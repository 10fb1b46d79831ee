"""Persistent, content-addressed plan store (the cross-process cache tier).

:mod:`repro.core.segcache` amortizes segmentation searches *within* one
process; a fleet of identical MCUs re-plans the same (model, platform,
budget) keys across many processes and runs.  This module adds an
on-disk tier below the in-memory LRU: search results are written as
CRC-tagged JSON records addressed by the SHA-256 of their canonical
search key — the same SRAM-excluding planner platform fingerprint and
quantized plan knobs the LRU uses — so a warm store returns plans that
are **bit-identical to cold planning by construction** (canonicalization
happens before the key on every path).

Durability model:

* Records are self-validating: schema tag, a full canonical-key echo and
  a CRC32 over the canonical record body.  A missing file, unparseable
  JSON, CRC mismatch or schema mismatch counts as ``corrupt`` and is
  treated as a miss — the cold search then rewrites the record (cold
  rebuild, never a crash).
* A key echo that fails to match counts as ``stale`` and is likewise a
  miss: a truncated-hash collision or a record written by an
  incompatible build can never return a wrong plan.
* Writes go through a temp file + :func:`os.replace`, so concurrent
  writers are last-wins safe and readers never observe a torn record.

The store holds **search-stage** values only (the expensive stage); the
cheap zoo/refine memos stay in-memory.  Store traffic counts into the
monotone ``planstore`` group of :mod:`repro.obs`, so parallel workers'
traffic merges into exact parent-side deltas.

Enable with :func:`configure` or the ``REPRO_PLAN_STORE=<dir>``
environment variable (workers spawned by the parallel runner inherit
the environment, not :func:`configure`).  Disabled by default.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.sched.task import Segment

__all__ = [
    "PlanStore",
    "STORE_SCHEMA",
    "active",
    "canonical_key",
    "configure",
]

#: On-disk record schema tag; bump on any incompatible layout change.
STORE_SCHEMA = "rtmdm-planstore/1"

_lock = threading.Lock()
_counters = obs.live("planstore")


def canonical_key(key: Any) -> str:
    """Canonical JSON text of a (frozen) search key.

    Keys come from :func:`repro.core.segcache.freeze`: nested tuples of
    JSON scalars.  ``json.dumps`` renders tuples as arrays with a
    deterministic float repr, so equal keys always canonicalize to equal
    text across processes.
    """
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def _crc(record: Dict) -> str:
    body = {k: v for k, v in record.items() if k != "crc"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(text.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _bump(name: str, by: int = 1) -> None:
    with _lock:
        _counters[name] += by


def encode_value(value: Tuple) -> Dict:
    """Plain-data form of a segcache search value (``("ok", ...)``/``("err", ...)``)."""
    kind = value[0]
    if kind == "err":
        return {"kind": "err", "message": value[1]}
    if kind == "err-unfit":
        # Canonical byte-infeasibility marker: the message is rendered
        # by the reader from its own call arguments, never stored.
        return {"kind": "err-unfit"}
    boundaries, segments = value[1], value[2]
    return {
        "kind": "ok",
        "boundaries": [[start, end] for start, end in boundaries],
        "segments": [
            {
                "name": s.name,
                "load_cycles": s.load_cycles,
                "compute_cycles": s.compute_cycles,
                "load_bytes": s.load_bytes,
                "xip_bytes": s.xip_bytes,
            }
            for s in segments
        ],
    }


def decode_value(payload: Dict) -> Tuple:
    """Inverse of :func:`encode_value` (raises on malformed payloads)."""
    kind = payload["kind"]
    if kind == "err":
        return ("err", str(payload["message"]))
    if kind == "err-unfit":
        return ("err-unfit",)
    if kind != "ok":
        raise ValueError(f"unknown planstore value kind {kind!r}")
    boundaries = tuple((int(a), int(b)) for a, b in payload["boundaries"])
    segments = tuple(
        Segment(
            name=str(s["name"]),
            load_cycles=int(s["load_cycles"]),
            compute_cycles=int(s["compute_cycles"]),
            load_bytes=int(s.get("load_bytes", 0)),
            xip_bytes=int(s.get("xip_bytes", 0)),
        )
        for s in payload["segments"]
    )
    return ("ok", boundaries, segments)


class PlanStore:
    """One on-disk store rooted at ``root`` (created on demand)."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def __len__(self) -> int:
        return sum(
            1 for name in os.listdir(self.root) if name.endswith(".json")
        )

    def path_for(self, key: Any) -> str:
        """The record path a key addresses (sha256 of its canonical text)."""
        canon = canonical_key(key)
        digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:40]
        return os.path.join(self.root, f"{digest}.json")

    def get(self, key: Any) -> Tuple[bool, Any]:
        """``(found, value)``; every failure mode degrades to a miss."""
        canon = canonical_key(key)
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            if os.path.exists(path):
                _bump("corrupt")
            _bump("misses")
            return False, None
        if (
            not isinstance(record, dict)
            or record.get("schema") != STORE_SCHEMA
            or record.get("crc") != _crc(record)
        ):
            _bump("corrupt")
            _bump("misses")
            return False, None
        if record.get("key") != canon:
            _bump("stale")
            _bump("misses")
            return False, None
        try:
            value = decode_value(record["value"])
        except (KeyError, TypeError, ValueError):
            _bump("corrupt")
            _bump("misses")
            return False, None
        _bump("hits")
        return True, value

    def put(self, key: Any, value: Tuple) -> None:
        """Atomically (re)write the record for ``key`` (last wins)."""
        canon = canonical_key(key)
        record = {
            "schema": STORE_SCHEMA,
            "key": canon,
            "value": encode_value(value),
        }
        record["crc"] = _crc(record)
        path = self.path_for(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(record, handle, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            # Persistence is an optimization; a failed write must never
            # fail the planning call that triggered it.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        _bump("writes")


_active: Optional[PlanStore] = None


def _env_store() -> Optional[PlanStore]:
    root = os.environ.get("REPRO_PLAN_STORE", "").strip()
    return PlanStore(root) if root else None


_active = _env_store()


def configure(path: Optional[str]) -> Optional[PlanStore]:
    """Point the process at a store directory (``None`` disables)."""
    global _active
    _active = PlanStore(path) if path else None
    return _active


def active() -> Optional[PlanStore]:
    """The process-wide store consulted by the planning pipeline."""
    return _active
