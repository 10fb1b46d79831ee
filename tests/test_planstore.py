"""Unit tests for the persistent content-addressed plan store."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro import obs
from repro.core import planstore, segcache
from repro.core.planstore import (
    PlanStore,
    canonical_key,
    decode_value,
    encode_value,
)
from repro.hw.presets import get_platform
from repro.online.admission import plan_segments
from repro.sched.task import Segment

OK_VALUE = (
    "ok",
    ((0, 2), (2, 5)),
    (
        Segment(name="s0", load_cycles=100, compute_cycles=2000,
                load_bytes=4096, xip_bytes=0),
        Segment(name="s1", load_cycles=0, compute_cycles=900,
                load_bytes=0, xip_bytes=2048),
    ),
)
KEY = ("search", ("fp", 1, 2), 65536, 4000, 2)


@pytest.fixture(autouse=True)
def isolated_store():
    """No store, cold caches; yields a counter snapshot taken at the start
    (counters are monotone, tests read their traffic as deltas)."""
    previous = planstore.active()
    planstore.configure(None)
    segcache.clear_all()
    yield obs.snapshot()
    planstore.configure(previous.root if previous is not None else None)
    segcache.clear_all()


def store_counts(before):
    """Plan-store counter increments since ``before``, by field name."""
    return dict(zip(obs.TABLE["planstore"], obs.delta_since(before)["planstore"]))


def only_record_path(store: PlanStore) -> str:
    names = [n for n in os.listdir(store.root) if n.endswith(".json")]
    assert len(names) == 1
    return os.path.join(store.root, names[0])


class TestCodec:
    def test_ok_round_trip(self):
        assert decode_value(encode_value(OK_VALUE)) == OK_VALUE

    def test_err_round_trip(self):
        value = ("err", "sram: need 120 KiB")
        assert decode_value(encode_value(value)) == value

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            decode_value({"kind": "maybe"})

    def test_canonical_key_is_stable_text(self):
        assert canonical_key(KEY) == canonical_key(list(KEY))
        assert canonical_key(KEY) != canonical_key(KEY[:-1])


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = PlanStore(str(tmp_path))
        store.put(KEY, OK_VALUE)
        assert len(store) == 1
        found, value = store.get(KEY)
        assert found and value == OK_VALUE

    def test_missing_key_is_a_plain_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        mark = obs.snapshot()
        found, _ = store.get(KEY)
        assert not found
        counts = store_counts(mark)
        assert counts["misses"] == 1
        assert counts["corrupt"] == 0

    def test_last_writer_wins(self, tmp_path):
        # Two writers (same root, e.g. two processes) race on one key:
        # os.replace makes the record atomic and the last put wins whole.
        writer_a = PlanStore(str(tmp_path))
        writer_b = PlanStore(str(tmp_path))
        writer_a.put(KEY, OK_VALUE)
        writer_b.put(KEY, ("err", "sram: lost the race"))
        assert len(writer_a) == 1
        found, value = writer_a.get(KEY)
        assert found and value == ("err", "sram: lost the race")
        # No stray temp files left behind.
        assert all(
            name.endswith(".json") for name in os.listdir(str(tmp_path))
        )


class TestDurability:
    def test_crc_corruption_is_skipped(self, tmp_path):
        store = PlanStore(str(tmp_path))
        store.put(KEY, OK_VALUE)
        path = only_record_path(store)
        with open(path) as handle:
            record = json.load(handle)
        record["value"]["boundaries"][0][1] = 99  # flip a byte, stale CRC
        with open(path, "w") as handle:
            json.dump(record, handle)
        mark = obs.snapshot()
        found, _ = store.get(KEY)
        assert not found
        counts = store_counts(mark)
        assert counts["corrupt"] == 1 and counts["misses"] == 1

    def test_truncated_record_is_skipped(self, tmp_path):
        store = PlanStore(str(tmp_path))
        store.put(KEY, OK_VALUE)
        path = only_record_path(store)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        mark = obs.snapshot()
        found, _ = store.get(KEY)
        assert not found
        assert store_counts(mark)["corrupt"] == 1

    def test_schema_mismatch_is_corrupt(self, tmp_path, isolated_store):
        store = PlanStore(str(tmp_path))
        store.put(KEY, OK_VALUE)
        path = only_record_path(store)
        with open(path) as handle:
            record = json.load(handle)
        record["schema"] = "rtmdm-planstore/0"
        record["crc"] = planstore._crc(record)
        with open(path, "w") as handle:
            json.dump(record, handle)
        found, _ = store.get(KEY)
        assert not found
        assert store_counts(isolated_store)["corrupt"] == 1

    def test_key_echo_mismatch_never_returns(self, tmp_path):
        # A record copied (or hash-colliding) onto another key's path has
        # a valid CRC but the wrong canonical-key echo: stale, not a hit.
        store = PlanStore(str(tmp_path))
        store.put(KEY, OK_VALUE)
        other = ("search", ("fp", 9, 9), 65536, 4000, 2)
        shutil.copyfile(store.path_for(KEY), store.path_for(other))
        mark = obs.snapshot()
        found, _ = store.get(other)
        assert not found
        counts = store_counts(mark)
        assert counts["stale"] == 1 and counts["hits"] == 0

    def test_corruption_triggers_cold_rebuild_end_to_end(self, tmp_path):
        platform = get_platform("f746-qspi")
        budget = platform.usable_sram_bytes
        deadline = platform.mcu.seconds_to_cycles(0.2)
        store = planstore.configure(str(tmp_path))
        cold = plan_segments(platform, "lenet5", deadline, budget)
        assert len(store) >= 1
        # Corrupt every record, drop the RAM caches: the next plan must
        # rebuild cold and rewrite valid records, not crash or mis-plan.
        for name in os.listdir(store.root):
            with open(os.path.join(store.root, name), "ab") as handle:
                handle.write(b"garbage")
        segcache.clear_all()
        mark = obs.snapshot()
        rebuilt = plan_segments(platform, "lenet5", deadline, budget)
        assert rebuilt == cold
        counts = store_counts(mark)
        assert counts["corrupt"] >= 1
        assert counts["writes"] >= 1
        # And the rewritten records now serve hits.
        segcache.clear_all()
        mark = obs.snapshot()
        assert plan_segments(platform, "lenet5", deadline, budget) == cold
        assert store_counts(mark)["hits"] >= 1


class TestWarmEqualsCold:
    @pytest.mark.parametrize("model", ["lenet5", "tinyconv", "ds-cnn"])
    @pytest.mark.parametrize("sram_kib", [128, 320])
    def test_warm_plans_bit_identical(self, tmp_path, model, sram_kib):
        platform = get_platform("f746-qspi").with_sram_bytes(sram_kib * 1024)
        budget = platform.usable_sram_bytes
        deadline = platform.mcu.seconds_to_cycles(0.1)
        planstore.configure(str(tmp_path))
        cold = plan_segments(platform, model, deadline, budget)
        segcache.clear_all()  # fresh process: only the store survives
        mark = obs.snapshot()
        warm = plan_segments(platform, model, deadline, budget)
        assert warm == cold
        counts = store_counts(mark)
        assert counts["hits"] >= 1
        assert counts["corrupt"] == counts["stale"] == 0

    def test_store_disabled_changes_nothing(self):
        platform = get_platform("f746-qspi")
        budget = platform.usable_sram_bytes
        deadline = platform.mcu.seconds_to_cycles(0.1)
        baseline = plan_segments(platform, "lenet5", deadline, budget)
        segcache.clear_all()
        again = plan_segments(platform, "lenet5", deadline, budget)
        assert again == baseline
        assert int(planstore.active() is not None) == 0


class TestCountersProtocol:
    def test_counters_ride_segcache_snapshots(self, tmp_path):
        planstore.configure(str(tmp_path))
        before = segcache.snapshot()
        assert "planstore" in before
        store = planstore.active()
        store.put(KEY, OK_VALUE)
        store.get(KEY)
        store.get(("other", 1))
        delta = segcache.delta_since(before)
        hits, misses, corrupt, stale, writes = delta["planstore"]
        assert (hits, misses, corrupt, stale, writes) == (1, 1, 0, 0, 1)
        # absorb() folds a worker's delta into this process's totals.
        mark = obs.snapshot()
        segcache.absorb({"planstore": (2, 3, 1, 0, 4)})
        counts = store_counts(mark)
        assert counts["hits"] == 2 and counts["writes"] == 4
        assert counts["corrupt"] == 1

    def test_env_configuration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path))
        store = planstore._env_store()
        assert store is not None and store.root == str(tmp_path)
        monkeypatch.setenv("REPRO_PLAN_STORE", "  ")
        assert planstore._env_store() is None
