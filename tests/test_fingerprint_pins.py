"""Pinned plan-store addresses and plans for every zoo model.

A segmentation-search key is frozen (:func:`repro.core.segcache.freeze`)
and canonicalized (:func:`repro.core.planstore.canonical_key`); the
SHA-256 of that text addresses the key's record in a persistent plan
store.  Speeding up fingerprinting or planning must move neither: a
store written by an earlier build keeps answering, and a plan stays the
plan.  Each zoo model is refined with two knob pairs and planned on the
reference board; the test checks the record's key hash, its file name
and the hash of the stored plan against values recorded from a build
that predates the fingerprint memos and the partition's bracket
tightening.

To re-pin after a deliberate key or plan change, print
``_observed(<empty directory>)`` and record the change.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core import planstore, segcache
from repro.core.segmentation import SegmentationError
from repro.dnn.quantization import INT8
from repro.dnn.zoo import list_models
from repro.hw.presets import get_platform

#: ``(max_chunk_bytes, max_chunk_macs)`` refinement knobs.
KNOBS = ((4096, 0), (2048, 4000))
#: Staging slot budget as a fraction of the refined model's weights.
SLOT_FRACTION = 0.3
COMPUTE_CAP = 400_000

#: ``(model, chunk, macs) -> (sha256 of the canonical key, sha256 of the
#: stored value)``.
PINNED = {
    ("autoencoder", 2048, 4000): (
        "5c650b5b4c0ab11a3bbff522136e4e1a3783e96b0021e033b65cd373c43bf8d9",
        "d88c453ac177a2c419684e6e36d3bcbf3f79cceb30e16e1fe4f37d9a7d653301",
    ),
    ("autoencoder", 4096, 0): (
        "0fad194ca662dc74b1dfe60c2f94f3e2c39d3027f54156ebd05b8b06f6ea16ca",
        "879aaaa4e41f7afff6d3c1cb3a4764a7dae452151b11ebab8ba398959bac37fe",
    ),
    ("ds-cnn", 2048, 4000): (
        "6ab56986a950efbff748b219d0d67e7deb04582c45d09e4d73f4ad99dd37d945",
        "92761f121aef0aef8d17ab4b72d8ef095c4269d731994eb393a8ea1a15fd2252",
    ),
    ("ds-cnn", 4096, 0): (
        "a4cec0a288e610269dbdc215cfdc57f41f4f4a40feec7548822d8f0552e8affc",
        "fa7a88bf45aa728e10c3d199c96cd78e05ecb4e3f51964da50f46a964e67654c",
    ),
    ("kws-cnn", 2048, 4000): (
        "2d9cf45dbdc223c5c478d44b4ae4d0dfaa30cede9667e7b3bb400fdf37a518cb",
        "c0a2a16616531a0e427ed05a09973eed7424d0f3df25a4519c15866a04e4523e",
    ),
    ("kws-cnn", 4096, 0): (
        "fadb3650dc631bbabe60e300a67dfee9b899cc058d6431391e1af164cce18cba",
        "306d42fb86ffbb82735807cbd6954ccf79496087121cc123127630918ab87db2",
    ),
    ("lenet5", 2048, 4000): (
        "9893fc07751ff0616e8cb723dcd08b3741c42506155594cdfda5e0da5af0398f",
        "b55368bfbb0391a396ef632ce6ff7e4b3dc1ace0ee6e5e0fb104b6feb28cfbc4",
    ),
    ("lenet5", 4096, 0): (
        "4061d3287a85dec5c1078dff60df0d0667721dc5511b5b184b8a5dbbf66957ee",
        "3d81f589d9c1a9be4a061243472fc47292f04cd6a7473c204f359d8b8ccef55b",
    ),
    ("mcunet-vww", 2048, 4000): (
        "bc0f7edd2aa7f9f2025948e5c319025a37494cb2e8500dde7924be4ef30ff0ec",
        "b399ca70a522e6ce9548bf4db0281cf8404e47a5bc99b4c4097d20b383ae2ce8",
    ),
    ("mcunet-vww", 4096, 0): (
        "286c78d6d37f41869cb127d5f7d0121e9dc12a1762800a92864eab3d2bc4412a",
        "b4d4913054dc2fb4b10484d80062f27264dafbd188cae41f0de659e9567f3a0c",
    ),
    ("mobilenet-v1-0.25", 2048, 4000): (
        "2ae76cb99ecfff887a7a064c7d0f2350eb8adabfde20297653d650b8890e4c84",
        "b17a2b31efacd89c8957a118b75305c4bb2711218a0c13e5add0c5ff5d53be09",
    ),
    ("mobilenet-v1-0.25", 4096, 0): (
        "e69d00eef9dde5bc0533fd06df2d5d26c23d3ba77fb6f32d92bc93d9d0f6920f",
        "5ddb1e8a7bd535af0ebbabe96fb26d6b633f203a0239d4a05f0de0a5e50e7721",
    ),
    ("mobilenet-v1-0.5", 2048, 4000): (
        "15914b2fd02c95074b3521e5a3cedf29f2582312fb971d85adf49a46eaf312f7",
        "d9edc2c8ceecfde96378c65ba1d40b3ad47888c7b81e918c458cb2b496ba3975",
    ),
    ("mobilenet-v1-0.5", 4096, 0): (
        "3b3a04bf42b53b424f4c27df6b1c33e20ef8d5f8a385a5172b8439a5389bde17",
        "e26bfcc48c2332d218501bdd058502135a3df78f30621f27b6fd175248d9f2a1",
    ),
    ("mobilenet-v2-0.35", 2048, 4000): (
        "92997c4a1fddce0344cdc70100a792c8015dee45a0d90c7e483535d3b6979fb3",
        "9c47125d6dea82c6d25b28ddf71a6e540eabd117b349abd01d39c56e55ddd1ff",
    ),
    ("mobilenet-v2-0.35", 4096, 0): (
        "42948c17a5cf9138012f69896e869493f0b19c0380bf0dd580e3f20e2039497f",
        "e65247b4786d018db934f50a9ebf2e40c1b39cddecec560b78ecf1a252cf4d87",
    ),
    ("resnet8", 2048, 4000): (
        "db1b2968bd3ea322432f7f1ba99e6918a7a8a08d2d7aa771ad7fb23abf949bb1",
        "fe468b4dad3e61fdde708da9e1a0bdf8605fa62d5bcf67bea37250a9ad6dec30",
    ),
    ("resnet8", 4096, 0): (
        "b38d8bb3e307dc31a53f258b918f04933f896cfc5d6b7946a3723c77409f2524",
        "8293aa14edfe729257beec1c6ab38220b97ad0a0ba4a6fc2d201b36abf44ef3a",
    ),
    ("tinyconv", 2048, 4000): (
        "8b4842976b1a0f994b10fa7da24f73c405e56793816c514ba021ed9b3c909621",
        "7578a51355a0b5cfb55c0f29cbe42c50f40e39b938964e316b0a030e5932aa42",
    ),
    ("tinyconv", 4096, 0): (
        "8c27380372a9b3b41a357838516335e8c971110e68ae5a36227138d58b8fea98",
        "7578a51355a0b5cfb55c0f29cbe42c50f40e39b938964e316b0a030e5932aa42",
    ),
}


def _observed(root):
    store = planstore.configure(root)
    platform = get_platform("f746-qspi")
    out = {}
    for name in list_models():
        for chunk, macs in KNOBS:
            segcache.clear_all()
            model = segcache.cached_refine_model(
                segcache.cached_build_model(name), INT8, chunk, macs
            )
            budget = model.peak_activation_bytes(INT8) + 2 * int(
                SLOT_FRACTION * model.total_param_bytes(INT8)
            )
            before = set(os.listdir(store.root))
            try:
                segcache.cached_search_segmentation(
                    model, platform, budget, INT8, max_segment_compute=COMPUTE_CAP
                )
            except SegmentationError:  # pinned like a plan
                pass
            (new,) = set(os.listdir(store.root)) - before
            with open(os.path.join(store.root, new), encoding="utf-8") as fh:
                record = json.load(fh)
            key_sha = hashlib.sha256(record["key"].encode("utf-8")).hexdigest()
            assert new == f"{key_sha[:40]}.json"
            value_text = json.dumps(record["value"], sort_keys=True)
            out[(name, chunk, macs)] = (
                key_sha,
                hashlib.sha256(value_text.encode("utf-8")).hexdigest(),
            )
    return out


@pytest.fixture
def observed(tmp_path):
    previous = planstore.active()
    try:
        yield _observed(str(tmp_path / "store"))
    finally:
        planstore.configure(previous.root if previous is not None else None)
        segcache.clear_all()


def test_every_zoo_model_is_pinned():
    assert set(PINNED) == {
        (name, chunk, macs) for name in list_models() for chunk, macs in KNOBS
    }


def test_keys_and_plans_match_pins(observed):
    assert observed == PINNED
