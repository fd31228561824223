"""Unit tests for the deterministic partition map."""

import pytest

from repro.cluster import PartitionMap, build_map
from repro.errors import ConfigurationError


def test_every_key_owned_by_a_known_shard():
    pmap = build_map(["a", "b", "c"])
    for i in range(200):
        assert pmap.owner_of(f"key{i}") in ("a", "b", "c")


def test_ownership_is_deterministic_across_instances():
    one = build_map(["a", "b", "c"])
    two = build_map(["a", "b", "c"])
    keys = [f"key{i}" for i in range(100)]
    assert [one.owner_of(k) for k in keys] == \
        [two.owner_of(k) for k in keys]
    assert one.digest() == two.digest()


def test_hashing_spreads_keys_over_all_shards():
    pmap = build_map(["a", "b", "c", "d"])
    assignment = pmap.assignment([f"key{i}" for i in range(400)])
    assert set(assignment.values()) == {"a", "b", "c", "d"}


def test_overrides_win_over_the_ring():
    pmap = build_map(["a", "b"], overrides={"pinned": "b"})
    assert pmap.owner_of("pinned") == "b"


def test_reassign_bumps_epoch_and_moves_only_that_key():
    pmap = build_map(["a", "b"])
    key = "key7"
    src = pmap.owner_of(key)
    dst = "b" if src == "a" else "a"
    moved = pmap.reassign(key, dst)
    assert moved.epoch == pmap.epoch + 1
    assert moved.owner_of(key) == dst
    others = [f"key{i}" for i in range(50) if f"key{i}" != key]
    assert [moved.owner_of(k) for k in others] == \
        [pmap.owner_of(k) for k in others]


def test_without_shard_repins_its_keys_to_survivors():
    pmap = build_map(["a", "b", "c"])
    keys = [f"key{i}" for i in range(60)]
    lost = [k for k in keys if pmap.owner_of(k) == "b"]
    shrunk = pmap.without_shard("b", keys)
    assert "b" not in shrunk.shards
    for key in keys:
        assert shrunk.owner_of(key) != "b"
    # Keys that did not live on the dead shard stay put.
    for key in keys:
        if key not in lost:
            assert shrunk.owner_of(key) == pmap.owner_of(key)


def test_round_trips_through_dict():
    pmap = build_map(["a", "b"], overrides={"pinned": "a"})
    clone = PartitionMap.from_dict(pmap.to_dict())
    assert clone == pmap
    assert clone.digest() == pmap.digest()


def test_from_dict_rejects_garbage():
    with pytest.raises(ConfigurationError):
        PartitionMap.from_dict({"shards": "not-a-list"})


def test_digest_differs_after_reassign():
    pmap = build_map(["a", "b"])
    moved = pmap.reassign("key1", pmap.owner_of("key2"))
    if moved.owner_of("key1") != pmap.owner_of("key1"):
        assert moved.digest() != pmap.digest()


def test_empty_shard_list_rejected():
    with pytest.raises(ConfigurationError):
        build_map([])
