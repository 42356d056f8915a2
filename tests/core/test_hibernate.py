"""Persistence: hibernate / restore."""

import pytest

from repro.core.hibernate import hibernate, restore
from repro.devices import InMemoryStore
from repro.errors import CodecError
from tests.helpers import Holder, Node, build_chain, chain_values, make_space


@pytest.fixture
def populated(space):
    handle = space.ingest(build_chain(30), cluster_size=10, root_name="h")
    space.set_root("config", {"retries": 3, "tags": ["a", "b"]})
    return space, handle


def test_roundtrip_values_preserved(populated, tmp_path):
    space, handle = populated
    handle.set_value(777)
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    assert chain_values(revived.get_root("h")) == [777] + list(range(1, 30))
    assert revived.get_root("config") == {"retries": 3, "tags": ["a", "b"]}
    revived.verify_integrity()


def test_original_space_untouched(populated, tmp_path):
    space, handle = populated
    before_objects = space.object_count()
    hibernate(space, tmp_path)
    assert space.object_count() == before_objects
    assert chain_values(handle) == list(range(30))
    space.verify_integrity()


def test_cluster_layout_preserved(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    assert sorted(revived.clusters()) == sorted(space.clusters())
    for sid, cluster in space.clusters().items():
        assert revived.clusters()[sid].oids == cluster.oids


def test_swapped_cluster_captured(populated, tmp_path):
    space, handle = populated
    space.swap_out(2)
    hibernate(space, tmp_path)
    assert space.clusters()[2].is_swapped  # snapshot did not reload it
    revived = restore(tmp_path)
    assert revived.clusters()[2].is_resident
    assert revived.clusters()[2].epoch == 1  # epoch preserved
    assert chain_values(revived.get_root("h")) == list(range(30))


def test_revived_space_swaps_and_collects(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    revived.manager.add_store(InMemoryStore("fresh"))
    revived.swap_out(2)
    assert chain_values(revived.get_root("h")) == list(range(30))
    revived.del_root("h")
    revived.del_root("config")
    revived.gc()
    assert revived.object_count() == 0
    revived.verify_integrity()


def test_new_ids_do_not_collide_after_restore(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    fresh = revived.ingest(build_chain(5), cluster_size=5, root_name="new")
    revived.verify_integrity()
    assert chain_values(fresh) == list(range(5))
    new_sid = revived.sid_of(fresh)
    assert new_sid not in space.clusters()  # a genuinely new sid


def test_roots_into_cluster_zero(tmp_path):
    space = make_space()
    space.set_root("global", Node(42))
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    assert revived.get_root("global").get_value() == 42
    revived.verify_integrity()


def test_container_fields_and_shared_structure(tmp_path):
    space = make_space()
    holder = Holder()
    shared = Node(7)
    holder.items.extend([shared, shared])
    holder.index["n"] = shared
    space.ingest(holder, cluster_size=1, root_name="holder")
    hibernate(space, tmp_path)
    revived = restore(tmp_path)
    revived_holder = revived.get_root("holder")
    first = revived_holder.item_at(0)
    second = revived_holder.item_at(1)
    assert first == second  # sharing preserved
    assert revived_holder.get("n") == first


def test_pending_replication_proxy_rejected(tmp_path):
    from repro.replication import DirectServerClient, ObjectServer, Replicator

    server = ObjectServer()
    server.publish("list", build_chain(20), cluster_size=10)
    space = make_space()
    Replicator(space, DirectServerClient(server)).replicate("list")
    with pytest.raises(CodecError, match="replication proxy"):
        hibernate(space, tmp_path)


def test_restore_requires_manifest(tmp_path):
    with pytest.raises(CodecError, match="manifest"):
        restore(tmp_path)


def test_heap_capacity_override(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path)
    revived = restore(tmp_path, heap_capacity=1 << 22)
    assert revived.heap.capacity == 1 << 22


def test_double_hibernate_is_deterministic(populated, tmp_path):
    space, _ = populated
    hibernate(space, tmp_path / "one")
    hibernate(space, tmp_path / "two")
    first = (tmp_path / "one" / "cluster-1.xml").read_text()
    second = (tmp_path / "two" / "cluster-1.xml").read_text()
    assert first == second


# -- swapped copies are verified before they are snapshotted -------------------


def _replicated(codec=None):
    """A chain whose cluster 2 is swapped to two stores (rf=2)."""
    from repro.core.fastpath import FastPathConfig
    from repro.resilience import ResilienceConfig

    space = make_space(with_store=False)
    stores = [InMemoryStore("first"), InMemoryStore("second")]
    for store in stores:
        space.manager.add_store(store)
    space.manager.enable_resilience(ResilienceConfig(replication_factor=2))
    if codec is not None:
        space.manager.enable_fastpath(FastPathConfig(codec=codec))
    space.ingest(build_chain(30), cluster_size=10, root_name="h")
    space.swap_out(2)
    key = space.clusters()[2].location.key
    holders = space.manager.bindings_for(2)
    assert [holder.device_id for holder in holders] == ["first", "second"]
    return space, holders, key


def _rot_text(store, key):
    store._data[key] = store._data[key][:-8] + "<!--rot-->"


def _rot_frames(store, key):
    frames = bytearray(store._wire[key])
    frames[len(frames) // 2] ^= 0xFF
    store._wire[key] = bytes(frames)


def test_hibernate_fails_over_past_rotted_text(tmp_path):
    space, holders, key = _replicated()
    _rot_text(holders[0], key)
    hibernate(space, tmp_path)
    assert chain_values(restore(tmp_path).get_root("h")) == list(range(30))


def test_hibernate_fails_over_past_rotted_binary_frames(tmp_path):
    space, holders, key = _replicated(codec="binary")
    assert key in holders[0]._wire  # the copy is held as binary frames
    _rot_frames(holders[0], key)
    hibernate(space, tmp_path)
    assert chain_values(restore(tmp_path).get_root("h")) == list(range(30))


def test_hibernate_refuses_when_every_copy_is_rotted(tmp_path):
    from repro.errors import SwapStoreUnavailableError

    space, holders, key = _replicated()
    for holder in holders:
        _rot_text(holder, key)
    with pytest.raises(SwapStoreUnavailableError, match="no verified copy"):
        hibernate(space, tmp_path)
