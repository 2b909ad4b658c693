"""Sharded per-tenant store: routing, protocol conformance, crash surface."""

import os

import pytest

from repro.exceptions import ProvenanceError, SequenceError
from repro.provenance.records import ObjectState, Operation, ProvenanceRecord
from repro.provenance.registry import (
    ShardedProvenanceStore,
    open_tenant_store,
    shard_index,
    tenant_store_paths,
)
from repro.provenance.store import (
    Checkpoint,
    InMemoryProvenanceStore,
    ProvenanceStore,
)


def record_for(object_id, seq_id, operation=Operation.UPDATE):
    digest = bytes([seq_id % 256]) * 20
    inputs = (
        ()
        if operation is Operation.INSERT
        else (ObjectState(object_id=object_id, digest=digest),)
    )
    return ProvenanceRecord(
        object_id=object_id,
        seq_id=seq_id,
        participant_id="p1",
        operation=operation,
        inputs=inputs,
        output=ObjectState(object_id=object_id, digest=digest),
        checksum=b"\xcd" * 64,
    )


def make_store(shards=4):
    return ShardedProvenanceStore(
        InMemoryProvenanceStore() for _ in range(shards)
    )


#: Enough ids that every shard of a 4-way store gets traffic.
OBJECTS = [f"obj{i}" for i in range(16)]


class TestRouting:
    def test_routing_is_stable_and_total(self):
        for oid in OBJECTS:
            idx = shard_index(oid, 4)
            assert 0 <= idx < 4
            assert shard_index(oid, 4) == idx  # repeatable

    def test_all_shards_used(self):
        assert {shard_index(oid, 4) for oid in OBJECTS} == {0, 1, 2, 3}

    def test_single_shard_short_circuit(self):
        assert shard_index("anything", 1) == 0

    def test_chain_never_spans_shards(self):
        store = make_store()
        for oid in OBJECTS:
            store.append(record_for(oid, 0, Operation.INSERT))
            store.append(record_for(oid, 1))
        for oid in OBJECTS:
            holders = [
                pos for pos, shard in enumerate(store.shards)
                if shard.records_for(oid)
            ]
            assert len(holders) == 1

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ProvenanceError):
            ShardedProvenanceStore(())


class TestProtocolConformance:
    """The sharded store behaves exactly like a single store."""

    def test_satisfies_protocol(self):
        assert isinstance(make_store(), ProvenanceStore)

    def test_matches_single_store(self):
        sharded, single = make_store(), InMemoryProvenanceStore()
        for target in (sharded, single):
            for oid in OBJECTS:
                target.append(record_for(oid, 0, Operation.INSERT))
                target.append(record_for(oid, 1))
        assert len(sharded) == len(single)
        assert sharded.object_ids() == single.object_ids()
        assert list(sharded.all_records()) == list(single.all_records())
        for oid in OBJECTS:
            assert sharded.records_for(oid) == single.records_for(oid)
            assert sharded.latest(oid) == single.latest(oid)
            assert sharded.get(oid, 1) == single.get(oid, 1)

    def test_append_many_spanning_shards(self):
        store = make_store()
        batch = [record_for(oid, 0, Operation.INSERT) for oid in OBJECTS]
        store.append_many(batch)
        assert len(store) == len(OBJECTS)

    def test_append_many_validates_before_any_shard_commits(self):
        store = make_store()
        store.append(record_for(OBJECTS[0], 0, Operation.INSERT))
        bad = [
            record_for(OBJECTS[1], 0, Operation.INSERT),
            record_for(OBJECTS[0], 0, Operation.INSERT),  # seq conflict
        ]
        with pytest.raises(SequenceError):
            store.append_many(bad)
        # Atomic across shards: the valid head record must not have landed.
        assert store.latest(OBJECTS[1]) is None

    def test_purge_and_space(self):
        store = make_store()
        store.append(record_for("A", 0, Operation.INSERT))
        assert store.space_bytes() > 0
        assert store.purge_object("A") == 1
        assert store.object_ids() == ()


class TestCrashSurface:
    def test_torn_batch_splits_global_prefix_per_shard(self):
        store = make_store()
        batch = [record_for(oid, 0, Operation.INSERT) for oid in OBJECTS[:8]]
        torn_ids = store.begin_torn_batch(batch, keep=3)
        # Exactly the first 3 records of the *global* batch survive,
        # regardless of which shard each landed on.
        surviving = {r.object_id for r in store.all_records()}
        assert surviving == {r.object_id for r in batch[:3]}
        # Every shard that received records left an uncommitted journal
        # entry for the recovery scanner...
        journal = store.journal()
        assert journal and all(not entry.committed for entry in journal)
        # ...and the returned ids name every torn sub-batch, not just one.
        assert sorted(torn_ids) == sorted(entry.batch_id for entry in journal)

    def test_torn_empty_batch_returns_no_ids(self):
        store = make_store()
        assert store.begin_torn_batch([], keep=0) == ()
        assert store.journal() == ()

    def test_resolve_torn_routes_by_encoded_id(self):
        store = make_store()
        batch = [record_for(oid, 0, Operation.INSERT) for oid in OBJECTS[:8]]
        store.begin_torn_batch(batch, keep=0)
        for entry in store.journal():
            for object_id, seq_id in entry.keys:
                store.discard(object_id, seq_id)
            store.resolve_torn(entry.batch_id)
        assert all(entry.committed for entry in store.journal())
        assert len(store) == 0

    def test_recovery_scanner_composes(self):
        from repro.faults.recovery import RecoveryScanner

        store = make_store()
        store.append(record_for("A", 0, Operation.INSERT))
        batch = [record_for(oid, 0, Operation.INSERT) for oid in OBJECTS[:8]]
        store.begin_torn_batch(batch, keep=2)
        report = RecoveryScanner(store).recover()
        assert not report.clean
        # Only the pre-crash record and fully-committed state remain;
        # every torn suffix is truncated and re-verifiable.
        assert all(entry.committed for entry in store.journal())
        assert store.latest("A").seq_id == 0

    def test_watermark_surface(self):
        store = make_store()
        for oid in OBJECTS[:4]:
            store.append(record_for(oid, 0, Operation.INSERT))
            store.set_watermark(Checkpoint(
                object_id=oid, index=1, seq_id=0, checksum=b"\xcd" * 64,
                output_digest=b"\xab" * 20, participant_id="p1",
            ))
        assert [wm.object_id for wm in store.watermarks()] == sorted(OBJECTS[:4])
        assert store.get_watermark(OBJECTS[0]).index == 1
        assert store.clear_watermark(OBJECTS[0])
        assert store.get_watermark(OBJECTS[0]) is None


class TestTenantLayout:
    def test_paths_are_percent_escaped(self, tmp_path):
        paths = tenant_store_paths(str(tmp_path), "../evil/../../t", 2)
        for path in paths:
            assert os.path.realpath(path).startswith(str(tmp_path))
            assert "/evil/" not in path

    @pytest.mark.parametrize("hostile", [".", "..", "...", "./..", "a/../.."])
    def test_dot_tenant_ids_cannot_escape_the_root(self, tmp_path, hostile):
        """Regression: '.' used to be in the safe set, so tenant '..'
        resolved its shard files into the PARENT of the store root."""
        root = tmp_path / "store"
        root.mkdir()
        paths = tenant_store_paths(str(root), hostile, 2)
        real_root = os.path.realpath(str(root))
        for path in paths:
            parent = os.path.dirname(os.path.realpath(path))
            assert parent.startswith(real_root + os.sep)
            assert parent != real_root  # never dumps shards into the root

    def test_dot_tenant_ids_get_distinct_directories(self, tmp_path):
        dirs = {
            os.path.dirname(tenant_store_paths(str(tmp_path), t, 1)[0])
            for t in (".", "..", "...", "%2e")
        }
        assert len(dirs) == 4

    def test_open_tenant_store_dot_tenant_stays_inside_root(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        store = open_tenant_store(str(root), "..", shards=1)
        try:
            store.append(record_for("A", 0, Operation.INSERT))
        finally:
            store.close()
        # Nothing was created outside (or directly inside) the root.
        assert sorted(os.listdir(tmp_path)) == ["store"]
        assert os.listdir(root) == ["%2e%2e"]

    def test_open_tenant_store_memory_vs_sqlite(self, tmp_path):
        memory = open_tenant_store(None, "t1", shards=3)
        assert len(memory.shards) == 3

        on_disk = open_tenant_store(str(tmp_path), "t1", shards=3)
        try:
            on_disk.append(record_for("A", 0, Operation.INSERT))
        finally:
            on_disk.close()
        files = sorted(os.listdir(tmp_path / "t1"))
        assert files == ["shard-0.sqlite", "shard-1.sqlite", "shard-2.sqlite"]

        # Re-opening routes the chain back to the shard that holds it.
        reopened = open_tenant_store(str(tmp_path), "t1", shards=3)
        try:
            assert reopened.latest("A").seq_id == 0
        finally:
            reopened.close()

    def test_distinct_tenants_distinct_directories(self, tmp_path):
        a = open_tenant_store(str(tmp_path), "alice", shards=1)
        b = open_tenant_store(str(tmp_path), "bob", shards=1)
        try:
            a.append(record_for("A", 0, Operation.INSERT))
            assert b.latest("A") is None
        finally:
            a.close()
            b.close()
