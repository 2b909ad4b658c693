"""The seeded signed world shared by the benchmarks and the CLI."""

from repro.workloads import signed_world


def test_shape_values_and_signer():
    db, writer = signed_world(3, 2, key_bits=512, seed=5, participant="w")
    store = db.provenance_store
    assert store.object_ids() == ("obj0", "obj1", "obj2")
    assert len(store) == 3 * (1 + 2)
    assert {r.participant_id for r in store.all_records()} == {writer.participant_id} == {"w"}
    assert db.store.value("obj2") == 2 * 1000 + 1
    assert db.verify("obj1").ok


def test_same_seed_same_records():
    first, _ = signed_world(2, 1, key_bits=512, seed=9)
    second, _ = signed_world(2, 1, key_bits=512, seed=9)
    assert list(first.provenance_store.all_records()) == list(
        second.provenance_store.all_records()
    )
