"""Unit tests for the single-attacker tampering primitives."""

import pytest

from repro.attacks import tampering
from repro.attacks.scenarios import build_world
from repro.exceptions import ProvenanceError


@pytest.fixture(scope="module")
def world():
    return build_world()


def verify(world, shipment):
    return shipment.verify_with_ca(world.db.ca.public_key, world.db.ca.name)


class TestPurity:
    """Attacks must not mutate the original shipment."""

    def test_modify_is_pure(self, world):
        original_records = world.shipment.records
        tampering.modify_record_output(world.shipment, "x", 3, 777)
        assert world.shipment.records == original_records
        assert verify(world, world.shipment).ok

    def test_tamper_data_is_pure(self, world):
        tampering.tamper_data(world.shipment, "x", 777)
        assert world.shipment.snapshot.value_of("x") == 14


class TestFindAndReplace:
    def test_find_record(self, world):
        record = tampering.find_record(world.shipment, "x", 2)
        assert record.participant_id == "mallory"

    def test_find_missing(self, world):
        with pytest.raises(ProvenanceError):
            tampering.find_record(world.shipment, "x", 99)

    def test_modify_input_requires_inputs(self, world):
        with pytest.raises(ProvenanceError):
            tampering.modify_record_input(world.shipment, "x", 0, 5)  # genesis


class TestDetectionDetails:
    def test_modified_output_blames_signature(self, world):
        forged = tampering.modify_record_output(world.shipment, "x", 3, 777)
        report = verify(world, forged)
        assert any(
            f.requirement == "R1" and f.seq_id in (3, 4) for f in report.failures
        )

    def test_removal_of_last_record_caught_by_data_check(self, world):
        # Removing the terminal record makes data mismatch the new terminal.
        forged = tampering.remove_record(world.shipment, "x", 4)
        report = verify(world, forged)
        assert not report.ok
        assert "R4" in report.requirement_codes()

    def test_removal_of_genesis_caught(self, world):
        forged = tampering.remove_record(world.shipment, "x", 0)
        report = verify(world, forged)
        assert "R2" in report.requirement_codes()

    def test_forged_insert_at_tail_caught_by_data_check(self, world):
        # Appending a forged terminal record: the attacker CAN sign it and
        # chain it, but the shipped data no longer matches it.
        forged = tampering.insert_forged_record(
            world.shipment, world.mallory, "x", 5, fake_value=1_000_000
        )
        report = verify(world, forged)
        assert not report.ok
        assert "R4" in report.requirement_codes()

    def test_spliced_record_caught_mid_chain(self, world):
        forged = tampering.insert_forged_record(
            world.shipment, world.mallory, "x", 2, fake_value=55
        )
        report = verify(world, forged)
        assert "R3" in report.requirement_codes()

    def test_reassign_between_unrelated_objects(self, world):
        forged = tampering.reassign_provenance(world.shipment, world.other_shipment)
        report = verify(world, forged)
        assert report.failures[0].requirement == "R5"

    def test_attribution_to_other_enrolled_participant(self, world):
        forged = tampering.forge_attribution(world.shipment, "x", 2, "alice")
        report = verify(world, forged)
        # Alice's key does not verify Mallory's signature.
        assert "R1" in report.requirement_codes()

    def test_attribution_to_unknown_participant(self, world):
        forged = tampering.forge_attribution(world.shipment, "x", 2, "nobody")
        report = verify(world, forged)
        assert "PKI" in report.requirement_codes()


class TestStoreForgery:
    def test_zeroed_tail_checksum_fails_verification(self):
        from repro.core.verifier import Verifier
        from repro.workloads import signed_world

        db, _ = signed_world(2, 2, key_bits=512, seed=3)
        store = db.provenance_store
        forged = tampering.forge_stored_checksum(store, "obj1")
        assert store.latest("obj1") == forged
        assert set(forged.checksum) == {0}
        report = Verifier(db.keystore()).verify_records(list(store.all_records()))
        assert {f.object_id for f in report.failures} == {"obj1"}

    def test_reaches_through_a_sharded_store(self):
        from repro.provenance.registry import ShardedProvenanceStore
        from repro.provenance.store import InMemoryProvenanceStore
        from repro.workloads import signed_world

        store = ShardedProvenanceStore([InMemoryProvenanceStore() for _ in range(3)])
        source, _ = signed_world(4, 1, key_bits=512, seed=3)
        store.append_many(list(source.provenance_store.all_records()))
        forged = tampering.forge_stored_checksum(store, "obj2")
        assert store.latest("obj2") == forged
