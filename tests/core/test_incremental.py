"""Unit tests for incremental (checkpoint-resumed) recipient verification."""

import dataclasses

import pytest

from repro.core.verifier import Verifier
from repro.exceptions import VerificationError
from repro.provenance.snapshot import SubtreeSnapshot
from repro.provenance.store import Checkpoint


@pytest.fixture
def world(tedb, participants, keystore):
    session = tedb.session(participants["p1"])
    session.insert("feed", 1)
    session.update("feed", 2)
    verifier = Verifier(keystore)
    shipment = tedb.ship("feed")
    assert verifier.verify(shipment.snapshot, shipment.records, "feed").ok
    checkpoint = Checkpoint.from_records("feed", shipment.records)
    return tedb, session, verifier, checkpoint


class TestCheckpoint:
    def test_from_records(self, world):
        _, _, _, checkpoint = world
        assert checkpoint.object_id == "feed"
        assert checkpoint.seq_id == 1

    def test_no_records_rejected(self, world):
        with pytest.raises(VerificationError):
            Checkpoint.from_records("ghost", ())

    def test_json_roundtrip(self, world):
        _, _, _, checkpoint = world
        assert Checkpoint.from_dict(checkpoint.to_dict()) == checkpoint

    def test_malformed_json_rejected(self):
        with pytest.raises(VerificationError):
            Checkpoint.from_dict({})
        with pytest.raises(VerificationError):
            Checkpoint.from_dict("not json")


class TestVerifyExtension:
    def _delivery(self, db, checkpoint):
        records = [
            r for r in db.provenance_of("feed") if r.seq_id > checkpoint.seq_id
        ]
        snapshot = SubtreeSnapshot.capture(db.store, "feed")
        return snapshot, records

    def test_clean_extension(self, world, participants):
        db, session, verifier, checkpoint = world
        session.update("feed", 3)
        db.session(participants["p2"]).update("feed", 4)
        snapshot, records = self._delivery(db, checkpoint)
        report = verifier.verify(snapshot, records, resume=checkpoint)
        assert report.ok, report.summary()
        assert report.records_checked == 2

    def test_empty_extension_checks_data(self, world):
        db, _, verifier, checkpoint = world
        snapshot, records = self._delivery(db, checkpoint)
        assert records == []
        report = verifier.verify(snapshot, records, resume=checkpoint)
        assert report.ok

    def test_full_chain_reshipped_is_fine(self, world):
        db, session, verifier, checkpoint = world
        session.update("feed", 3)
        snapshot = SubtreeSnapshot.capture(db.store, "feed")
        all_records = db.provenance_of("feed")  # includes verified prefix
        report = verifier.verify(snapshot, all_records, resume=checkpoint)
        assert report.ok
        assert report.records_checked == 1  # only the new record

    def test_first_new_record_must_chain_to_checkpoint(self, world):
        db, session, verifier, checkpoint = world
        session.update("feed", 3)
        snapshot, records = self._delivery(db, checkpoint)
        forged_input = dataclasses.replace(records[0].inputs[0], digest=b"\x00" * 20)
        records[0] = dataclasses.replace(records[0], inputs=(forged_input,))
        report = verifier.verify(snapshot, records, resume=checkpoint)
        assert not report.ok
        assert "R1" in report.requirement_codes()

    def test_missing_record_detected(self, world, participants):
        db, session, verifier, checkpoint = world
        session.update("feed", 3)
        session.update("feed", 4)
        snapshot, records = self._delivery(db, checkpoint)
        report = verifier.verify(snapshot, records[1:], resume=checkpoint)
        assert not report.ok
        assert "R2" in report.requirement_codes()

    def test_forged_signature_detected(self, world):
        db, session, verifier, checkpoint = world
        session.update("feed", 3)
        snapshot, records = self._delivery(db, checkpoint)
        records[0] = records[0].with_checksum(b"\x00" * len(records[0].checksum))
        report = verifier.verify(snapshot, records, resume=checkpoint)
        assert not report.ok
        assert "R1" in report.requirement_codes()

    def test_stale_data_detected(self, world):
        db, session, verifier, checkpoint = world
        snapshot = SubtreeSnapshot.capture(db.store, "feed")  # state at seq 1
        session.update("feed", 3)
        records = [r for r in db.provenance_of("feed") if r.seq_id > checkpoint.seq_id]
        report = verifier.verify(snapshot, records, resume=checkpoint)
        assert not report.ok
        assert "R4" in report.requirement_codes()

    def test_wrong_object_detected(self, world, participants):
        db, session, verifier, checkpoint = world
        db.session(participants["p2"]).insert("other", 9)
        snapshot = SubtreeSnapshot.capture(db.store, "other")
        report = verifier.verify(snapshot, [], resume=checkpoint)
        assert not report.ok
        assert "R5" in report.requirement_codes()

    def test_aggregation_forces_full_verification(self, world, participants):
        db, session, verifier, checkpoint = world
        session.insert("side", 1)
        # An aggregate record *for the checkpointed object's chain* would
        # only arise if 'feed' were re-created by aggregation; simulate by
        # shipping an aggregate record labelled for feed.
        agg = db.session(participants["p2"]).aggregate(["feed", "side"], "merged")
        relabelled = dataclasses.replace(
            agg,
            object_id="feed",
            seq_id=checkpoint.seq_id + 1,
            output=dataclasses.replace(agg.output, object_id="feed"),
        )
        snapshot = SubtreeSnapshot.capture(db.store, "feed")
        report = verifier.verify(snapshot, [relabelled], resume=checkpoint)
        assert not report.ok
        assert "STRUCT" in report.requirement_codes()

    def test_unknown_participant_detected(self, world):
        db, session, verifier, checkpoint = world
        session.update("feed", 3)
        snapshot, records = self._delivery(db, checkpoint)
        records[0] = dataclasses.replace(records[0], participant_id="stranger")
        report = verifier.verify(snapshot, records, resume=checkpoint)
        assert not report.ok
        assert "PKI" in report.requirement_codes()

    def test_checkpoint_advances(self, world):
        db, session, verifier, checkpoint = world
        session.update("feed", 3)
        snapshot, records = self._delivery(db, checkpoint)
        assert verifier.verify(snapshot, records, resume=checkpoint).ok
        # Recipient rolls the checkpoint forward and verifies the next drop.
        new_checkpoint = Checkpoint.from_records(
            "feed", list(db.provenance_of("feed"))
        )
        session.update("feed", 4)
        snapshot2, records2 = self._delivery(db, new_checkpoint)
        report = verifier.verify(snapshot2, records2, resume=new_checkpoint)
        assert report.ok
        assert report.records_checked == 1
