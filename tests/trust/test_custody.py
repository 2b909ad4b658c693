"""Custody hand-offs: dual-signed TRANSFER records and their forgeries."""

import pytest

from repro.core.verifier import Verifier
from repro.exceptions import ProvenanceError
from repro.provenance.records import CustodyTransfer, Operation, ProvenanceRecord
from repro.provenance.store import Checkpoint
from repro.trust.custody import (
    build_transfer_record,
    fabricate_handoff,
    reattribute_handoff,
    strip_handoff,
    transfer_custody,
)
from tests.trust.conftest import verify


def _handoff(world):
    """Alice (tail author is eve at seq 4) — hand custody eve -> mallory."""
    tail = world.db.provenance_store.latest("x")
    outgoing = world.participants[tail.participant_id]
    incoming = next(
        p for pid, p in sorted(world.participants.items())
        if pid != tail.participant_id
    )
    record = transfer_custody(
        world.db.provenance_store, "x", outgoing, incoming
    )
    return record, outgoing, incoming


def test_honest_handoff_verifies_clean(world):
    record, outgoing, incoming = _handoff(world)
    assert record.operation is Operation.TRANSFER
    assert record.transfer.from_participant == outgoing.participant_id
    assert record.transfer.to_participant == incoming.participant_id
    assert record.participant_id == incoming.participant_id
    # Custody moves; the value does not.
    assert record.output.digest == record.inputs[0].digest
    report = verify(world)
    assert report.ok, report.summary()


def test_chained_handoffs_verify_clean(world):
    for _ in range(3):
        _handoff(world)
    report = verify(world)
    assert report.ok, report.summary()


def test_only_the_tail_author_can_hand_off(world):
    tail = world.db.provenance_store.latest("x")
    non_holder = next(
        p for pid, p in sorted(world.participants.items())
        if pid != tail.participant_id
    )
    other = next(
        p for pid, p in sorted(world.participants.items())
        if pid not in (tail.participant_id, non_holder.participant_id)
    )
    with pytest.raises(ProvenanceError, match="chain-tail author"):
        build_transfer_record(tail, non_holder, other)


def test_self_transfer_is_rejected(world):
    tail = world.db.provenance_store.latest("x")
    holder = world.participants[tail.participant_id]
    with pytest.raises(ProvenanceError, match="themselves"):
        build_transfer_record(tail, holder, holder)


def test_transfer_record_serialization_roundtrip(world):
    record, _, _ = _handoff(world)
    clone = ProvenanceRecord.from_dict(record.to_dict())
    assert clone == record
    assert clone.transfer == record.transfer
    assert CustodyTransfer.from_dict(record.transfer.to_dict()) == record.transfer


def test_fabricated_handoff_is_custody_tampering(world):
    shipment = world.db.ship("x")
    tampered = fabricate_handoff(shipment, "x", world.mallory)
    report = tampered.verify_with_ca(world.db.ca.public_key, world.db.ca.name)
    assert not report.ok
    assert "CUSTODY" in report.failure_tally()


def test_forged_handoff_right_after_a_checkpoint_is_custody_tampering(world):
    """A recipient resuming from a checkpoint sees the same CUSTODY
    failure as a full verification: the checkpoint carries the tail's
    author, so the outgoing-custodian check runs at the seam too."""
    verifier = Verifier(world.db.keystore())
    checkpoint = Checkpoint.from_records("x", world.shipment.records)
    forged = fabricate_handoff(
        world.shipment, "x", world.mallory, claimed_from="mallory"
    )
    full = verifier.verify(forged.snapshot, forged.records, "x")
    resumed = verifier.verify(forged.snapshot, forged.records, resume=checkpoint)
    custody = [f for f in full.failures if f.requirement == "CUSTODY"]
    assert custody
    assert not resumed.ok
    assert [f for f in resumed.failures if f.requirement == "CUSTODY"] == custody


def test_reattributed_handoff_is_custody_tampering(world):
    record, _, incoming = _handoff(world)
    new_from = next(
        pid for pid in sorted(world.participants)
        if pid not in (record.transfer.from_participant, record.participant_id)
    )
    shipment = world.db.ship("x")
    tampered = reattribute_handoff(shipment, "x", record.seq_id, incoming, new_from)
    report = tampered.verify_with_ca(world.db.ca.public_key, world.db.ca.name)
    assert not report.ok
    assert "CUSTODY" in report.failure_tally()


def test_stripped_handoff_is_structural_tampering(world):
    record, _, incoming = _handoff(world)
    shipment = world.db.ship("x")
    tampered = strip_handoff(shipment, "x", record.seq_id, incoming)
    report = tampered.verify_with_ca(world.db.ca.public_key, world.db.ca.name)
    assert not report.ok
    assert "STRUCT" in report.failure_tally()
