"""Anchoring tests: the tail-truncation boundary, closed.

Without anchors, colluders owning a chain's tail can truncate history
undetectably (pinned in ``test_collusion.py``).  With one anchored
checksum past the victim record, the same attack must be detected.
"""

import dataclasses

import pytest

from repro.attacks import collusion
from repro.attacks.scenarios import build_world
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import RSASignatureScheme
from repro.exceptions import VerificationError
from repro.provenance.store import Checkpoint
from repro.trust.witness import AnchorLog, Witness, check_anchors


@pytest.fixture(scope="module")
def anchored_world():
    import random

    world = build_world()
    keypair = generate_keypair(512, rng=random.Random(0xA11C))
    witness = Witness(RSASignatureScheme(keypair.private))
    # The recipient (e.g. a regulator) had the terminal state anchored
    # while the history was still honest.
    anchor_latest(world, witness, "x")
    return world, witness


def anchor_latest(world, witness, object_id):
    store = world.db.provenance_store
    return witness.anchor(
        Checkpoint.from_records(object_id, store.records_for(object_id))
    )


def keystore(world):
    store = world.db.keystore()
    return store


def verify_with_log(shipment, keystore, log, verifier):
    """Shipment verification plus the log check over the shipped objects."""
    report = shipment.verify(keystore)
    mismatches = check_anchors(
        shipment, log, verifier, {r.object_id for r in shipment.records}
    )
    return dataclasses.replace(
        report, ok=report.ok and not mismatches,
        failures=report.failures + mismatches,
    )


class TestWitnessAnchoring:
    def test_receipts_accumulate(self, anchored_world):
        world, witness = anchored_world
        anchors = [a for a in witness.log if a.checkpoint.object_id == "x"]
        assert len(anchors) >= 1
        assert anchors[0].checkpoint.seq_id == 4  # the honest terminal record
        assert anchors[0].position == 0

    def test_anchor_unknown_object_rejected(self, anchored_world):
        world, witness = anchored_world
        with pytest.raises(VerificationError):
            anchor_latest(world, witness, "ghost")


class TestAnchoredVerification:
    def test_honest_shipment_passes(self, anchored_world):
        world, witness = anchored_world
        report = verify_with_log(
            world.shipment,
            keystore(world),
            witness.log,
            witness.verifier(),
        )
        assert report.ok, report.summary()

    def test_tail_rewrite_now_detected(self, anchored_world):
        """The documented boundary case, closed by one anchor."""
        world, witness = anchored_world
        forged = collusion.tail_rewrite(world.shipment, "x", 3, world.eve)
        # Plain verification still cannot see it...
        assert forged.verify(keystore(world)).ok
        # ...but the anchored terminal record is gone from the chain.
        report = verify_with_log(
            forged, keystore(world), witness.log, witness.verifier()
        )
        assert not report.ok
        assert "R7" in report.requirement_codes()

    def test_rewrite_at_anchored_seq_detected(self, anchored_world):
        """Forging a *different* record at the anchored seq is caught by
        the checksum mismatch."""
        world, witness = anchored_world
        anchored = witness.log.latest_for("x")
        victim = next(
            r for r in world.shipment.records if r.key == ("x", anchored.seq_id)
        )
        forged_record = victim.with_checksum(b"\x01" * len(victim.checksum))
        records = tuple(
            forged_record if r.key == victim.key else r
            for r in world.shipment.records
        )
        forged = dataclasses.replace(world.shipment, records=records)
        report = verify_with_log(
            forged, keystore(world), witness.log, witness.verifier()
        )
        assert not report.ok
        assert "R7" in report.requirement_codes()

    def test_fabricated_receipt_rejected(self, anchored_world):
        """An attacker cannot invent anchors: the witness signature fails."""
        world, witness = anchored_world
        genuine = witness.log.entries[0]
        fake = dataclasses.replace(
            genuine, checkpoint=dataclasses.replace(genuine.checkpoint, seq_id=99)
        )
        report = verify_with_log(
            world.shipment, keystore(world), AnchorLog([fake]), witness.verifier()
        )
        assert not report.ok
        assert any(f.requirement == "ANCHOR" for f in report.failures)

    def test_receipts_for_other_objects_ignored(self, anchored_world):
        world, witness = anchored_world
        anchor_latest(world, witness, "y")
        report = verify_with_log(
            world.shipment,
            keystore(world),
            witness.log,  # y is not in x's shipment
            witness.verifier(),
        )
        assert report.ok

    def test_underlying_tampering_still_reported(self, anchored_world):
        from repro.attacks import tampering

        world, witness = anchored_world
        forged = tampering.remove_record(world.shipment, "x", 2)
        report = verify_with_log(
            forged, keystore(world), witness.log, witness.verifier()
        )
        assert not report.ok
        assert "R2" in report.requirement_codes()
