"""Witness anchoring: the anchor log, check_anchors, and the monitor rule.

The headline theorem: a full-coalition store rewrite passes every chain
check (see test_coalition.py) but contradicts the witness anchor log —
the witnessed monitor flags it as ``witness-mismatch`` tampering.
"""

import dataclasses

import pytest

from repro.exceptions import ProvenanceError, VerificationError
from repro.monitor.monitor import ProvenanceMonitor
from repro.trust.coalition import rewrite_store_suffix
from repro.trust.witness import AnchorLog, Witness, WitnessAnchor, check_anchors


@pytest.fixture
def witness():
    return Witness.generate(key_bits=512, seed=0x517)


def test_tick_anchors_every_tail_once(world, witness):
    store = world.db.provenance_store
    fresh = witness.tick(store)
    assert [a.checkpoint.object_id for a in fresh] == ["x", "y"]
    assert all(
        a.checkpoint.seq_id == store.latest(a.checkpoint.object_id).seq_id
        for a in fresh
    )
    # Idle store → nothing new; one update → exactly one new anchor.
    assert witness.tick(store) == ()
    world.db.session(world.alice).update("y", 101)
    again = witness.tick(store)
    assert [a.checkpoint.object_id for a in again] == ["y"]
    assert len(witness.log) == 3


def test_log_rejects_gaps_and_broken_links(world, witness):
    witness.tick(world.db.provenance_store)
    good = witness.log.entries[-1]
    with pytest.raises(VerificationError, match="does not continue"):
        witness.log.append(dataclasses.replace(good, position=good.position + 2))
    with pytest.raises(VerificationError, match="hash-link"):
        witness.log.append(
            dataclasses.replace(good, position=len(witness.log), prev_digest=b"xx")
        )


def test_log_audit_catches_insider_edits(world, witness):
    store = world.db.provenance_store
    witness.tick(store)
    assert check_anchors(store, witness.log, witness.verifier()) == ()
    # An insider swaps an anchored checksum: the witness signature no
    # longer covers the payload, and the next entry's link breaks.
    original = witness.log.entries[0]
    witness.log.entries[0] = dataclasses.replace(
        original,
        checkpoint=dataclasses.replace(original.checkpoint, checksum=b"\x00" * 20),
    )
    problems = check_anchors(store, witness.log, witness.verifier())
    reasons = [f.message for f in problems if f.requirement == "ANCHOR"]
    assert any("signature" in reason for reason in reasons)
    assert any("hash link" in reason for reason in reasons)


def test_log_save_load_roundtrip(world, witness, tmp_path):
    witness.tick(world.db.provenance_store)
    path = str(tmp_path / "anchors.jsonl")
    witness.log.save(path)
    loaded = AnchorLog.load(path)
    assert loaded.entries == witness.log.entries
    store = world.db.provenance_store
    assert check_anchors(store, loaded, witness.verifier()) == ()
    assert AnchorLog.load(str(tmp_path / "missing.jsonl")).entries == []


def test_anchor_serialization_roundtrip(world, witness):
    anchor = witness.tick(world.db.provenance_store)[0]
    assert WitnessAnchor.from_dict(anchor.to_dict()) == anchor
    with pytest.raises(VerificationError, match="malformed"):
        WitnessAnchor.from_dict({"position": "nope"})


def test_check_anchors_flags_rewrite_and_truncation(world, witness):
    store = world.db.provenance_store
    witness.tick(store)
    assert check_anchors(store, witness.log, witness.verifier()) == ()
    # Full-coalition rewrite of x's tail: chain checks pass, anchors don't.
    tail = store.latest("x")
    rewrite_store_suffix(
        store, "x", tail.seq_id, list(world.participants.values()), 31337
    )
    mismatches = check_anchors(store, witness.log, witness.verifier())
    assert [(m.object_id, m.seq_id) for m in mismatches] == [("x", tail.seq_id)]
    assert "rewritten" in mismatches[0].message
    # Truncating y past its anchor is a second, distinct mismatch class.
    y_tail = store.latest("y")
    store.discard("y", y_tail.seq_id)
    mismatches = check_anchors(store, witness.log, witness.verifier())
    assert any("missing" in m.message for m in mismatches)


def test_witnessed_monitor_closes_the_full_coalition_gap(world, witness):
    """The acceptance criterion: undetectable without the witness,
    ``witness-mismatch`` tampering with it."""
    store = world.db.provenance_store
    witness.tick(store)
    tail = store.latest("x")
    rewrite_store_suffix(
        store, "x", tail.seq_id, list(world.participants.values()), 986543
    )
    plain = ProvenanceMonitor(store, world.db.keystore())
    assert plain.tick().health == "ok"

    watched = ProvenanceMonitor(
        store,
        world.db.keystore(),
        witness_log=witness.log,
        witness_verifier=witness.verifier(),
    )
    result = watched.tick()
    assert result.health == "tampered"
    alerts = [a for a in result.alerts if a.rule == "witness-mismatch"]
    assert alerts and all(a.tampering for a in alerts)
    assert alerts[0].fields["object_id"] == "x"
    # The mismatch persists on the idle fast path: nothing new to
    # verify, but the anchors still contradict the store.
    assert watched.tick().health == "tampered"


def test_clean_witnessed_monitor_stays_ok(world, witness):
    store = world.db.provenance_store
    witness.tick(store)
    watched = ProvenanceMonitor(
        store,
        world.db.keystore(),
        witness_log=witness.log,
        witness_verifier=witness.verifier(),
    )
    assert watched.tick().health == "ok"
    world.db.session(world.alice).update("x", 15)
    witness.tick(store)
    assert watched.tick().health == "ok"


def test_monitor_rejects_half_a_witness(world, witness):
    store = world.db.provenance_store
    with pytest.raises(ProvenanceError, match="together"):
        ProvenanceMonitor(store, world.db.keystore(), witness_log=witness.log)
    with pytest.raises(ProvenanceError, match="together"):
        ProvenanceMonitor(
            store, world.db.keystore(), witness_verifier=witness.verifier()
        )
