"""Unit tests for Merkle-batch signatures: tree helpers, proofs, scheme.

The chain-level behaviour (detection equivalence with per-record RSA)
lives in ``tests/faults/test_scheme_equivalence.py`` and the chaos
matrix; this file pins the building blocks.
"""

import dataclasses
import random
import threading

import pytest

from repro.core.merkle import (
    batch_audit_path,
    batch_audit_paths,
    batch_leaf,
    batch_root,
    resolve_batch_root,
)
from repro.crypto.proofs import BatchProof, batch_root_message
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import (
    MERKLE_BATCH_SCHEME,
    MerkleBatchSignatureScheme,
    record_signature_valid,
    sign_detached,
)
from repro.exceptions import ProvenanceError


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(512, rng=random.Random(9))


@pytest.fixture()
def scheme(keypair):
    return MerkleBatchSignatureScheme(keypair.private)


# ---------------------------------------------------------------------------
# tree helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", (1, 2, 3, 4, 5, 8, 13))
def test_audit_paths_resolve_to_the_root(count):
    leaves = [batch_leaf(f"payload {i}".encode()) for i in range(count)]
    root = batch_root(leaves)
    for index, path in enumerate(batch_audit_paths(leaves)):
        assert path == batch_audit_path(leaves, index)
        assert resolve_batch_root(leaves[index], index, count, path) == root


def test_leaf_and_node_domains_are_separated():
    # A leaf digest of (a || b) must differ from the internal node over
    # leaves a, b — otherwise a forged "leaf" could impersonate a subtree.
    a, b = batch_leaf(b"a"), batch_leaf(b"b")
    assert batch_leaf(a + b) != batch_root([a, b])


def test_tampered_leaf_or_path_changes_the_root():
    leaves = [batch_leaf(bytes([i])) for i in range(4)]
    root = batch_root(leaves)
    path = batch_audit_path(leaves, 2)
    assert resolve_batch_root(batch_leaf(b"evil"), 2, 4, path) != root
    bad_path = (bytes(20),) + tuple(path[1:])
    assert resolve_batch_root(leaves[2], 2, 4, bad_path) != root


def test_resolve_rejects_malformed_shapes():
    leaves = [batch_leaf(bytes([i])) for i in range(4)]
    path = batch_audit_path(leaves, 1)
    with pytest.raises(ProvenanceError):
        resolve_batch_root(leaves[1], 1, 4, path[:-1])  # too short
    with pytest.raises(ProvenanceError):
        resolve_batch_root(leaves[1], 1, 4, path + (bytes(20),))  # too long
    with pytest.raises(ProvenanceError):
        resolve_batch_root(leaves[1], 4, 4, path)  # index out of range
    with pytest.raises(ProvenanceError):
        batch_root([])


# ---------------------------------------------------------------------------
# BatchProof
# ---------------------------------------------------------------------------


def test_batch_proof_roundtrip_and_validation():
    proof = BatchProof(
        epoch=3, index=1, count=4, path=(b"\x01" * 20, b"\x02" * 20),
        root_signature=b"\x03" * 64,
    )
    assert BatchProof.from_dict(proof.to_dict()) == proof
    assert proof.storage_bytes() == 12 + 40 + 64
    with pytest.raises(ProvenanceError):
        BatchProof(epoch=0, index=4, count=4, path=(), root_signature=b"s")
    with pytest.raises(ProvenanceError):
        BatchProof(epoch=0, index=0, count=0, path=(), root_signature=b"s")
    with pytest.raises(ProvenanceError):
        BatchProof.from_dict({"epoch": "x"})


def test_root_message_binds_epoch_count_and_root():
    root = batch_leaf(b"r")
    messages = {
        batch_root_message(0, 1, root),
        batch_root_message(1, 1, root),
        batch_root_message(0, 2, root),
        batch_root_message(0, 1, batch_leaf(b"other")),
    }
    assert len(messages) == 4


# ---------------------------------------------------------------------------
# the scheme
# ---------------------------------------------------------------------------


def test_sign_buffers_and_seal_drains(scheme):
    payloads = [f"p{i}".encode() for i in range(5)]
    checksums = [scheme.sign(p) for p in payloads]
    assert checksums == [batch_leaf(p) for p in payloads]  # deterministic
    proofs = scheme.seal_batch(checksums)
    assert len(proofs) == 5
    for payload, checksum, proof in zip(payloads, checksums, proofs):
        assert proof.count == 5
        assert scheme.verify_with_proof(payload, checksum, proof)
    # Epochs advance per sealed batch.
    (next_proof,) = scheme.seal_batch([scheme.sign(b"next")])
    assert next_proof.epoch == proofs[0].epoch + 1
    assert next_proof.count == 1 and next_proof.path == ()


def test_seal_empty_batch_is_a_noop(scheme):
    assert scheme.seal_batch(()) == ()


def test_proof_from_wrong_record_does_not_verify(scheme):
    payloads = [b"a", b"b", b"c"]
    checksums = [scheme.sign(p) for p in payloads]
    proofs = scheme.seal_batch(checksums)
    assert not scheme.verify_with_proof(payloads[0], checksums[0], proofs[1])
    assert not scheme.verify_with_proof(b"evil", batch_leaf(b"evil"), proofs[0])


def test_record_signature_valid_dispatches_on_proof(scheme, keypair):
    from repro.provenance.records import ObjectState, ProvenanceRecord, Operation

    payload = b"record payload"
    checksum = scheme.sign(payload)
    (proof,) = scheme.seal_batch([checksum])
    record = ProvenanceRecord(
        object_id="x",
        seq_id=0,
        participant_id="p",
        operation=Operation.INSERT,
        inputs=(),
        output=ObjectState(object_id="x", digest=b"\x00" * 20),
        checksum=checksum,
        scheme=MERKLE_BATCH_SCHEME,
        proof=proof,
    )
    verifier = scheme.verifier()
    cache = {}
    assert record_signature_valid(verifier, record, payload, cache)
    assert len(cache) == 1  # root verification memoized
    # Stripping the proof falls back to (failing) per-record verification.
    assert not record_signature_valid(verifier, record.with_proof(None), payload)
    # A record that never had a proof uses plain key.verify.
    from repro.crypto.signatures import RSASignatureScheme

    rsa = RSASignatureScheme(keypair.private)
    plain = dataclasses.replace(
        record, scheme="rsa-pkcs1v15", proof=None,
        checksum=rsa.sign(payload),
    )
    assert record_signature_valid(rsa.verifier(), plain, payload)


def test_a_batch_seals_on_another_thread_than_the_one_that_signed_it(scheme):
    payloads = [b"signed on one thread", b"sealed on another"]
    leaves = [scheme.sign(p) for p in payloads]
    sealed = []
    worker = threading.Thread(target=lambda: sealed.append(scheme.seal_batch(leaves)))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    (proofs,) = sealed
    assert [proof.count for proof in proofs] == [2, 2]
    assert all(map(scheme.verify_with_proof, payloads, leaves, proofs))


def test_a_detached_signature_between_signs_and_seal_is_its_own_batch(scheme):
    payloads = [b"batch leaf 0", b"batch leaf 1"]
    leaves = [scheme.sign(p) for p in payloads]
    checksum, detached = sign_detached(scheme, b"countersignature")
    assert detached.count == 1
    assert scheme.verify_with_proof(b"countersignature", checksum, detached)
    proofs = scheme.seal_batch(leaves)
    assert [proof.count for proof in proofs] == [2, 2]
    assert proofs[0].epoch == detached.epoch + 1
    assert all(map(scheme.verify_with_proof, payloads, leaves, proofs))


# ---------------------------------------------------------------------------
# persistence: proofs survive every serialization path
# ---------------------------------------------------------------------------


def test_proofs_survive_store_and_shipment_roundtrips(tmp_path):
    from repro.core.system import TamperEvidentDatabase
    from repro.core.shipment import Shipment
    from repro.provenance.store import SQLiteProvenanceStore

    store = SQLiteProvenanceStore(str(tmp_path / "prov.db"))
    db = TamperEvidentDatabase(
        provenance_store=store,
        key_bits=512,
        rng=random.Random(1),
        signature_scheme="merkle-batch",
    )
    session = db.session(db.enroll("writer"))
    with session.complex_operation():
        for i in range(3):
            session.insert(f"o{i}", i)
    records = list(store.all_records())
    assert all(r.proof is not None and r.proof.count == 3 for r in records)
    shipment = db.ship("o0")
    restored = Shipment.from_json(shipment.to_json())
    assert [r.proof for r in restored.records] == [
        r.proof for r in shipment.records
    ]
    report = restored.verify_with_ca(db.ca.public_key, db.ca.name)
    assert report.ok, report.summary()


def test_incremental_verification_accepts_merkle_extensions():
    from repro.core.system import TamperEvidentDatabase
    from repro.core.verifier import Verifier
    from repro.provenance.snapshot import SubtreeSnapshot
    from repro.provenance.store import Checkpoint

    db = TamperEvidentDatabase(
        key_bits=512, rng=random.Random(2), signature_scheme="merkle-batch"
    )
    session = db.session(db.enroll("writer"))
    session.insert("x", 1)
    session.update("x", 2)
    records = list(db.provenance_of("x"))
    verifier = Verifier(db.keystore())
    assert verifier.verify_records(records).ok
    checkpoint = Checkpoint.from_records("x", records)
    session.update("x", 3)
    new_records = list(db.provenance_of("x"))
    snapshot = SubtreeSnapshot.capture(db.store, "x")
    report = verifier.verify(snapshot, new_records, resume=checkpoint)
    assert report.ok, report.summary()
    # A tampered extension record still fails R1.
    tail = new_records[-1]
    bad = tail.with_proof(
        dataclasses.replace(tail.proof, epoch=tail.proof.epoch + 7)
    )
    report = verifier.verify(
        snapshot, new_records[:-1] + [bad], resume=checkpoint
    )
    assert not report.ok
    assert report.failures[0].requirement == "R1"
