"""Single-attacker tampering primitives.

All functions but one are pure: they take a legitimate shipment and
return a forged one, leaving the original untouched.  The attacker is
assumed to control the channel completely — they can rewrite records,
values, and even re-sign anything *with their own key*; what they cannot
do is forge other participants' signatures or find hash collisions
(§2.3).  :func:`forge_stored_checksum` is the store-side counterpart: an
attacker with raw write access to the provenance store itself.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.core import checksum as payloads
from repro.core.shipment import Shipment
from repro.crypto.hashing import hash_bytes
from repro.crypto.pki import Participant
from repro.exceptions import ProvenanceError
from repro.model.values import Value, encode_node
from repro.provenance.records import ObjectState, Operation, ProvenanceRecord
from repro.provenance.snapshot import SubtreeSnapshot

__all__ = [
    "attacker_checksum",
    "find_record",
    "replace_record",
    "modify_record_output",
    "modify_record_input",
    "remove_record",
    "insert_forged_record",
    "tamper_data",
    "reassign_provenance",
    "forge_attribution",
    "forge_stored_checksum",
]


def attacker_checksum(attacker: Participant, payload: bytes):
    """Sign ``payload`` the way the attacker's scheme legitimately would.

    Returns ``(checksum, proof)``.  For per-record schemes the proof is
    ``None``.  For the Merkle-batch scheme the attacker — who controls
    their own signing stack — seals a fresh single-leaf batch
    immediately, exactly as a real flush of one record would, so the
    forged record carries a self-consistent inclusion proof.  Leaving a
    victim's stale proof (or none) in place would make forgeries fail
    *trivially* rather than exercising the chain checks the requirements
    R1–R8 are about, and would spuriously flag the documented
    ``tail-rewrite`` boundary case that per-record signing cannot detect.
    """
    from repro.crypto.signatures import sign_detached

    return sign_detached(attacker.scheme, payload)


def find_record(shipment: Shipment, object_id: str, seq_id: int) -> ProvenanceRecord:
    """Locate a record by key.

    Raises:
        ProvenanceError: If no record matches.
    """
    for record in shipment.records:
        if record.key == (object_id, seq_id):
            return record
    raise ProvenanceError(f"no record ({object_id!r}, {seq_id}) in shipment")


def replace_record(
    shipment: Shipment, victim: ProvenanceRecord, forged: ProvenanceRecord
) -> Shipment:
    """Return a shipment with ``victim`` swapped for ``forged``."""
    records = tuple(
        forged if record.key == victim.key else record for record in shipment.records
    )
    return dataclasses.replace(shipment, records=records)


def modify_record_output(
    shipment: Shipment,
    object_id: str,
    seq_id: int,
    fake_value: Value,
    hash_algorithm: str = "sha1",
) -> Shipment:
    """R1: rewrite the *output* of another participant's record.

    The forged record claims the operation produced ``fake_value``; the
    digest is recomputed honestly (the attacker can hash), but the victim
    participant's signature cannot be regenerated.
    """
    victim = find_record(shipment, object_id, seq_id)
    fake_digest = hash_bytes(encode_node(object_id, fake_value), hash_algorithm)
    forged_output = dataclasses.replace(
        victim.output, digest=fake_digest, value=fake_value, has_value=True
    )
    return replace_record(
        shipment, victim, dataclasses.replace(victim, output=forged_output)
    )


def modify_record_input(
    shipment: Shipment,
    object_id: str,
    seq_id: int,
    fake_value: Value,
    hash_algorithm: str = "sha1",
) -> Shipment:
    """R1: rewrite the *input* of another participant's record."""
    victim = find_record(shipment, object_id, seq_id)
    if not victim.inputs:
        raise ProvenanceError("record has no inputs to tamper with")
    state = victim.inputs[0]
    fake_digest = hash_bytes(encode_node(state.object_id, fake_value), hash_algorithm)
    forged_state = dataclasses.replace(
        state, digest=fake_digest, value=fake_value, has_value=True
    )
    forged = dataclasses.replace(
        victim, inputs=(forged_state,) + victim.inputs[1:]
    )
    return replace_record(shipment, victim, forged)


def remove_record(shipment: Shipment, object_id: str, seq_id: int) -> Shipment:
    """R2: drop another participant's record from the provenance object."""
    find_record(shipment, object_id, seq_id)  # ensure it exists
    records = tuple(
        record for record in shipment.records if record.key != (object_id, seq_id)
    )
    return dataclasses.replace(shipment, records=records)


def insert_forged_record(
    shipment: Shipment,
    attacker: Participant,
    object_id: str,
    seq_id: int,
    fake_value: Value,
    hash_algorithm: str = "sha1",
) -> Shipment:
    """R3: splice a new (attacker-signed) record into the middle of a chain.

    The attacker signs honestly with their *own* key and even chains the
    forged record to the true predecessor — but they cannot re-sign the
    honest successor, whose checksum still covers the predecessor's
    checksum, so verification flags the splice.
    """
    try:
        predecessor: Optional[ProvenanceRecord] = find_record(
            shipment, object_id, seq_id - 1
        )
    except ProvenanceError:
        predecessor = None
    digest = hash_bytes(encode_node(object_id, fake_value), hash_algorithm)
    inputs: Tuple[ObjectState, ...]
    if predecessor is not None:
        inputs = (predecessor.output,)
        prevs: Tuple[bytes, ...] = (predecessor.checksum,)
        operation = Operation.UPDATE
    else:
        inputs = ()
        prevs = ()
        operation = Operation.INSERT
    forged = ProvenanceRecord(
        object_id=object_id,
        seq_id=seq_id,
        participant_id=attacker.participant_id,
        operation=operation,
        inputs=inputs,
        output=ObjectState(
            object_id=object_id, digest=digest, value=fake_value, has_value=True
        ),
        checksum=b"",
        scheme=attacker.scheme.scheme_name,
        hash_algorithm=hash_algorithm,
    )
    checksum, proof = attacker_checksum(
        attacker, payloads.record_payload(forged, prevs)
    )
    forged = forged.with_checksum(checksum).with_proof(proof)
    records = tuple(shipment.records) + (forged,)
    return dataclasses.replace(shipment, records=records)


def tamper_data(shipment: Shipment, object_id: str, fake_value: Value) -> Shipment:
    """R4: modify the delivered data without submitting provenance."""
    forest = shipment.snapshot.to_forest()
    forest.update(object_id, fake_value)
    snapshot = SubtreeSnapshot.capture(forest, shipment.snapshot.root_id)
    return dataclasses.replace(shipment, snapshot=snapshot)


def reassign_provenance(shipment: Shipment, other: Shipment) -> Shipment:
    """R5: attach the provenance object of one data object to another.

    Produces a shipment whose data is ``other``'s but whose provenance
    (and claimed target) is the original's.
    """
    return dataclasses.replace(shipment, snapshot=other.snapshot)


def forge_attribution(
    shipment: Shipment, object_id: str, seq_id: int, scapegoat_id: str
) -> Shipment:
    """R8: re-attribute a record to a participant who never signed it.

    Dual of non-repudiation: just as a signer cannot deny a valid
    signature, nobody can be *assigned* one — the scapegoat's key does not
    verify the checksum.
    """
    victim = find_record(shipment, object_id, seq_id)
    forged = dataclasses.replace(victim, participant_id=scapegoat_id)
    return replace_record(shipment, victim, forged)


def forge_stored_checksum(store, object_id: str) -> ProvenanceRecord:
    """R1 in the store: zero the checksum of ``object_id``'s tail record.

    Models an attacker with raw write access to the provenance store
    (memory, SQLite or sharded): the tail is discarded and re-appended
    forged, going around every signature check on purpose.  Returns the
    forged record.
    """
    tail = store.latest(object_id)
    forged = dataclasses.replace(tail, checksum=b"\x00" * max(1, len(tail.checksum)))
    store.discard(object_id, tail.seq_id)
    store.append(forged)
    return forged
