"""Custody hand-offs: dual-signed ``TRANSFER`` records.

A hand-off moves responsibility for an object from one participant to
another *without changing the object's value*.  The record is
update-shaped (it chains on the predecessor and carries the object's own
prior state as its single input) and dual-signed:

- the **incoming** custodian signs the record checksum as usual — the
  signed payload includes the hand-off block, countersignature bytes and
  all (:func:`repro.core.checksum.record_payload`);
- the **outgoing** custodian countersigns a domain-tagged message binding
  ``(object_id, seq_id, from, to, prev_checksum, output_digest)``
  (:func:`repro.core.checksum.transfer_message`).

The verifier enforces, per ``TRANSFER`` record: the hand-off block is
present, the incoming custodian is the record's signer, the outgoing
custodian authored the predecessor record, and the countersignature
verifies under the outgoing custodian's certified key.  The attack
helpers at the bottom of this module produce the forgeries the
conformance suite proves are caught.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core import checksum as payloads
from repro.core.shipment import Shipment
from repro.crypto.pki import Participant
from repro.crypto.signatures import sign_detached
from repro.exceptions import ProvenanceError
from repro.obs import OBS
from repro.provenance.records import (
    CustodyTransfer,
    Operation,
    ProvenanceRecord,
)

__all__ = [
    "build_transfer_record",
    "transfer_custody",
    "fabricate_handoff",
    "reattribute_handoff",
    "strip_handoff",
]


def build_transfer_record(
    previous: ProvenanceRecord,
    outgoing: Participant,
    incoming: Participant,
    note: str = "",
) -> ProvenanceRecord:
    """Construct (and dual-sign) the ``TRANSFER`` record following
    ``previous``.

    Raises:
        ProvenanceError: If ``outgoing`` did not author ``previous`` —
            custody can only be handed off by the current holder, i.e.
            whoever signed the chain tail (the same condition the
            verifier later enforces).
    """
    if previous.participant_id != outgoing.participant_id:
        raise ProvenanceError(
            f"custody of {previous.object_id!r} can only be handed off by "
            f"{previous.participant_id!r} (the chain-tail author), not "
            f"{outgoing.participant_id!r}"
        )
    if outgoing.participant_id == incoming.participant_id:
        raise ProvenanceError(
            f"{incoming.participant_id!r} cannot hand custody to themselves"
        )
    seq_id = previous.seq_id + 1
    message = payloads.transfer_message(
        previous.object_id,
        seq_id,
        outgoing.participant_id,
        incoming.participant_id,
        previous.checksum,
        previous.output.digest,
    )
    countersignature, counter_proof = sign_detached(outgoing.scheme, message)
    transfer = CustodyTransfer(
        from_participant=outgoing.participant_id,
        to_participant=incoming.participant_id,
        countersignature=countersignature,
        counter_scheme=outgoing.scheme.scheme_name,
        counter_proof=counter_proof,
    )
    record = ProvenanceRecord(
        object_id=previous.object_id,
        seq_id=seq_id,
        participant_id=incoming.participant_id,
        operation=Operation.TRANSFER,
        inputs=(previous.output,),
        output=dataclasses.replace(previous.output),
        checksum=b"",
        scheme=incoming.scheme.scheme_name,
        hash_algorithm=previous.hash_algorithm,
        note=note,
        transfer=transfer,
    )
    checksum, proof = sign_detached(
        incoming.scheme, payloads.record_payload(record, (previous.checksum,))
    )
    return record.with_checksum(checksum).with_proof(proof)


def transfer_custody(
    store,
    object_id: str,
    outgoing: Participant,
    incoming: Participant,
    note: str = "",
) -> ProvenanceRecord:
    """Hand custody of ``object_id`` from ``outgoing`` to ``incoming``.

    Appends the dual-signed ``TRANSFER`` record to ``store`` (any
    provenance store) and returns it.  The object's value is untouched —
    only responsibility moves, so the data snapshot stays valid (R4).
    """
    previous = store.latest(object_id)
    if previous is None:
        raise ProvenanceError(
            f"no provenance records for {object_id!r}; nothing to hand off"
        )
    record = build_transfer_record(previous, outgoing, incoming, note=note)
    store.append_many([record])
    log = OBS.events
    if log is not None:
        log.emit(
            "trust.transfer",
            object_id=object_id,
            seq_id=record.seq_id,
            from_participant=outgoing.participant_id,
            to_participant=incoming.participant_id,
        )
    return record


# ----------------------------------------------------------------------
# attack primitives (pure shipment transforms, like repro.attacks)
# ----------------------------------------------------------------------


def _chain(shipment: Shipment, object_id: str):
    chain = sorted(
        (r for r in shipment.records if r.object_id == object_id),
        key=lambda r: r.seq_id,
    )
    if not chain:
        raise ProvenanceError(f"no records for {object_id!r} in shipment")
    return chain


def _find_transfer(
    shipment: Shipment, object_id: str, seq_id: int
) -> ProvenanceRecord:
    from repro.attacks.tampering import find_record

    record = find_record(shipment, object_id, seq_id)
    if record.operation is not Operation.TRANSFER or record.transfer is None:
        raise ProvenanceError(
            f"record ({object_id!r}, {seq_id}) is not a custody transfer"
        )
    return record


def _resign_as_incoming(
    shipment: Shipment,
    victim: ProvenanceRecord,
    forged: ProvenanceRecord,
    incoming: Participant,
    prev_checksum: bytes,
) -> Shipment:
    """The colluding incoming custodian re-signs their rewritten record."""
    from repro.attacks.tampering import attacker_checksum, replace_record

    if incoming.participant_id != forged.participant_id:
        raise ProvenanceError(
            f"only {forged.participant_id!r} can re-sign their own record"
        )
    checksum, proof = attacker_checksum(
        incoming, payloads.record_payload(forged, (prev_checksum,))
    )
    forged = forged.with_checksum(checksum).with_proof(proof)
    return replace_record(shipment, victim, forged)


def fabricate_handoff(
    shipment: Shipment,
    object_id: str,
    attacker: Participant,
    claimed_from: Optional[str] = None,
) -> Shipment:
    """CUSTODY: fabricate a hand-off the outgoing custodian never made.

    The attacker (posing as the incoming custodian) appends a ``TRANSFER``
    record to the chain tail claiming custody from ``claimed_from``
    (default: the tail's true author, the most plausible lie).  They sign
    the record honestly with their own key and even produce a
    well-formed countersignature — but with *their* key, since they
    cannot forge the outgoing custodian's, which is exactly what the
    custody invariant catches.
    """
    tail = _chain(shipment, object_id)[-1]
    from_id = claimed_from if claimed_from is not None else tail.participant_id
    seq_id = tail.seq_id + 1
    message = payloads.transfer_message(
        object_id, seq_id, from_id, attacker.participant_id,
        tail.checksum, tail.output.digest,
    )
    countersignature, counter_proof = sign_detached(attacker.scheme, message)
    transfer = CustodyTransfer(
        from_participant=from_id,
        to_participant=attacker.participant_id,
        countersignature=countersignature,
        counter_scheme=attacker.scheme.scheme_name,
        counter_proof=counter_proof,
    )
    forged = ProvenanceRecord(
        object_id=object_id,
        seq_id=seq_id,
        participant_id=attacker.participant_id,
        operation=Operation.TRANSFER,
        inputs=(tail.output,),
        output=dataclasses.replace(tail.output),
        checksum=b"",
        scheme=attacker.scheme.scheme_name,
        hash_algorithm=tail.hash_algorithm,
        transfer=transfer,
    )
    checksum, proof = sign_detached(
        attacker.scheme, payloads.record_payload(forged, (tail.checksum,))
    )
    forged = forged.with_checksum(checksum).with_proof(proof)
    records = tuple(shipment.records) + (forged,)
    return dataclasses.replace(shipment, records=records)


def reattribute_handoff(
    shipment: Shipment,
    object_id: str,
    seq_id: int,
    incoming: Participant,
    new_from: str,
) -> Shipment:
    """CUSTODY: the colluding incoming custodian re-attributes a hand-off.

    The transfer record's ``from`` is rewritten to ``new_from`` and the
    record checksum re-signed (the incoming custodian *can* do that — it
    is their record).  What they cannot regenerate is the outgoing
    custodian's countersignature over the changed message, and the
    predecessor record still names the true author, so both custody
    checks fire.
    """
    victim = _find_transfer(shipment, object_id, seq_id)
    chain = _chain(shipment, object_id)
    by_seq = {r.seq_id: r for r in chain}
    predecessor = by_seq.get(seq_id - 1)
    if predecessor is None:
        raise ProvenanceError(f"transfer at {seq_id} has no predecessor")
    forged = dataclasses.replace(
        victim,
        transfer=dataclasses.replace(victim.transfer, from_participant=new_from),
        checksum=b"",
        proof=None,
    )
    return _resign_as_incoming(
        shipment, victim, forged, incoming, predecessor.checksum
    )


def strip_handoff(
    shipment: Shipment,
    object_id: str,
    seq_id: int,
    incoming: Participant,
) -> Shipment:
    """STRUCT: the colluding incoming custodian drops the dual-signature
    evidence from their own transfer record (and re-signs the stripped
    record, so the checksum itself stays valid — the *missing evidence*
    is what gets flagged)."""
    victim = _find_transfer(shipment, object_id, seq_id)
    chain = _chain(shipment, object_id)
    by_seq = {r.seq_id: r for r in chain}
    predecessor = by_seq.get(seq_id - 1)
    if predecessor is None:
        raise ProvenanceError(f"transfer at {seq_id} has no predecessor")
    forged = dataclasses.replace(victim, transfer=None, checksum=b"", proof=None)
    return _resign_as_incoming(
        shipment, victim, forged, incoming, predecessor.checksum
    )
