"""k-party collusion: seeded coalitions re-signing chain suffixes.

Generalizes :mod:`repro.attacks.collusion` (two colluders bracketing one
victim) to arbitrary coalitions rewriting arbitrary suffixes.  The
mechanics mirror what real colluders can do: each member re-signs *their
own* records with their real key (fresh single-leaf batch proofs under
the Merkle-batch scheme), the coalition hashes honestly, and nobody can
produce a non-member's signature.

The detection theorem the conformance suite pins down:

- A rewrite starting at ``start_seq`` is **detected** whenever some
  record at/after ``start_seq`` belongs to a participant outside the
  coalition — the first such honest record still chains to the original
  history (its signature covers the original predecessor checksum), so
  verification fails at or before it.  Custody transfers tighten this
  further: a suffix transfer whose *outgoing* custodian is honest cannot
  have its countersignature regenerated, so it is caught (CUSTODY) even
  when the incoming custodian colludes.
- A coalition owning the **entire suffix** produces an internally
  consistent forgery that no signature check can flag — the concession
  the paper (like Hasan et al.) makes, and exactly the gap
  :mod:`repro.trust.witness` closes with external anchors.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Optional, Sequence, Tuple

from repro.core import checksum as payloads
from repro.core.shipment import Shipment
from repro.crypto.hashing import hash_bytes
from repro.crypto.pki import Participant
from repro.crypto.signatures import sign_detached
from repro.exceptions import ProvenanceError
from repro.model.values import Value, encode_node
from repro.provenance.records import Operation, ProvenanceRecord

__all__ = [
    "seeded_coalition",
    "honest_blocker",
    "coalition_rewrite",
    "rewrite_store_suffix",
]


def seeded_coalition(
    seed: object, participants: Sequence[Participant], k: int
) -> Tuple[Participant, ...]:
    """Pick a deterministic k-member coalition from ``participants``.

    The pool is sorted by participant id before sampling, so the choice
    depends only on ``(seed, ids, k)`` — never on input order.
    """
    pool = sorted(participants, key=lambda p: p.participant_id)
    if not 0 < k <= len(pool):
        raise ProvenanceError(
            f"coalition size {k} out of range for {len(pool)} participants"
        )
    rng = random.Random(f"coalition|{seed}|{','.join(p.participant_id for p in pool)}")
    return tuple(rng.sample(pool, k))


def _chain(shipment: Shipment, object_id: str):
    chain = sorted(
        (r for r in shipment.records if r.object_id == object_id),
        key=lambda r: r.seq_id,
    )
    if not chain:
        raise ProvenanceError(f"no records for {object_id!r} in shipment")
    return chain


def honest_blocker(
    shipment: Shipment,
    object_id: str,
    start_seq: int,
    coalition: Sequence[Participant],
) -> Optional[ProvenanceRecord]:
    """The first record at/after ``start_seq`` the coalition cannot
    re-sign, or ``None`` when the coalition owns the whole suffix.

    Besides records *authored* by non-members, a custody transfer whose
    outgoing custodian (the predecessor's author) is honest also blocks:
    its countersignature binds the predecessor checksum and only the
    honest outgoing custodian can regenerate it.
    """
    members = {p.participant_id for p in coalition}
    chain = _chain(shipment, object_id)
    previous = None
    for record in chain:
        if record.seq_id >= start_seq:
            if record.participant_id not in members:
                return record
            if (
                record.operation is Operation.TRANSFER
                and previous is not None
                and previous.participant_id not in members
            ):
                return record
        previous = record
    return None


def _rewrite_suffix(
    chain: Sequence[ProvenanceRecord],
    object_id: str,
    start_seq: int,
    members: Dict[str, Participant],
    new_value: Value,
    hash_algorithm: str,
) -> Dict[int, ProvenanceRecord]:
    """The rewrite core shared by the shipment- and store-level attacks.

    Returns seq → forged record for the consecutive member-owned records
    from ``start_seq``; stops at the first record the coalition cannot
    re-sign.
    """
    by_seq = {r.seq_id: r for r in chain}
    start = by_seq.get(start_seq)
    if start is None:
        raise ProvenanceError(f"no record ({object_id!r}, {start_seq})")
    if start.participant_id not in members:
        raise ProvenanceError(
            f"the rewrite's first record belongs to "
            f"{start.participant_id!r}, who is not in the coalition"
        )

    fake_digest = hash_bytes(encode_node(object_id, new_value), hash_algorithm)
    predecessor = by_seq.get(start_seq - 1)
    prev_output = predecessor.output if predecessor is not None else None
    prev_checksum = predecessor.checksum if predecessor is not None else None
    replaced: Dict[int, ProvenanceRecord] = {}

    for record in chain:
        if record.seq_id < start_seq:
            continue
        if record.participant_id not in members:
            break  # honest blocker: left untouched, detection bites here
        if record.operation is Operation.AGGREGATE:
            raise ProvenanceError(
                "coalition rewrite across an aggregation is not modelled"
            )
        member = members[record.participant_id]
        if record.seq_id == start_seq:
            output = dataclasses.replace(
                record.output,
                digest=fake_digest,
                value=new_value,
                has_value=True,
            )
        else:
            output = dataclasses.replace(record.output)
        inputs = record.inputs
        if record.operation is not Operation.INSERT and prev_output is not None:
            inputs = (dataclasses.replace(prev_output),)
        transfer = record.transfer
        if record.operation is Operation.TRANSFER and transfer is not None:
            outgoing = members.get(transfer.from_participant)
            if outgoing is not None and prev_checksum is not None:
                message = payloads.transfer_message(
                    object_id,
                    record.seq_id,
                    transfer.from_participant,
                    transfer.to_participant,
                    prev_checksum,
                    output.digest,
                )
                countersignature, counter_proof = sign_detached(
                    outgoing.scheme, message
                )
                transfer = dataclasses.replace(
                    transfer,
                    countersignature=countersignature,
                    counter_scheme=outgoing.scheme.scheme_name,
                    counter_proof=counter_proof,
                )
            # An honest outgoing custodian's stale countersignature is
            # kept as-is: the coalition cannot regenerate it, and the
            # custody invariant flags it (honest_blocker models this).
        forged = dataclasses.replace(
            record,
            inputs=inputs,
            output=output,
            transfer=transfer,
            checksum=b"",
            proof=None,
        )
        prevs = (prev_checksum,) if prev_checksum is not None else ()
        checksum, proof = sign_detached(
            member.scheme, payloads.record_payload(forged, prevs)
        )
        forged = forged.with_checksum(checksum).with_proof(proof)
        replaced[record.seq_id] = forged
        prev_output = forged.output
        prev_checksum = forged.checksum

    return replaced


def coalition_rewrite(
    shipment: Shipment,
    object_id: str,
    start_seq: int,
    coalition: Sequence[Participant],
    new_value: Value,
    hash_algorithm: str = "sha1",
) -> Shipment:
    """The coalition rewrites ``object_id``'s history from ``start_seq``.

    The record at ``start_seq`` (which must belong to a member) has its
    output replaced by ``new_value``; every consecutive member-owned
    record after it is re-signed to chain onto the rewritten history
    (inputs re-pointed, custody countersignatures regenerated when the
    outgoing custodian is also a member).  The walk stops at the first
    record the coalition cannot re-sign (see :func:`honest_blocker`) —
    that record is left untouched, still chaining to the *original*
    history, which is precisely where verification bites.

    When the rewrite consumes the entire chain tail and the terminal
    output changed, the shipped data snapshot is updated to match (the
    colluders control the channel), so a full-coalition rewrite fails no
    R4 check either — it is genuinely undetectable without a witness.

    Raises:
        ProvenanceError: If the start record is missing, not
            member-owned, or the suffix crosses an aggregation record
            (not modelled, as in :mod:`repro.attacks.collusion`).
    """
    members: Dict[str, Participant] = {p.participant_id: p for p in coalition}
    chain = _chain(shipment, object_id)
    replaced = _rewrite_suffix(
        chain, object_id, start_seq, members, new_value, hash_algorithm
    )

    records = tuple(
        replaced.get(r.seq_id, r) if r.object_id == object_id else r
        for r in shipment.records
    )
    forged_shipment = dataclasses.replace(shipment, records=records)

    terminal = chain[-1]
    if terminal.seq_id in replaced and shipment.snapshot.root_id == object_id:
        rewritten_terminal = replaced[terminal.seq_id]
        if rewritten_terminal.output.digest != terminal.output.digest:
            from repro.attacks.tampering import tamper_data

            forged_shipment = tamper_data(
                forged_shipment, object_id, new_value
            )
    return forged_shipment


def rewrite_store_suffix(
    store,
    object_id: str,
    start_seq: int,
    coalition: Sequence[Participant],
    new_value: Value,
    hash_algorithm: str = "sha1",
) -> Tuple[ProvenanceRecord, ...]:
    """Full-coalition insiders rewrite a chain suffix *in the store*.

    The store-level face of :func:`coalition_rewrite`, modelling insiders
    with write access to the provenance store itself (the scenario the
    monitor — not a shipment recipient — must catch).  The coalition must
    own the entire suffix: a partial coalition's store rewrite leaves a
    broken chain the monitor already flags as plain tampering, so only
    the internally consistent full rewrite is worth modelling here.  The
    monitor cannot detect the result by verification alone — only a
    witness anchor made *before* the rewrite contradicts it.

    Rewinds watermarks over the rewritten region like crash recovery
    would (insiders erase their tracks), returns the forged records.

    Raises:
        ProvenanceError: If the coalition does not own every record from
            ``start_seq`` to the chain tail (including the outgoing
            custodian of any transfer in the suffix).
    """
    members: Dict[str, Participant] = {p.participant_id: p for p in coalition}
    chain = list(store.records_for(object_id))
    if not chain:
        raise ProvenanceError(f"no records for {object_id!r} in the store")
    replaced = _rewrite_suffix(
        chain, object_id, start_seq, members, new_value, hash_algorithm
    )
    suffix = [r for r in chain if r.seq_id >= start_seq]
    if {r.seq_id for r in suffix} != set(replaced):
        raise ProvenanceError(
            "store-level rewrite requires the coalition to own the entire "
            "suffix (an honest participant's record cannot be re-signed)"
        )
    for record in reversed(suffix):
        store.discard(object_id, record.seq_id)
    forged = tuple(replaced[r.seq_id] for r in suffix)
    store.append_many(list(forged))
    watermark = store.get_watermark(object_id)
    if watermark is not None and watermark.seq_id >= start_seq:
        # Rewind like crash recovery would, so the rewrite leaves no
        # watermark regression — the whole point of the exercise is that
        # nothing *inside* the store betrays it.
        store.clear_watermark(object_id)
    return forged
