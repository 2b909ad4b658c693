"""Provenance records.

A record documents one operation (actual or inherited) on one output
object: ``(seqID, p, {inputs}, output)`` plus the integrity checksum of
§3/§4.3.  Inputs and outputs are :class:`ObjectState` values — an object
id together with the digest of its compound value (for an atomic object
the digest is simply ``h(A, val)``; for a compound object it is the
recursive subtree hash).  Atomic values are carried inline when available
so that human auditors can read chains without a data snapshot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.crypto.proofs import BatchProof
from repro.exceptions import ProvenanceError
from repro.model.values import Value, decode_value, encode_value

__all__ = ["Operation", "ObjectState", "CustodyTransfer", "ProvenanceRecord"]


class Operation(str, enum.Enum):
    """The operation a provenance record documents."""

    INSERT = "insert"
    UPDATE = "update"
    AGGREGATE = "aggregate"
    #: One complex operation (§4.4) — update-shaped, possibly many primitives.
    COMPLEX = "complex"
    #: Custody hand-off: the object's value is unchanged but responsibility
    #: moves to a new participant, countersigned by the outgoing custodian.
    TRANSFER = "transfer"

    def __str__(self) -> str:  # stored in the provenance database
        return self.value


@dataclass(frozen=True)
class ObjectState:
    """One endpoint (input or output) of a provenance record.

    Attributes:
        object_id: The object the state belongs to.
        digest: Compound hash of ``subtree(object_id)`` at that moment
            (``h(A, val)`` when the object is atomic).
        value: The atomic value, carried inline when the object was a
            leaf; ``None`` for compound objects (``has_value`` then False).
        node_count: Number of nodes in the subtree (1 for atomic).
    """

    object_id: str
    digest: bytes
    value: Value = None
    has_value: bool = False
    node_count: int = 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        out: Dict[str, object] = {
            "object_id": self.object_id,
            "digest": self.digest.hex(),
            "node_count": self.node_count,
        }
        if self.has_value:
            out["value"] = encode_value(self.value).hex()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ObjectState":
        """Inverse of :meth:`to_dict`.

        Raises:
            ProvenanceError: On malformed input.
        """
        try:
            has_value = "value" in data
            return cls(
                object_id=str(data["object_id"]),
                digest=bytes.fromhex(data["digest"]),
                value=decode_value(bytes.fromhex(data["value"])) if has_value else None,
                has_value=has_value,
                node_count=int(data.get("node_count", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProvenanceError(f"malformed object state: {exc}") from exc


@dataclass(frozen=True)
class CustodyTransfer:
    """The dual-signature evidence carried by a ``TRANSFER`` record.

    A hand-off is only meaningful if *both* sides commit to it: the
    incoming custodian signs the record itself (the ordinary checksum),
    and the outgoing custodian countersigns a domain-tagged message
    binding the hand-off to the exact chain position
    (``payloads.transfer_message``).  The participant ids and the
    countersignature bytes are folded into the signed record payload, so
    stripping or swapping any of them breaks the incoming custodian's
    checksum (R1) as well as the custody invariant itself.

    Attributes:
        from_participant: The outgoing custodian (must have authored the
            predecessor record — verified as a chain invariant).
        to_participant: The incoming custodian (must equal the transfer
            record's ``participant_id``).
        countersignature: The outgoing custodian's signature over
            :func:`repro.core.checksum.transfer_message`.
        counter_scheme: Signature scheme of the countersignature.
        counter_proof: Batch inclusion proof for the countersignature
            when the outgoing custodian signs with the Merkle-batch
            scheme (sealed immediately as a single-leaf batch);
            ``None`` for per-record schemes.
    """

    from_participant: str
    to_participant: str
    countersignature: bytes
    counter_scheme: str = "rsa-pkcs1v15"
    counter_proof: Optional[BatchProof] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "from": self.from_participant,
            "to": self.to_participant,
            "countersignature": self.countersignature.hex(),
            "counter_scheme": self.counter_scheme,
        }
        if self.counter_proof is not None:
            out["counter_proof"] = self.counter_proof.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CustodyTransfer":
        try:
            return cls(
                from_participant=str(data["from"]),
                to_participant=str(data["to"]),
                countersignature=bytes.fromhex(data["countersignature"]),
                counter_scheme=str(data.get("counter_scheme", "rsa-pkcs1v15")),
                counter_proof=(
                    BatchProof.from_dict(data["counter_proof"])
                    if data.get("counter_proof") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProvenanceError(f"malformed custody transfer: {exc}") from exc

    def storage_bytes(self) -> int:
        proof_bytes = (
            self.counter_proof.storage_bytes()
            if self.counter_proof is not None
            else 0
        )
        return len(self.countersignature) + proof_bytes


@dataclass(frozen=True)
class ProvenanceRecord:
    """One provenance record with its integrity checksum.

    The per-object key is ``(object_id, seq_id)`` where ``object_id`` is
    the output object; records with the same output object form its chain,
    aggregation records tie chains together into the DAG.

    Attributes:
        object_id: Output object (``Oid`` in the provenance database).
        seq_id: Sequence id per §2.1's rules (insert 0; update prev+1;
            aggregate max(input)+1).
        participant_id: Who performed (or inherited) the operation.
        operation: What kind of operation the record documents.
        inputs: Input object states, sorted by the global object order.
        output: Output object state.
        inherited: True if this record was propagated to an ancestor of
            the actually-modified object (§4.2 provenance inheritance).
        checksum: The signed integrity checksum (§3/§4.3).
        scheme: Signature scheme name (``"rsa-pkcs1v15"`` by default).
        hash_algorithm: Hash algorithm used for all digests in the record.
        note: Optional white-box description of the operation ("amended
            transcription error", the SQL text, ...).  The paper's model
            treats operations as black boxes but notes (footnote 4) that
            the scheme translates directly to white-box logging — the note
            is *part of the signed checksum payload*, so it is as
            tamper-evident as the values themselves.
        proof: Batch-signature inclusion proof (Merkle-batch scheme
            only): ties the checksum — there a leaf digest — to the
            RSA-signed batch root.  ``None`` for per-record schemes.
        transfer: Custody hand-off evidence; required on (and only
            meaningful for) ``TRANSFER`` records.
    """

    object_id: str
    seq_id: int
    participant_id: str
    operation: Operation
    inputs: Tuple[ObjectState, ...]
    output: ObjectState
    checksum: bytes
    inherited: bool = False
    scheme: str = "rsa-pkcs1v15"
    hash_algorithm: str = "sha1"
    note: str = ""
    proof: Optional[BatchProof] = None
    transfer: Optional[CustodyTransfer] = None

    def __post_init__(self) -> None:
        if self.output.object_id != self.object_id:
            raise ProvenanceError(
                f"record object_id {self.object_id!r} does not match "
                f"output state {self.output.object_id!r}"
            )
        if self.seq_id < 0:
            raise ProvenanceError(f"seq_id must be >= 0, got {self.seq_id}")

    @property
    def key(self) -> Tuple[str, int]:
        """The record's unique ``(object_id, seq_id)`` key."""
        return (self.object_id, self.seq_id)

    @property
    def output_digest(self) -> bytes:
        """The output state's digest (a chain walk's carried state is a
        record or a :class:`~repro.provenance.store.Checkpoint`; both
        expose it under this name)."""
        return self.output.digest

    @property
    def input_ids(self) -> Tuple[str, ...]:
        """Ids of the input objects, in global order."""
        return tuple(state.object_id for state in self.inputs)

    @property
    def is_genesis(self) -> bool:
        """True for records that start a chain (insert or aggregate)."""
        return self.operation in (Operation.INSERT, Operation.AGGREGATE)

    def with_checksum(self, checksum: bytes) -> "ProvenanceRecord":
        """Return a copy carrying ``checksum`` (used during generation)."""
        return replace(self, checksum=checksum)

    def with_proof(self, proof: Optional[BatchProof]) -> "ProvenanceRecord":
        """Return a copy carrying ``proof`` (attached at batch seal)."""
        return replace(self, proof=proof)

    def storage_bytes(self) -> int:
        """Size of the paper's provenance-database row for this record.

        §5.1 stores ``(SeqID int, Participant int, Oid int, Checksum
        binary(128))`` per record: three 4-byte integers plus the
        signature.  This is the unit in which the space-overhead figures
        (Fig 9/11) are reported.  Merkle-batch rows store a digest-sized
        checksum plus the proof blob instead of a full RSA signature.
        """
        proof_bytes = self.proof.storage_bytes() if self.proof is not None else 0
        transfer_bytes = (
            self.transfer.storage_bytes() if self.transfer is not None else 0
        )
        return 12 + len(self.checksum) + proof_bytes + transfer_bytes

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by shipments)."""
        out = {
            "object_id": self.object_id,
            "seq_id": self.seq_id,
            "participant_id": self.participant_id,
            "operation": self.operation.value,
            "inputs": [state.to_dict() for state in self.inputs],
            "output": self.output.to_dict(),
            "checksum": self.checksum.hex(),
            "inherited": self.inherited,
            "scheme": self.scheme,
            "hash_algorithm": self.hash_algorithm,
        }
        if self.note:
            out["note"] = self.note
        if self.proof is not None:
            out["proof"] = self.proof.to_dict()
        if self.transfer is not None:
            out["transfer"] = self.transfer.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProvenanceRecord":
        """Inverse of :meth:`to_dict`.

        Raises:
            ProvenanceError: On malformed input.
        """
        try:
            return cls(
                object_id=str(data["object_id"]),
                seq_id=int(data["seq_id"]),
                participant_id=str(data["participant_id"]),
                operation=Operation(data["operation"]),
                inputs=tuple(ObjectState.from_dict(s) for s in data["inputs"]),
                output=ObjectState.from_dict(data["output"]),
                checksum=bytes.fromhex(data["checksum"]),
                inherited=bool(data.get("inherited", False)),
                scheme=str(data.get("scheme", "rsa-pkcs1v15")),
                hash_algorithm=str(data.get("hash_algorithm", "sha1")),
                note=str(data.get("note", "")),
                proof=(
                    BatchProof.from_dict(data["proof"])
                    if data.get("proof") is not None
                    else None
                ),
                transfer=(
                    CustodyTransfer.from_dict(data["transfer"])
                    if data.get("transfer") is not None
                    else None
                ),
            )
        except ProvenanceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProvenanceError(f"malformed provenance record: {exc}") from exc

    def describe(self) -> str:
        """One-line human-readable rendering (used by the audit inspector)."""
        inherited = " (inherited)" if self.inherited else ""
        ins = ", ".join(self.input_ids) or "∅"
        custody = ""
        if self.transfer is not None:
            custody = (
                f" [custody {self.transfer.from_participant}"
                f" -> {self.transfer.to_participant}]"
            )
        return (
            f"[{self.object_id} #{self.seq_id}] {self.operation.value}{inherited} "
            f"by {self.participant_id}: {{{ins}}} -> {self.object_id}{custody}"
        )
