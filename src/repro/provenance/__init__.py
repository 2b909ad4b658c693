"""Provenance substrate: records, stores, snapshots, and the DAG.

The paper models a provenance record as the quadruple
``(seqID, p, {(A1,v1)..(An,vn)}, (A,v))`` (§2.1), extended so that inputs
and outputs can be compound objects (§4.2).  A *provenance object* is the
set of records documenting one data object, partially ordered by ``seqID``
— equivalently, a DAG (Definition 1).

- :mod:`repro.provenance.records` — :class:`ProvenanceRecord` and
  :class:`ObjectState` (one endpoint of a record).
- :mod:`repro.provenance.snapshot` — immutable subtree captures shipped
  to data recipients.
- :mod:`repro.provenance.store` — the provenance database: in-memory and
  SQLite implementations mirroring §5.1's
  ``(SeqID, Participant, Oid, Checksum binary(128))`` rows, and
  :class:`Checkpoint`, the one attested chain position (monitor
  watermark, recipient resume point, witness log entry).
- :mod:`repro.provenance.dag` — DAG construction over record sets.

Checksum *generation* (the paper's contribution) lives in
:mod:`repro.core`, which builds on this substrate.
"""

from repro.provenance.dag import ProvenanceDAG
from repro.provenance.records import ObjectState, Operation, ProvenanceRecord
from repro.provenance.snapshot import SubtreeSnapshot
from repro.provenance.store import (
    Checkpoint,
    InMemoryProvenanceStore,
    SQLiteProvenanceStore,
)

__all__ = [
    "Operation",
    "ObjectState",
    "ProvenanceRecord",
    "SubtreeSnapshot",
    "InMemoryProvenanceStore",
    "SQLiteProvenanceStore",
    "Checkpoint",
    "ProvenanceDAG",
]
