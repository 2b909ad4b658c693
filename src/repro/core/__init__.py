"""The paper's contribution: tamper-evident provenance checksums.

- :mod:`repro.core.merkle` — recursive compound hashing (§4.3), Basic and
  Economical strategies, and the streaming database hasher (§5.2).
- :mod:`repro.core.checksum` — the checksum payload constructions
  (§3: insert / update / aggregate).
- :mod:`repro.core.collector` — turns engine events into signed records,
  with provenance inheritance (§4.2) and complex operations (§4.4).
- :mod:`repro.core.verifier` — the data recipient's verification
  procedure with R1–R8 diagnostics; ``Verifier.verify(...,
  resume=checkpoint)`` lets a repeat recipient resume from a
  :class:`~repro.provenance.store.Checkpoint` it verified earlier.
- :mod:`repro.core.shipment` — the (data, provenance, certificates)
  bundle exchanged with recipients.
- :mod:`repro.core.redaction` — selective disclosure of shipped values.
- :mod:`repro.core.concurrent` — thread-safe sessions with per-tree
  locking (§3.2's parallel chain construction).
- :mod:`repro.core.system` — :class:`TamperEvidentDatabase`, the façade
  most users should start from.
"""

from repro.core.collector import ChecksumCollector
from repro.core.concurrent import ConcurrentSession, TreeLockManager, concurrent_sessions
from repro.core.redaction import (
    redact_object_values,
    redact_participant_values,
    redact_values,
)
from repro.core.merkle import (
    BasicHashing,
    EconomicalHashing,
    HashingStrategy,
    StreamingDatabaseHasher,
    subtree_digest,
    tree_digests,
)
from repro.core.shipment import Shipment
from repro.core.system import ParticipantSession, TamperEvidentDatabase
from repro.core.verifier import (
    ParallelVerifier,
    VerificationFailure,
    VerificationReport,
    Verifier,
)

__all__ = [
    "TamperEvidentDatabase",
    "ParticipantSession",
    "ChecksumCollector",
    "Verifier",
    "ParallelVerifier",
    "VerificationReport",
    "VerificationFailure",
    "Shipment",
    "ConcurrentSession",
    "TreeLockManager",
    "concurrent_sessions",
    "redact_values",
    "redact_participant_values",
    "redact_object_values",
    "HashingStrategy",
    "BasicHashing",
    "EconomicalHashing",
    "StreamingDatabaseHasher",
    "subtree_digest",
    "tree_digests",
]
