"""Multi-participant trust: custody hand-offs, coalitions, witnesses.

The paper's §2.2 threat model contemplates multiple signing participants
and insider collusion, but the base scheme leaves two gaps this package
closes (and one it documents):

- :mod:`repro.trust.custody` — first-class ``TRANSFER`` records: object
  custody moves between participants under a *dual signature* (the
  outgoing custodian countersigns the incoming custodian's record),
  verified as a chain invariant, so a forged hand-off is tampering.
- :mod:`repro.trust.coalition` — a seeded k-party collusion simulator:
  coalitions re-sign arbitrary chain suffixes.  Detection holds for any
  coalition that excludes at least one honest participant in the
  rewritten suffix; a *full* coalition rewrite is internally consistent
  and undetectable — the concession the paper (and Hasan et al.) make.
- :mod:`repro.trust.witness` — an external witness countersigning chain
  checkpoints (:class:`~repro.provenance.store.Checkpoint`, and so
  published Merkle-batch roots) into one append-only, hash-linked log.
  Once an anchor covers a region, even a fully colluding insider set
  cannot rewrite past it: :func:`~repro.trust.witness.check_anchors`
  reports ``R7`` (the monitor's ``witness-mismatch`` rule, ``repro trust
  audit``, ``repro verify --anchors``).
"""

from repro.trust.custody import (
    build_transfer_record,
    fabricate_handoff,
    reattribute_handoff,
    strip_handoff,
    transfer_custody,
)
from repro.trust.coalition import (
    coalition_rewrite,
    honest_blocker,
    rewrite_store_suffix,
    seeded_coalition,
)
from repro.trust.witness import AnchorLog, Witness, WitnessAnchor, check_anchors

__all__ = [
    "build_transfer_record",
    "transfer_custody",
    "fabricate_handoff",
    "reattribute_handoff",
    "strip_handoff",
    "seeded_coalition",
    "honest_blocker",
    "coalition_rewrite",
    "rewrite_store_suffix",
    "Witness",
    "WitnessAnchor",
    "AnchorLog",
    "check_anchors",
]
