"""Witness anchoring: one signed, hash-linked log of checkpoints.

A witness is a notary outside every custodian's control (a timestamping
service, a public ledger, a regulator's inbox).  It countersigns chain
checkpoints (:class:`~repro.provenance.store.Checkpoint`) into an
append-only log whose entries hash-link to their predecessors.  Each
signature covers the previous entry's digest, so the log itself is
tamper-evident: an insider cannot drop or reorder anchors without
breaking either a hash link or a witness signature.  Under the
Merkle-batch scheme the tail checksum is exactly the leaf bound into the
participant's published batch root, so anchoring it pins the published
root too.

This closes the tail-truncation boundary the chain scheme concedes
(SECURITY.md): a coalition owning an entire chain suffix can re-sign it
into an internally consistent forgery
(:func:`repro.trust.coalition.coalition_rewrite`), but it cannot forge
the witness's signature over the *original* checkpoint.
:func:`check_anchors` flags every contradiction — over a store (the
monitor's ``witness-mismatch`` rule, ``repro trust audit``) or over a
shipment (``repro verify --anchors``).

The witness sees only chain coordinates, checksums and digests — no data
values — so the availability/privacy cost of the third party is as small
as it can be.  Anchoring is still an opt-in extension: it re-introduces
a third party the core scheme deliberately avoids.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.verifier import VerificationFailure
from repro.crypto.hashing import hash_bytes
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import (
    RSASignatureScheme,
    SignatureScheme,
    SignatureVerifier,
)
from repro.exceptions import VerificationError
from repro.provenance.store import Checkpoint

__all__ = ["WitnessAnchor", "AnchorLog", "Witness", "check_anchors"]

_LINK_HASH = "sha256"


def _anchor_payload(position: int, checkpoint: Checkpoint, prev_digest: bytes) -> bytes:
    body = json.dumps(
        {
            "witness": "v2",
            "position": position,
            "checkpoint": checkpoint.to_dict(),
            "prev": prev_digest.hex(),
        },
        sort_keys=True,
    )
    return body.encode("utf-8")


@dataclass(frozen=True)
class WitnessAnchor:
    """One countersigned :class:`Checkpoint` in the witness's log."""

    position: int  # place in the log (the witness's monotonic clock)
    checkpoint: Checkpoint
    prev_digest: bytes  # digest of the preceding log entry (b"" at genesis)
    signature: bytes

    def payload(self) -> bytes:
        """The bytes the witness signed (includes the hash link)."""
        return _anchor_payload(self.position, self.checkpoint, self.prev_digest)

    def entry_digest(self) -> bytes:
        """Digest the *next* entry links to (covers payload + signature)."""
        return hash_bytes(self.payload() + self.signature, _LINK_HASH)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "position": self.position,
            "checkpoint": self.checkpoint.to_dict(),
            "prev_digest": self.prev_digest.hex(),
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WitnessAnchor":
        """Inverse of :meth:`to_dict`.

        Raises:
            VerificationError: On malformed input.
        """
        try:
            return cls(
                position=int(data["position"]),
                checkpoint=Checkpoint.from_dict(data["checkpoint"]),
                prev_digest=bytes.fromhex(data["prev_digest"]),
                signature=bytes.fromhex(data["signature"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise VerificationError(f"malformed witness anchor: {exc}") from exc


@dataclass
class AnchorLog:
    """Append-only, hash-linked sequence of :class:`WitnessAnchor`.

    The log enforces its own invariants on append (dense positions,
    correct hash links); :func:`check_anchors` re-checks them plus the
    signatures, for logs loaded from untrusted storage.
    """

    entries: List[WitnessAnchor] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[WitnessAnchor]:
        return iter(self.entries)

    def head_digest(self) -> bytes:
        """Digest the next appended entry must link to."""
        return self.entries[-1].entry_digest() if self.entries else b""

    def append(self, anchor: WitnessAnchor) -> None:
        """Append one anchor.

        Raises:
            VerificationError: If the anchor's position or hash link does
                not continue the log (append-only means no gaps, no
                rewrites).
        """
        if anchor.position != len(self.entries):
            raise VerificationError(
                f"anchor position {anchor.position} does not continue the "
                f"log (expected {len(self.entries)})"
            )
        if anchor.prev_digest != self.head_digest():
            raise VerificationError(
                f"anchor {anchor.position} does not hash-link to the log head"
            )
        self.entries.append(anchor)

    def latest_for(self, object_id: str) -> Optional[Checkpoint]:
        """The most recent checkpoint anchored for ``object_id``, if any."""
        for anchor in reversed(self.entries):
            if anchor.checkpoint.object_id == object_id:
                return anchor.checkpoint
        return None

    def save(self, path: str) -> None:
        """Persist as JSONL (atomic via temp-file rename)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for anchor in self.entries:
                handle.write(json.dumps(anchor.to_dict(), sort_keys=True) + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "AnchorLog":
        """Load a log saved by :meth:`save`; missing file means empty log.

        Raises:
            VerificationError: On malformed lines.
        """
        log = cls()
        if not os.path.exists(path):
            return log
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise VerificationError(
                        f"malformed anchor log line: {exc}"
                    ) from exc
                log.entries.append(WitnessAnchor.from_dict(data))
        return log


class Witness:
    """A notary countersigning checkpoints into an :class:`AnchorLog`.

    Args:
        scheme: The witness's own signature scheme — its key is NOT any
            participant's; being outside the custodian set is the point.
        log: Existing log to continue (default: fresh empty log).
    """

    def __init__(self, scheme: SignatureScheme, log: Optional[AnchorLog] = None):
        self._scheme = scheme
        self.log = log if log is not None else AnchorLog()

    @classmethod
    def generate(
        cls,
        key_bits: int = 512,
        seed: object = 0x517,
        log: Optional[AnchorLog] = None,
    ) -> "Witness":
        """Deterministic witness for simulations and tests."""
        keypair = generate_keypair(key_bits, rng=random.Random(f"witness|{seed}"))
        return cls(RSASignatureScheme(keypair.private), log=log)

    def verifier(self) -> SignatureVerifier:
        """Public-material-only counterpart for auditors and monitors."""
        return self._scheme.verifier()

    def anchor(self, checkpoint: Checkpoint) -> WitnessAnchor:
        """Countersign one checkpoint and append it to the log."""
        position = len(self.log)
        prev_digest = self.log.head_digest()
        anchor = WitnessAnchor(
            position=position,
            checkpoint=checkpoint,
            prev_digest=prev_digest,
            signature=self._scheme.sign(
                _anchor_payload(position, checkpoint, prev_digest)
            ),
        )
        self.log.append(anchor)
        return anchor

    def tick(self, store) -> Tuple[WitnessAnchor, ...]:
        """Anchor every object's current chain tail (one witness round).

        Objects whose tail is already covered by their latest anchor are
        skipped after one tail comparison, so an idle store produces no
        new entries and reads no chain.  Iteration is over sorted object
        ids — the log contents depend only on the sequence of store
        states, never on iteration order.
        """
        fresh: List[WitnessAnchor] = []
        for object_id in sorted(store.object_ids()):
            tail = store.latest(object_id)
            if tail is None:
                continue
            covered = self.log.latest_for(object_id)
            if (
                covered is not None
                and covered.seq_id == tail.seq_id
                and covered.checksum == tail.checksum
            ):
                continue
            chain = store.records_for(object_id)
            fresh.append(self.anchor(Checkpoint.after(chain, len(chain))))
        return tuple(fresh)


def check_anchors(
    records,
    log: AnchorLog,
    verifier: SignatureVerifier,
    objects: Optional[Iterable[str]] = None,
) -> Tuple[VerificationFailure, ...]:
    """Every way ``records`` contradicts the witness, in log order.

    ``records`` is any record lookup with ``get(object_id, seq_id)``: a
    provenance store, or a :class:`~repro.core.shipment.Shipment` with
    ``objects`` limited to the shipped objects (``None`` checks every
    anchored object).  Two failure codes:

    - ``ANCHOR`` — the log itself is damaged (a position gap, a broken
      hash link, a bad witness signature): an insider tampered with the
      *anchors*.  Checked for every entry, whatever ``objects`` says.
    - ``R7`` — an anchored record is missing (history truncated past the
      anchor) or carries a different checksum (history rewritten past
      the anchor: the full-coalition attack).

    Reads records directly (no verification pass) so the monitor can
    evaluate it every tick, even on the idle fast path.
    """
    wanted = None if objects is None else set(objects)
    failures: List[VerificationFailure] = []
    prev_digest = b""
    for position, anchor in enumerate(log):
        checkpoint = anchor.checkpoint

        def fail(requirement: str, message: str) -> None:
            failures.append(VerificationFailure(
                requirement, checkpoint.object_id, message, checkpoint.seq_id
            ))

        if anchor.position != position:
            fail("ANCHOR", f"anchor log entry {position}: entry carries "
                           f"position {anchor.position}; log is not dense")
        if anchor.prev_digest != prev_digest:
            fail("ANCHOR", f"anchor log entry {position}: hash link to the "
                           "previous entry is broken")
        if not verifier.verify(anchor.payload(), anchor.signature):
            fail("ANCHOR", f"anchor log entry {position}: witness signature "
                           "does not verify")
        prev_digest = anchor.entry_digest()
        if wanted is not None and checkpoint.object_id not in wanted:
            continue
        record = records.get(checkpoint.object_id, checkpoint.seq_id)
        if record is None:
            fail("R7", f"anchored record #{checkpoint.seq_id} is missing "
                       "(history truncated past the anchor)")
        elif record.checksum != checkpoint.checksum:
            fail("R7", f"record #{checkpoint.seq_id} contradicts its witness "
                       "anchor (history rewritten past the anchor)")
    return tuple(failures)
