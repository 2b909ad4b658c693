"""Shipments: what a data recipient actually receives.

"Occasionally, a data recipient will request and obtain one or more of
these data objects ... each data object is accompanied by a provenance
object" (§1).  A :class:`Shipment` bundles the three things verification
needs — the data snapshot, the provenance records, and the participants'
certificates — into one JSON-serializable unit the recipient can check
offline against nothing but the CA's public key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.verifier import VerificationReport, Verifier
from repro.crypto.pki import Certificate, CertificateError, KeyStore
from repro.crypto.rsa import RSAPublicKey
from repro.exceptions import ShipmentError
from repro.provenance.records import ProvenanceRecord
from repro.provenance.snapshot import SubtreeSnapshot

__all__ = ["Shipment"]

_FORMAT = "repro-shipment-v1"


@dataclass(frozen=True)
class Shipment:
    """A data object, its provenance object, and supporting certificates."""

    target_id: str
    snapshot: SubtreeSnapshot
    records: Tuple[ProvenanceRecord, ...]
    certificates: Tuple[Certificate, ...]

    @classmethod
    def build(
        cls,
        db,
        object_id: str,
        snapshot: Optional[SubtreeSnapshot] = None,
        seq_id: Optional[int] = None,
    ) -> "Shipment":
        """Package ``object_id`` from a :class:`TamperEvidentDatabase`.

        Includes the full provenance closure (through aggregations) and a
        certificate for every participant appearing in it.  A caller that
        pinned the object's state earlier passes that ``snapshot`` and the
        seq id its chain had then, and the closure is cut at that record;
        otherwise the current state and the whole chain are shipped.

        Raises:
            ShipmentError: If no snapshot is given and the object does
                not exist.
        """
        if snapshot is None:
            if object_id not in db.store:
                raise ShipmentError(f"object {object_id!r} is not in the database")
            snapshot = SubtreeSnapshot.capture(db.store, object_id)
        records = db.provenance_object(object_id, seq_id)
        participant_ids = sorted({r.participant_id for r in records})
        certificates = []
        for participant_id in participant_ids:
            try:
                # All key generations: records may span key rotations.
                certificates.extend(db.ca.certificates_for(participant_id))
            except CertificateError as exc:
                raise ShipmentError(
                    f"cannot ship {object_id!r}: {exc}"
                ) from exc
        return cls(
            target_id=object_id,
            snapshot=snapshot,
            records=tuple(records),
            certificates=tuple(certificates),
        )

    # ------------------------------------------------------------------
    # recipient-side verification
    # ------------------------------------------------------------------

    def verify(
        self, keystore: KeyStore, workers: Optional[int] = None, faults=None
    ) -> VerificationReport:
        """Verify against an already-populated trust store.

        ``workers`` > 1 fans per-object chain verification out over a
        process pool (:class:`~repro.core.verifier.ParallelVerifier`);
        the report is byte-identical to the serial one.  ``faults``
        passes a :class:`~repro.faults.plan.FaultPlan` through to the
        parallel verifier (chaos testing of worker death); it is ignored
        in serial mode, which has no workers to kill.
        """
        if workers is not None and workers != 1:
            from repro.core.verifier import ParallelVerifier

            verifier: Verifier = ParallelVerifier(
                keystore, workers=workers, faults=faults
            )
        else:
            verifier = Verifier(keystore)
        return verifier.verify(self.snapshot, self.records, self.target_id)

    def verify_with_ca(
        self,
        ca_public_key: RSAPublicKey,
        ca_name: str = "repro-root-ca",
        workers: Optional[int] = None,
        faults=None,
    ) -> VerificationReport:
        """Verify trusting only the CA: certificates come from the shipment.

        This is the recipient's normal path — the only out-of-band trust
        anchor is the CA public key.  A shipped certificate that fails CA
        validation is *reported* (a forged certificate is tampering, not
        a caller error): the report carries a ``PKI`` failure and the
        offending certificate is excluded from the trust store.
        """
        from repro.core.verifier import VerificationFailure

        keystore = KeyStore(ca_public_key, ca_name)
        cert_failures = []
        for cert in self.certificates:
            try:
                keystore.add_certificate(cert)
            except CertificateError as exc:
                cert_failures.append(
                    VerificationFailure("PKI", self.target_id, str(exc))
                )
        report = self.verify(keystore, workers=workers, faults=faults)
        if not cert_failures:
            return report
        return VerificationReport(
            ok=False,
            failures=tuple(cert_failures) + report.failures,
            records_checked=report.records_checked,
            objects_checked=report.objects_checked,
            target_id=report.target_id,
        )

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON document."""
        return json.dumps(
            {
                "format": _FORMAT,
                "target_id": self.target_id,
                "snapshot": self.snapshot.to_dict(),
                "records": [r.to_dict() for r in self.records],
                "certificates": [c.to_dict() for c in self.certificates],
            }
        )

    @classmethod
    def from_json(cls, blob: str) -> "Shipment":
        """Inverse of :meth:`to_json`.

        Raises:
            ShipmentError: On malformed input.
        """
        try:
            data: Dict[str, object] = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise ShipmentError(f"shipment is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ShipmentError(
                f"shipment must be a JSON object, got {type(data).__name__}"
            )
        if data.get("format") != _FORMAT:
            raise ShipmentError(
                f"unsupported shipment format {data.get('format')!r}"
            )
        try:
            return cls(
                target_id=str(data["target_id"]),
                snapshot=SubtreeSnapshot.from_dict(data["snapshot"]),
                records=tuple(ProvenanceRecord.from_dict(r) for r in data["records"]),
                certificates=tuple(
                    Certificate.from_dict(c) for c in data["certificates"]
                ),
            )
        except ShipmentError:
            raise
        except Exception as exc:
            raise ShipmentError(f"malformed shipment: {exc}") from exc

    def __len__(self) -> int:
        return len(self.records)

    def get(self, object_id: str, seq_id: int) -> Optional[ProvenanceRecord]:
        """The shipped record with key ``(object_id, seq_id)``, or None —
        the same record lookup a provenance store offers (see
        :func:`repro.trust.witness.check_anchors`)."""
        return next((r for r in self.records if r.key == (object_id, seq_id)), None)
