"""On-disk workspaces for the CLI.

A workspace directory holds everything a provenance deployment needs:

    workspace/
      config.json          key size, hash algorithm
      ca.json              the CA, INCLUDING its private key
      participants/
        <id>.json          each participant's private key + certificate
      backend.db           SQLite back-end database
      provenance.db        SQLite provenance database
      anchors.jsonl        witness anchor log (``repro anchor``)
      anchor-service.json  the anchoring witness's private key, and
      anchor-service.pub.json  its public half (both made on first anchor)

Private keys are stored unencrypted — this is a single-user research
tool, not an HSM; treat the directory like an SSH key directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple

from repro.backend.sqlite import SQLiteStore
from repro.core.system import TamperEvidentDatabase
from repro.core.verifier import VerificationFailure
from repro.crypto.keys import (
    private_key_from_dict,
    private_key_to_dict,
    public_key_from_dict,
    public_key_to_dict,
)
from repro.crypto.pki import Certificate, CertificateAuthority, Participant
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import RSASignatureScheme, RSASignatureVerifier
from repro.exceptions import ReproError
from repro.provenance.store import Checkpoint, SQLiteProvenanceStore
from repro.trust.witness import AnchorLog, Witness, WitnessAnchor, check_anchors

__all__ = ["Workspace", "WorkspaceError"]

_ANCHOR_LOG = "anchors.jsonl"
_ANCHOR_KEY = "anchor-service.json"
_ANCHOR_PUBLIC_KEY = "anchor-service.pub.json"


class WorkspaceError(ReproError):
    """Raised for missing, malformed, or already-existing workspaces."""


class Workspace:
    """An opened workspace; owns the SQLite connections until closed."""

    def __init__(self, path: Path):
        self.path = Path(path)
        config_file = self.path / "config.json"
        ca_file = self.path / "ca.json"
        if not config_file.exists() or not ca_file.exists():
            raise WorkspaceError(
                f"{self.path} is not a workspace (run 'repro init' first)"
            )
        self.config = json.loads(config_file.read_text())
        self.ca = CertificateAuthority.from_dict(json.loads(ca_file.read_text()))
        self._store: Optional[SQLiteStore] = None
        self._provenance: Optional[SQLiteProvenanceStore] = None
        self._db: Optional[TamperEvidentDatabase] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        ca_name: str = "repro-root-ca",
        key_bits: int = 1024,
        hash_algorithm: str = "sha1",
    ) -> "Workspace":
        """Initialise a new workspace directory.

        Raises:
            WorkspaceError: If the directory already is a workspace.
        """
        path = Path(path)
        if (path / "config.json").exists():
            raise WorkspaceError(f"{path} is already a workspace")
        path.mkdir(parents=True, exist_ok=True)
        (path / "participants").mkdir(exist_ok=True)
        ca = CertificateAuthority(
            name=ca_name, key_bits=key_bits, hash_algorithm=hash_algorithm
        )
        (path / "ca.json").write_text(json.dumps(ca.to_dict()))
        (path / "config.json").write_text(
            json.dumps({"key_bits": key_bits, "hash_algorithm": hash_algorithm})
        )
        return cls(path)

    def save_ca(self) -> None:
        """Persist the CA state (serial counter, issued certificates)."""
        (self.path / "ca.json").write_text(json.dumps(self.ca.to_dict()))

    def close(self) -> None:
        """Close the SQLite connections."""
        if self._store is not None:
            self._store.close()
            self._store = None
        if self._provenance is not None:
            self._provenance.close()
            self._provenance = None
        self._db = None

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # database
    # ------------------------------------------------------------------

    def database(self) -> TamperEvidentDatabase:
        """The workspace's tamper-evident database (opened lazily)."""
        if self._db is None:
            self._store = SQLiteStore(str(self.path / "backend.db"))
            self._provenance = SQLiteProvenanceStore(str(self.path / "provenance.db"))
            self._db = TamperEvidentDatabase(
                store=self._store,
                provenance_store=self._provenance,
                ca=self.ca,
                hash_algorithm=self.config["hash_algorithm"],
                key_bits=self.config["key_bits"],
            )
        return self._db

    # ------------------------------------------------------------------
    # participants
    # ------------------------------------------------------------------

    def _participant_file(self, participant_id: str) -> Path:
        safe = participant_id.replace("/", "_")
        return self.path / "participants" / f"{safe}.json"

    def enroll(self, participant_id: str) -> Participant:
        """Enroll a participant and persist their key material.

        Raises:
            WorkspaceError: If the participant already exists.
        """
        target = self._participant_file(participant_id)
        if target.exists():
            raise WorkspaceError(f"participant {participant_id!r} already enrolled")
        keypair = generate_keypair(self.config["key_bits"])
        scheme = RSASignatureScheme(keypair.private, self.config["hash_algorithm"])
        cert = self.ca.issue(participant_id, keypair.public)
        self.save_ca()
        target.write_text(
            json.dumps(
                {
                    "participant_id": participant_id,
                    "private_key": private_key_to_dict(keypair.private),
                    "certificate": cert.to_dict(),
                }
            )
        )
        return Participant(participant_id, scheme, cert)

    def participant(self, participant_id: str) -> Participant:
        """Load a previously enrolled participant.

        Raises:
            WorkspaceError: If the participant is unknown or the file is
                malformed.
        """
        target = self._participant_file(participant_id)
        if not target.exists():
            known = ", ".join(self.participants()) or "(none)"
            raise WorkspaceError(
                f"unknown participant {participant_id!r}; enrolled: {known}"
            )
        try:
            data = json.loads(target.read_text())
            private = private_key_from_dict(data["private_key"])
            scheme = RSASignatureScheme(private, self.config["hash_algorithm"])
            cert = Certificate.from_dict(data["certificate"])
            return Participant(str(data["participant_id"]), scheme, cert)
        except (KeyError, ValueError, ReproError) as exc:
            raise WorkspaceError(
                f"corrupt participant file {target}: {exc}"
            ) from exc

    def participants(self) -> List[str]:
        """Ids of all enrolled participants, sorted."""
        directory = self.path / "participants"
        return sorted(p.stem for p in directory.glob("*.json"))

    # ------------------------------------------------------------------
    # anchoring (repro.trust.witness)
    # ------------------------------------------------------------------

    def anchor(self, object_id: str) -> WitnessAnchor:
        """Countersign ``object_id``'s chain tail into the anchor log.

        The workspace witness's key pair is created on first use, with
        its public half written beside it, so :meth:`check_anchors`
        never reads the private key.  In production the witness would
        run *outside* the participants' control; a workspace-local one
        still demonstrates the mechanics and protects against later
        tampering of this store.

        Raises:
            VerificationError: If the object has no records.
        """
        checkpoint = Checkpoint.from_records(
            object_id, self.database().provenance_store.records_for(object_id)
        )
        key_file = self.path / _ANCHOR_KEY
        if not key_file.exists():
            fresh = generate_keypair(self.config["key_bits"]).private
            key_file.write_text(json.dumps(private_key_to_dict(fresh)))
        private = private_key_from_dict(json.loads(key_file.read_text()))
        (self.path / _ANCHOR_PUBLIC_KEY).write_text(
            json.dumps(public_key_to_dict(private.public_key()))
        )
        witness = Witness(
            RSASignatureScheme(private, self.config["hash_algorithm"]),
            self.anchor_log(),
        )
        anchor = witness.anchor(checkpoint)
        witness.log.save(str(self.path / _ANCHOR_LOG))
        return anchor

    def anchor_log(self) -> AnchorLog:
        """The persisted anchor log (empty before the first anchor)."""
        return AnchorLog.load(str(self.path / _ANCHOR_LOG))

    def check_anchors(
        self, records, objects=None
    ) -> Tuple[VerificationFailure, ...]:
        """:func:`repro.trust.witness.check_anchors` against this log.

        Reads only the log and the witness's public key.

        Raises:
            WorkspaceError: If the log has entries but no public key.
        """
        log = self.anchor_log()
        if not len(log):
            return ()
        public_file = self.path / _ANCHOR_PUBLIC_KEY
        if not public_file.exists():
            raise WorkspaceError(
                f"{public_file} is missing: the anchor log cannot be checked"
            )
        verifier = RSASignatureVerifier(
            public_key_from_dict(json.loads(public_file.read_text())),
            self.config["hash_algorithm"],
        )
        return check_anchors(records, log, verifier, objects)
