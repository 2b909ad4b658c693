"""A minimal public-key infrastructure.

The paper assumes "a suitable public-key infrastructure, and that each
participant is authenticated by a certificate authority" (§2.3).  This
module supplies exactly that surface:

- :class:`CertificateAuthority` — holds a root key pair, issues and
  verifies :class:`Certificate` objects binding a participant id to an RSA
  public key.
- :class:`KeyStore` — a data recipient's trust store: the CA's public key
  plus the certificates received with a shipment, resolving participant
  ids to signature verifiers.
- :class:`Participant` — a user/process/transaction that signs provenance
  checksums with its secret key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.keys import public_key_from_dict, public_key_to_dict
from repro.crypto.rsa import RSAPublicKey, generate_keypair
from repro.crypto.signatures import (
    MERKLE_BATCH_SCHEME,
    MerkleBatchSignatureScheme,
    MultiKeyVerifier,
    RSASignatureScheme,
    RSASignatureVerifier,
    SignatureScheme,
)
from repro.exceptions import CertificateError, CryptoError

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "KeyStore",
    "Participant",
    "resolve_scheme_name",
    "SCHEME_ALIASES",
]

#: Accepted spellings of the two record signature schemes (the CLI's
#: ``--scheme`` choices).  The chaos/CI matrix calls per-record RSA
#: ``rsa-per-record``; records store the canonical ``rsa-pkcs1v15``.
SCHEME_ALIASES = {
    "rsa": "rsa-pkcs1v15",
    "rsa-pkcs1v15": "rsa-pkcs1v15",
    "rsa-per-record": "rsa-pkcs1v15",
    MERKLE_BATCH_SCHEME: MERKLE_BATCH_SCHEME,
}


def resolve_scheme_name(name: str) -> str:
    """Canonical record-signature scheme name for any accepted alias.

    Raises:
        CryptoError: For unknown scheme names.
    """
    try:
        return SCHEME_ALIASES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(SCHEME_ALIASES))
        raise CryptoError(
            f"unknown signature scheme {name!r}; known: {known}"
        ) from None


@dataclass(frozen=True)
class Certificate:
    """A binding of ``subject`` (participant id) to an RSA public key.

    Signed by the issuing CA over a canonical encoding of all other fields;
    any mutation invalidates :attr:`signature`.
    """

    serial: int
    subject: str
    issuer: str
    public_key: RSAPublicKey
    hash_algorithm: str
    signature: bytes

    def signed_payload(self) -> bytes:
        """The canonical byte string the CA signs."""
        return _certificate_payload(
            self.serial, self.subject, self.issuer, self.public_key, self.hash_algorithm
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by shipments)."""
        return {
            "serial": self.serial,
            "subject": self.subject,
            "issuer": self.issuer,
            "public_key": public_key_to_dict(self.public_key),
            "hash_algorithm": self.hash_algorithm,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Certificate":
        """Inverse of :meth:`to_dict`.

        Raises:
            CertificateError: On malformed input.
        """
        try:
            return cls(
                serial=int(data["serial"]),
                subject=str(data["subject"]),
                issuer=str(data["issuer"]),
                public_key=public_key_from_dict(data["public_key"]),
                hash_algorithm=str(data["hash_algorithm"]),
                signature=bytes.fromhex(data["signature"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from exc


def _certificate_payload(
    serial: int,
    subject: str,
    issuer: str,
    public_key: RSAPublicKey,
    hash_algorithm: str,
) -> bytes:
    parts = [
        b"cert-v1",
        str(serial).encode(),
        subject.encode("utf-8"),
        issuer.encode("utf-8"),
        hex(public_key.n).encode(),
        hex(public_key.e).encode(),
        hash_algorithm.encode(),
    ]
    return b"\x1f".join(parts)


class CertificateAuthority:
    """Issues and verifies participant certificates.

    Args:
        name: Issuer name embedded in every certificate.
        key_bits: CA key size.
        hash_algorithm: Hash used in CA signatures.
        rng: Random source for key generation (seed it for reproducibility).
    """

    def __init__(
        self,
        name: str = "repro-root-ca",
        key_bits: int = 1024,
        hash_algorithm: str = "sha1",
        rng: Optional[random.Random] = None,
    ):
        self.name = name
        self.hash_algorithm = hash_algorithm
        self._keypair = generate_keypair(key_bits, rng=rng)
        self._scheme = RSASignatureScheme(self._keypair.private, hash_algorithm)
        self._next_serial = 1
        self._issued: Dict[str, List[Certificate]] = {}

    def to_dict(self) -> Dict[str, object]:
        """Serialize the CA (private key included — protect the output).

        Used by on-disk workspaces (the CLI); shipments only ever carry
        the public key.
        """
        from repro.crypto.keys import private_key_to_dict

        return {
            "name": self.name,
            "hash_algorithm": self.hash_algorithm,
            "private_key": private_key_to_dict(self._keypair.private),
            "next_serial": self._next_serial,
            "issued": [cert.to_dict() for cert in self.issued_certificates()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CertificateAuthority":
        """Restore a CA serialized with :meth:`to_dict`.

        Raises:
            CertificateError: On malformed input.
        """
        from repro.crypto.keys import private_key_from_dict
        from repro.crypto.rsa import RSAKeyPair

        try:
            ca = cls.__new__(cls)
            ca.name = str(data["name"])
            ca.hash_algorithm = str(data["hash_algorithm"])
            private = private_key_from_dict(data["private_key"])
            ca._keypair = RSAKeyPair(private=private, public=private.public_key())
            ca._scheme = RSASignatureScheme(private, ca.hash_algorithm)
            ca._next_serial = int(data["next_serial"])
            ca._issued = {}
            for cert_data in data["issued"]:
                cert = Certificate.from_dict(cert_data)
                ca._issued.setdefault(cert.subject, []).append(cert)
            return ca
        except CertificateError:
            raise
        except Exception as exc:
            raise CertificateError(f"malformed CA serialization: {exc}") from exc

    @property
    def public_key(self) -> RSAPublicKey:
        """The CA's public key — the recipient's trust anchor."""
        return self._keypair.public

    def issue(self, subject: str, public_key: RSAPublicKey) -> Certificate:
        """Issue a certificate binding ``subject`` to ``public_key``."""
        serial = self._next_serial
        self._next_serial += 1
        payload = _certificate_payload(
            serial, subject, self.name, public_key, self.hash_algorithm
        )
        cert = Certificate(
            serial=serial,
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            hash_algorithm=self.hash_algorithm,
            signature=self._scheme.sign(payload),
        )
        self._issued.setdefault(subject, []).append(cert)
        return cert

    def verify_certificate(self, cert: Certificate) -> bool:
        """Return True iff ``cert`` was validly signed by this CA."""
        if cert.issuer != self.name:
            return False
        verifier = RSASignatureVerifier(self.public_key, cert.hash_algorithm)
        return verifier.verify(cert.signed_payload(), cert.signature)

    def issued_certificates(self) -> Tuple[Certificate, ...]:
        """Every certificate this CA has issued (all key generations).

        Old certificates stay valid for verifying old records — key
        *rotation* is not key *revocation*.
        """
        out = []
        for subject in sorted(self._issued):
            out.extend(self._issued[subject])
        return tuple(out)

    def certificates_for(self, subject: str) -> Tuple[Certificate, ...]:
        """All certificates issued to ``subject``, oldest first.

        Raises:
            CertificateError: If none were issued.
        """
        certs = self._issued.get(subject)
        if not certs:
            raise CertificateError(f"no certificate issued to {subject!r}")
        return tuple(certs)

    def certificate_for(self, subject: str) -> Certificate:
        """The *current* (most recently issued) certificate of ``subject``.

        Raises:
            CertificateError: If no certificate was issued to ``subject``.
        """
        return self.certificates_for(subject)[-1]

    # ------------------------------------------------------------------
    # opaque token signing (service API keys)
    # ------------------------------------------------------------------

    def sign_token(self, payload: bytes) -> bytes:
        """Sign an opaque token payload with the CA key.

        The service layer's API keys (:mod:`repro.service.auth`) are CA-
        signed bearer tokens: the same root of trust that certifies
        participant keys also vouches for who may talk to the network
        front end.  The payload is domain-separated by the caller (it
        never collides with :func:`_certificate_payload`, whose encoding
        starts with ``cert-v1``).
        """
        return self._scheme.sign(payload)

    def verify_token(self, payload: bytes, signature: bytes) -> bool:
        """True iff ``signature`` is this CA's signature over ``payload``."""
        verifier = RSASignatureVerifier(self.public_key, self.hash_algorithm)
        return verifier.verify(payload, signature)


class KeyStore:
    """A data recipient's view of the PKI.

    Holds the trusted CA public key and a set of certificates; resolves
    participant ids to :class:`RSASignatureVerifier` objects after
    validating the certificate against the trust anchor.
    """

    def __init__(
        self,
        ca_public_key: RSAPublicKey,
        ca_name: str = "repro-root-ca",
        ca_hash_algorithm: str = "sha1",
    ):
        self._ca_public_key = ca_public_key
        self._ca_name = ca_name
        self._ca_hash = ca_hash_algorithm
        self._certificates: Dict[str, List[Certificate]] = {}
        # Memoized per-participant verifier handles: chain verification
        # asks for the same participant once per record, and parallel
        # workers resolve each handle once per worker process instead of
        # rebuilding the verifier stack per record.  Invalidated on
        # certificate addition so key rotation stays visible.
        self._verifier_cache: Dict[str, MultiKeyVerifier] = {}

    @classmethod
    def trusting(cls, ca: CertificateAuthority) -> "KeyStore":
        """Build a key store that trusts ``ca``."""
        return cls(ca.public_key, ca.name, ca.hash_algorithm)

    def add_certificate(self, cert: Certificate) -> None:
        """Validate ``cert`` against the trust anchor and store it.

        Raises:
            CertificateError: If the certificate is not signed by the
                trusted CA.
        """
        if cert.issuer != self._ca_name:
            raise CertificateError(
                f"certificate for {cert.subject!r} issued by untrusted "
                f"{cert.issuer!r} (trusted: {self._ca_name!r})"
            )
        verifier = RSASignatureVerifier(self._ca_public_key, cert.hash_algorithm)
        if not verifier.verify(cert.signed_payload(), cert.signature):
            raise CertificateError(
                f"certificate for {cert.subject!r} has an invalid CA signature"
            )
        existing = self._certificates.setdefault(cert.subject, [])
        if all(cert.serial != have.serial for have in existing):
            existing.append(cert)
            existing.sort(key=lambda c: c.serial)
            self._verifier_cache.pop(cert.subject, None)

    def add_certificates(self, certs: Iterable[Certificate]) -> None:
        """Add several certificates; see :meth:`add_certificate`."""
        for cert in certs:
            self.add_certificate(cert)

    def __contains__(self, participant_id: str) -> bool:
        return participant_id in self._certificates

    def participants(self) -> tuple:
        """Sorted ids of all participants with stored certificates."""
        return tuple(sorted(self._certificates))

    def verifier_for(self, participant_id: str) -> "MultiKeyVerifier":
        """Return a signature verifier for ``participant_id``.

        The verifier accepts signatures under *any* of the participant's
        certified keys (key rotation keeps old records verifiable; newest
        key is tried first).

        Raises:
            CertificateError: If no certificate is stored for the id.
        """
        cached = self._verifier_cache.get(participant_id)
        if cached is not None:
            return cached
        certs = self._certificates.get(participant_id)
        if not certs:
            raise CertificateError(
                f"no certificate for participant {participant_id!r}"
            )
        verifier = MultiKeyVerifier(
            tuple(
                RSASignatureVerifier(cert.public_key, cert.hash_algorithm)
                for cert in reversed(certs)  # newest first
            )
        )
        self._verifier_cache[participant_id] = verifier
        return verifier


class Participant:
    """A provenance participant: an identity plus a signature scheme.

    Participants are the actors of the paper's model — "users, processes,
    transactions" — each holding a secret key with which they sign the
    checksums of the provenance records they create.

    Prefer :meth:`enroll` (which generates a key pair and obtains a CA
    certificate) over direct construction.
    """

    def __init__(
        self,
        participant_id: str,
        scheme: SignatureScheme,
        certificate: Optional[Certificate] = None,
    ):
        self.participant_id = participant_id
        self.scheme = scheme
        self.certificate = certificate

    @classmethod
    def enroll(
        cls,
        participant_id: str,
        ca: CertificateAuthority,
        key_bits: int = 1024,
        hash_algorithm: str = "sha1",
        rng: Optional[random.Random] = None,
        scheme: str = "rsa-pkcs1v15",
    ) -> "Participant":
        """Generate a key pair and obtain a certificate from ``ca``.

        ``scheme`` selects the record signature scheme (``"rsa"`` /
        ``"rsa-pkcs1v15"`` / ``"rsa-per-record"`` or ``"merkle-batch"``).
        Either way the certificate binds the same RSA public key — under
        Merkle-batch it verifies batch *root* signatures instead of
        per-record ones.
        """
        keypair = generate_keypair(key_bits, rng=rng)
        canonical = resolve_scheme_name(scheme)
        if canonical == MERKLE_BATCH_SCHEME:
            signer: SignatureScheme = MerkleBatchSignatureScheme(
                keypair.private, hash_algorithm
            )
        else:
            signer = RSASignatureScheme(keypair.private, hash_algorithm)
        cert = ca.issue(participant_id, keypair.public)
        return cls(participant_id, signer, cert)

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` with this participant's secret key."""
        return self.scheme.sign(message)

    @property
    def signature_size(self) -> int:
        """Size of this participant's signatures in bytes."""
        return self.scheme.signature_size

    def __repr__(self) -> str:
        return f"Participant({self.participant_id!r}, scheme={self.scheme.scheme_name})"
