"""Signature schemes behind a single protocol.

The checksum machinery only needs two operations — ``sign(message)`` and
``verify(message, signature)`` — plus a stable ``signature_size`` so the
space-overhead experiments (Fig 9/11) can account for storage.  Three
implementations are provided:

- :class:`RSASignatureScheme` — the paper's scheme: RSA over an
  EMSA-PKCS1-v1_5-encoded digest.  1024-bit keys give the 128-byte
  checksums the paper stores.
- :class:`HMACSignatureScheme` — a keyed-MAC stand-in.  Not a real
  signature (no non-repudiation, so R8 does not hold), but useful in
  benchmarks to separate hashing cost from public-key signing cost.
- :class:`NullSignatureScheme` — returns the digest itself; isolates pure
  hashing cost and is the fastest thing a benchmark can compare against.

Verifier-side counterparts (:class:`RSASignatureVerifier`, ...) carry only
public material, mirroring what a data recipient actually holds.
"""

from __future__ import annotations

import hmac
import threading
from typing import Optional, Protocol, Tuple, runtime_checkable

from repro import obs
from repro.crypto import pkcs1
from repro.crypto.hashing import get_algorithm
from repro.crypto.proofs import BatchProof, batch_root_message
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.exceptions import CryptoError, ProvenanceError
from repro.obs import OBS

__all__ = [
    "SignatureScheme",
    "SignatureVerifier",
    "RSASignatureScheme",
    "RSASignatureVerifier",
    "MultiKeyVerifier",
    "HMACSignatureScheme",
    "NullSignatureScheme",
    "MerkleBatchSignatureScheme",
    "MERKLE_BATCH_SCHEME",
    "record_signature_valid",
    "sign_detached",
    "detached_signature_valid",
]

#: Registry name of the Merkle-batch scheme (stored in each record).
MERKLE_BATCH_SCHEME = "merkle-batch"


def _batch_merkle():
    """Late-bound flat-tree helpers from :mod:`repro.core.merkle`.

    The import is deferred to call time because ``repro.crypto.__init__``
    eagerly imports this module while ``repro.core.__init__`` eagerly
    imports ``repro.crypto.pki`` — a module-level import either way would
    deadlock package initialisation.
    """
    from repro.core.merkle import batch_audit_paths, batch_leaf, batch_root, resolve_batch_root

    return batch_leaf, batch_root, batch_audit_paths, resolve_batch_root


@runtime_checkable
class SignatureScheme(Protocol):
    """Anything that can sign messages on behalf of a participant."""

    #: Registry name of the scheme, stored alongside checksums.
    scheme_name: str

    @property
    def signature_size(self) -> int:
        """Size in bytes of every signature this scheme produces."""
        ...

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` and return the signature bytes."""
        ...

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is valid for ``message``."""
        ...


@runtime_checkable
class SignatureVerifier(Protocol):
    """Verification-only counterpart of :class:`SignatureScheme`."""

    scheme_name: str

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is valid for ``message``."""
        ...


class RSASignatureVerifier:
    """Verifies RSA/PKCS#1 v1.5 signatures given only a public key."""

    scheme_name = "rsa-pkcs1v15"

    def __init__(self, public_key: RSAPublicKey, hash_algorithm: str = "sha1"):
        self.public_key = public_key
        self.hash_algorithm = hash_algorithm

    @obs.phase("rsa.verify", scheme=scheme_name)
    def verify(self, message: bytes, signature: bytes) -> bool:
        """Constant-structure verify: re-encode and compare."""
        if OBS.enabled:
            OBS.registry.counter("crypto.verify.count", scheme=self.scheme_name).inc()
        k = self.public_key.byte_size
        if len(signature) != k:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.public_key.n:
            return False
        em = self.public_key.encrypt_int(s).to_bytes(k, "big")
        try:
            expected = pkcs1.encode(message, k, self.hash_algorithm)
        except CryptoError:
            return False
        return hmac.compare_digest(em, expected)

    def __repr__(self) -> str:
        return (
            f"RSASignatureVerifier(key={self.public_key.fingerprint()}, "
            f"hash={self.hash_algorithm})"
        )


class MultiKeyVerifier:
    """Accepts a signature valid under *any* of several verifiers.

    Key rotation gives one participant several certified keys over time;
    old records stay verifiable under old keys.  Order the verifiers
    newest-first — recent records dominate real workloads.
    """

    scheme_name = "multi-key"

    def __init__(self, verifiers: tuple):
        if not verifiers:
            raise CryptoError("MultiKeyVerifier needs at least one verifier")
        self.verifiers = tuple(verifiers)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return any(v.verify(message, signature) for v in self.verifiers)

    def __repr__(self) -> str:
        return f"MultiKeyVerifier(keys={len(self.verifiers)})"


class RSASignatureScheme:
    """The paper's signature scheme: ``S_SK(m) = RSA_SK(PKCS1(h(m)))``."""

    scheme_name = "rsa-pkcs1v15"

    def __init__(self, private_key: RSAPrivateKey, hash_algorithm: str = "sha1"):
        self.private_key = private_key
        self.hash_algorithm = hash_algorithm
        self._verifier = RSASignatureVerifier(private_key.public_key(), hash_algorithm)

    @property
    def public_key(self) -> RSAPublicKey:
        """The public half, to be placed in the participant's certificate."""
        return self.private_key.public_key()

    @property
    def signature_size(self) -> int:
        """Modulus byte size; 128 for the paper's 1024-bit keys."""
        return self.private_key.byte_size

    @obs.phase("rsa.sign", scheme=scheme_name)
    def sign(self, message: bytes) -> bytes:
        """Sign ``message``; output length is always :attr:`signature_size`."""
        if OBS.enabled:
            OBS.registry.counter("crypto.sign.count", scheme=self.scheme_name).inc()
        k = self.private_key.byte_size
        em = pkcs1.encode(message, k, self.hash_algorithm)
        m = int.from_bytes(em, "big")
        return self.private_key.decrypt_int(m).to_bytes(k, "big")

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify with the embedded public key."""
        return self._verifier.verify(message, signature)

    def verifier(self) -> RSASignatureVerifier:
        """Return the public-material-only verifier."""
        return self._verifier

    def __repr__(self) -> str:
        return (
            f"RSASignatureScheme(key={self.public_key.fingerprint()}, "
            f"hash={self.hash_algorithm})"
        )


class MerkleBatchSignatureScheme:
    """Amortize RSA over a flush: sign one Merkle root per batch.

    ``sign(payload)`` is cheap and deterministic — it returns the
    domain-tagged *leaf digest* of the payload, which becomes the
    record's stored checksum (successor records chain on it immediately,
    exactly as they chain on per-record RSA checksums today).  The leaf
    is buffered on a per-thread pending list; when the collector flushes
    its staged batch it calls :meth:`seal_batch`, which builds one Merkle
    tree over the pending leaves, RSA-signs the domain-tagged
    ``(epoch, count, root)`` message with the participant's key, and
    returns one :class:`~repro.crypto.proofs.BatchProof` per record, in
    staging order.

    Soundness (DESIGN.md §10): a record verifies iff (1) the leaf digest
    of its payload equals its stored checksum **and** (2) the audit path
    folds that checksum to a root whose signature verifies under the
    participant's certified key.  Check (1) binds the payload, check (2)
    binds the checksum to an RSA signature — dropping either re-admits
    forgeries, so :func:`record_signature_valid` always applies both.

    Thread safety mirrors the collector's commits: pending leaves are
    thread-local (a commit signs and seals its batch on one thread),
    while the epoch counter is shared under a lock so concurrent commits
    never reuse an epoch.

    :attr:`root_signer` is the per-record RSA scheme that signs each
    root.  The service swaps in one that computes the signature in its
    signer pool (:class:`repro.service.signers.PooledRSASignatureScheme`,
    the same bytes), so a seal that covers several requests' records
    waits with the GIL released.
    """

    scheme_name = MERKLE_BATCH_SCHEME

    def __init__(self, private_key: RSAPrivateKey, hash_algorithm: str = "sha1"):
        self.root_signer = RSASignatureScheme(private_key, hash_algorithm)
        self.hash_algorithm = hash_algorithm
        self._alg = get_algorithm(hash_algorithm)
        self._local = threading.local()
        self._epoch_lock = threading.Lock()
        self._next_epoch = 0

    @property
    def public_key(self) -> RSAPublicKey:
        """The public half, to be placed in the participant's certificate."""
        return self.root_signer.public_key

    @property
    def signature_size(self) -> int:
        """Per-record stored checksum size — one digest, not a modulus."""
        return self._alg.digest_size

    @property
    def _pending(self) -> list:
        pending = getattr(self._local, "pending", None)
        if pending is None:
            pending = self._local.pending = []
        return pending

    def pending_count(self) -> int:
        """Leaves signed but not yet sealed on this thread."""
        return len(self._pending)

    def sign(self, message: bytes) -> bytes:
        """Stage one leaf; returns the leaf digest (the record checksum)."""
        batch_leaf, _, _, _ = _batch_merkle()
        leaf = batch_leaf(message, self.hash_algorithm)
        self._pending.append(leaf)
        if OBS.enabled:
            OBS.registry.counter("crypto.sign.count", scheme=self.scheme_name).inc()
        return leaf

    def seal_batch(self) -> Tuple[BatchProof, ...]:
        """Close this thread's batch: sign the root, emit one proof per leaf.

        Returns proofs in the order :meth:`sign` was called — the
        collector zips them onto its staged records positionally.  An
        empty pending list seals to an empty tuple (nothing was staged).
        """
        leaves = self._pending
        if not leaves:
            return ()
        batch = list(leaves)
        self._local.pending = []
        with self._epoch_lock:
            epoch = self._next_epoch
            self._next_epoch += 1
        with obs.phase("proof.build"):
            _, batch_root, batch_audit_paths, _ = _batch_merkle()
            root = batch_root(batch, self.hash_algorithm)
            paths = batch_audit_paths(batch, self.hash_algorithm)
            signature = self.root_signer.sign(
                batch_root_message(epoch, len(batch), root)
            )
            if OBS.enabled:
                OBS.registry.counter("crypto.batch_seal.count").inc()
                OBS.registry.histogram("crypto.batch_seal.leaves").observe(len(batch))
            return tuple(
                BatchProof(
                    epoch=epoch,
                    index=index,
                    count=len(batch),
                    path=paths[index],
                    root_signature=signature,
                )
                for index in range(len(batch))
            )

    def abort_batch(self) -> int:
        """Drop this thread's pending leaves (staging was aborted)."""
        dropped = len(self._pending)
        self._local.pending = []
        return dropped

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Leaf-equality check only — NOT a cryptographic verification.

        A bare ``(message, signature)`` pair cannot carry the inclusion
        proof; full verification is :func:`record_signature_valid` (or
        :meth:`verify_with_proof`), which also checks the signed root.
        """
        batch_leaf, _, _, _ = _batch_merkle()
        return hmac.compare_digest(
            batch_leaf(message, self.hash_algorithm), signature
        )

    def verify_with_proof(
        self, message: bytes, checksum: bytes, proof: BatchProof
    ) -> bool:
        """Full check against the embedded public key (tests/tools)."""
        return _batch_proof_valid(
            self.root_signer.verifier(), message, checksum, proof,
            self.hash_algorithm, None, "",
        )

    def verifier(self) -> RSASignatureVerifier:
        """Public material needed to verify sealed batches: the RSA
        verifier for root signatures (same key the certificate binds)."""
        return self.root_signer.verifier()

    def __repr__(self) -> str:
        return (
            f"MerkleBatchSignatureScheme(key={self.public_key.fingerprint()}, "
            f"hash={self.hash_algorithm}, pending={self.pending_count()})"
        )


@obs.phase("proof.check")
def _batch_proof_valid(
    key,
    payload: bytes,
    checksum: bytes,
    proof: BatchProof,
    hash_algorithm: str,
    root_cache: Optional[dict],
    participant_id: str,
) -> bool:
    """Both halves of the Merkle-batch check (see class docstring)."""
    batch_leaf, _, _, resolve_batch_root = _batch_merkle()
    try:
        leaf = batch_leaf(payload, hash_algorithm)
    except CryptoError:
        return False
    if not hmac.compare_digest(leaf, checksum):
        return False
    try:
        root = resolve_batch_root(
            checksum, proof.index, proof.count, proof.path, hash_algorithm
        )
    except (ProvenanceError, CryptoError):
        return False
    cache_key = (
        participant_id, proof.epoch, proof.count, root, proof.root_signature,
    )
    if root_cache is not None:
        cached = root_cache.get(cache_key)
        if cached is not None:
            return cached
    ok = key.verify(
        batch_root_message(proof.epoch, proof.count, root), proof.root_signature
    )
    if root_cache is not None:
        root_cache[cache_key] = ok
    return ok


def record_signature_valid(
    key, record, payload: bytes, root_cache: Optional[dict] = None
) -> bool:
    """Scheme-aware record checksum verification — the single dispatch
    point of :class:`repro.core.verifier.Verifier`'s chain walk.

    For Merkle-batch records (scheme + attached proof) this checks leaf
    equality plus the inclusion proof against the signed root; for
    everything else it is exactly the per-record ``key.verify``.  A
    merkle-batch record whose proof was stripped falls through to the
    per-record path and fails there (a digest is never a valid RSA
    signature), so proof removal is detected, not ignored.

    ``root_cache`` (any mutable mapping) memoizes the RSA root check per
    ``(participant, epoch, count, root, signature)`` — one modular
    exponentiation per batch instead of per record.
    """
    proof = getattr(record, "proof", None)
    if proof is not None and record.scheme == MERKLE_BATCH_SCHEME:
        return _batch_proof_valid(
            key, payload, record.checksum, proof, record.hash_algorithm,
            root_cache, record.participant_id,
        )
    return key.verify(payload, record.checksum)


def sign_detached(scheme) -> "_DetachedSigner":
    """A closure signing single messages immediately verifiable.

    Per-record schemes return ``(signature, None)``.  The Merkle-batch
    scheme stages and immediately seals a *single-leaf batch*, returning
    ``(leaf_digest, proof)`` — the same shape the collector produces per
    flush, just with ``count == 1``.  Used wherever a signature is
    created outside collector staging: custody countersignatures, witness
    anchors, and attacker re-signs.

    Must not be called with leaves already pending on this thread (the
    seal would sweep them up); collector staging never spans calls, so
    the invariant holds everywhere this is used.
    """
    return _DetachedSigner(scheme)


class _DetachedSigner:
    """See :func:`sign_detached`."""

    def __init__(self, scheme):
        self._scheme = scheme

    def __call__(self, message: bytes) -> Tuple[bytes, Optional[BatchProof]]:
        scheme = self._scheme
        signature = scheme.sign(message)
        seal = getattr(scheme, "seal_batch", None)
        if seal is None:
            return signature, None
        return signature, seal()[-1]


def detached_signature_valid(
    key,
    message: bytes,
    signature: bytes,
    scheme: str,
    proof: Optional[BatchProof] = None,
    hash_algorithm: str = "sha1",
    root_cache: Optional[dict] = None,
    participant_id: str = "",
) -> bool:
    """Verify a detached signature produced by :func:`sign_detached`.

    Mirrors :func:`record_signature_valid` for signatures that are not
    record checksums (custody countersignatures, witness anchors): a
    Merkle-batch signature with its proof attached is checked leaf +
    inclusion + signed root; a stripped proof falls through to the
    per-record path and fails there.
    """
    if proof is not None and scheme == MERKLE_BATCH_SCHEME:
        return _batch_proof_valid(
            key, message, signature, proof, hash_algorithm,
            root_cache, participant_id,
        )
    return key.verify(message, signature)


class HMACSignatureScheme:
    """Keyed-MAC scheme for benchmarking (symmetric; no non-repudiation)."""

    scheme_name = "hmac"

    def __init__(self, key: bytes, hash_algorithm: str = "sha1"):
        if not key:
            raise CryptoError("HMAC key must be non-empty")
        self._key = key
        self.hash_algorithm = hash_algorithm
        self._factory = get_algorithm(hash_algorithm).factory

    @property
    def signature_size(self) -> int:
        return get_algorithm(self.hash_algorithm).digest_size

    def sign(self, message: bytes) -> bytes:
        return hmac.new(self._key, message, self._factory).digest()

    def verify(self, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(message), signature)

    def verifier(self) -> "HMACSignatureScheme":
        """HMAC verification needs the same secret; returns self."""
        return self

    def __repr__(self) -> str:
        return f"HMACSignatureScheme(hash={self.hash_algorithm})"


class NullSignatureScheme:
    """Digest-only 'signature' used to isolate hashing cost in benchmarks.

    Provides *no* security: anyone can forge it.  It exists so that the
    overhead experiments can subtract signing cost from checksum cost.
    """

    scheme_name = "null"

    def __init__(self, hash_algorithm: str = "sha1"):
        self.hash_algorithm = hash_algorithm
        self._alg = get_algorithm(hash_algorithm)

    @property
    def signature_size(self) -> int:
        return self._alg.digest_size

    def sign(self, message: bytes) -> bytes:
        return self._alg.digest(message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(message), signature)

    def verifier(self) -> "NullSignatureScheme":
        return self

    def __repr__(self) -> str:
        return f"NullSignatureScheme(hash={self.hash_algorithm})"
