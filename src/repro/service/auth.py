"""API keys for the provenance service: CA-signed bearer tokens.

The paper assumes every participant is authenticated through a PKI
(§2.3); the network front end extends the same root of trust to *client
authentication*.  An API key is a compact bearer token::

    rpk1.<base64url(payload-json)>.<base64url(CA signature)>

where the payload binds a key id to a tenant, an optional scope set, and
an optional expiry.  The token is **self-validating** (any holder of the
CA public key can check it came from the authority) plus **stateful
where it must be**: revocation is a server-side set, checked on every
request, so a revoked key fails closed even though its signature still
verifies.

Design notes:

- Tokens are signed with :meth:`CertificateAuthority.sign_token`; the
  payload is domain-separated with the ``rpk1`` prefix inside the signed
  bytes, so an API token can never be replayed as a certificate (whose
  signed encoding starts with ``cert-v1``) or vice versa.
- ``exp`` is absolute epoch seconds; the authority's clock is injectable
  so tests exercise expiry without sleeping.
- Key ids are sequential (``k1``, ``k2``, ...) — deterministic, so a
  seeded service run reproduces the same token stream.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.crypto.pki import CertificateAuthority
from repro.exceptions import AuthError, ForbiddenError

__all__ = ["TOKEN_PREFIX", "ApiKeyClaims", "ApiKeyAuthority"]

#: Token format marker; bump on any payload-shape change.
TOKEN_PREFIX = "rpk1"

#: Scope granting access to the admin endpoints (key issue/revoke,
#: recovery).  Tenant data access needs no scope beyond the tenant
#: binding itself.
ADMIN_SCOPE = "admin"


def _b64e(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def _b64d(text: str) -> bytes:
    pad = -len(text) % 4
    return base64.urlsafe_b64decode(text + "=" * pad)


@dataclass(frozen=True)
class ApiKeyClaims:
    """The validated content of one API key."""

    key_id: str
    tenant: str
    scopes: Tuple[str, ...] = ()
    #: Absolute expiry (epoch seconds), or None for no expiry.
    expires: Optional[float] = None

    @property
    def is_admin(self) -> bool:
        return ADMIN_SCOPE in self.scopes

    def to_dict(self) -> Dict[str, object]:
        return {
            "kid": self.key_id,
            "tenant": self.tenant,
            "scopes": list(self.scopes),
            "exp": self.expires,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ApiKeyClaims":
        try:
            exp = data.get("exp")
            return cls(
                key_id=str(data["kid"]),
                tenant=str(data["tenant"]),
                scopes=tuple(str(s) for s in data.get("scopes", ())),
                expires=None if exp is None else float(exp),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AuthError(f"malformed API key payload: {exc}") from exc


class ApiKeyAuthority:
    """Issues, validates, and revokes the service's API keys.

    Args:
        ca: The certificate authority whose key signs tokens.  The
            service uses a dedicated auth CA (separate from the tenants'
            provenance CAs) so a compromise of one tenant's world never
            yields a token-minting key.
        clock: Time source for expiry checks (injectable for tests).
        state_path: Optional JSON file persisting the issued/revoked
            state across restarts.  Revocation is the critical half: a
            key revoked before a crash must STAY revoked after ``repro
            serve`` comes back, or the bearer regains access.  Writes go
            through a temp-file rename, so a crash mid-write leaves the
            previous state intact.
    """

    #: Validated tokens whose claims :meth:`validate` remembers, so a
    #: repeated bearer token skips the decode, RSA verify and JSON parse.
    #: The oldest entry is evicted first.
    MAX_CACHED_TOKENS = 1024

    def __init__(
        self,
        ca: CertificateAuthority,
        clock: Callable[[], float] = time.time,
        state_path: Optional[str] = None,
    ):
        self.ca = ca
        self.clock = clock
        self.state_path = state_path
        self._lock = threading.Lock()
        self._next_key = 1
        #: key id -> claims for every issued key (introspection surface).
        self._issued: Dict[str, ApiKeyClaims] = {}
        self._revoked: set = set()
        #: exact token string -> claims, for tokens whose signature verified.
        self._validated: Dict[str, ApiKeyClaims] = {}
        if state_path is not None:
            self._load_state(state_path)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _load_state(self, path: str) -> None:
        if not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            self._next_key = int(data["next_key"])
            self._issued = {
                str(kid): ApiKeyClaims.from_dict(claims)
                for kid, claims in data["issued"].items()
            }
            self._revoked = {str(kid) for kid in data["revoked"]}
        except (KeyError, TypeError, ValueError, OSError) as exc:
            raise AuthError(
                f"corrupt API key state at {path}: {exc}"
            ) from exc

    def _persist_locked(self) -> None:
        """Write the current state; caller holds ``self._lock``."""
        if self.state_path is None:
            return
        data = {
            "next_key": self._next_key,
            "issued": {
                kid: claims.to_dict() for kid, claims in self._issued.items()
            },
            "revoked": sorted(self._revoked),
        }
        tmp = f"{self.state_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, sort_keys=True)
        os.replace(tmp, self.state_path)

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def issue(
        self,
        tenant: str,
        scopes: Tuple[str, ...] = (),
        ttl: Optional[float] = None,
    ) -> str:
        """Mint a token binding a fresh key id to ``tenant``.

        ``ttl`` is seconds from now (``None`` = no expiry; a non-positive
        ttl mints an already-expired token, which the negative tests use).
        """
        expires = None if ttl is None else self.clock() + ttl
        # One lock acquisition for allocation AND registration, so
        # issued_keys() can never observe an allocated-but-unrecorded id.
        with self._lock:
            key_id = f"k{self._next_key}"
            self._next_key += 1
            claims = ApiKeyClaims(
                key_id=key_id, tenant=tenant, scopes=tuple(scopes),
                expires=expires,
            )
            self._issued[key_id] = claims
            self._persist_locked()
        return self._encode(claims)

    def issue_admin(self, ttl: Optional[float] = None) -> str:
        """Mint the service's admin token (tenant ``*``, admin scope)."""
        return self.issue("*", scopes=(ADMIN_SCOPE,), ttl=ttl)

    def _encode(self, claims: ApiKeyClaims) -> str:
        payload = json.dumps(
            claims.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        signature = self.ca.sign_token(self._signed_bytes(payload))
        return f"{TOKEN_PREFIX}.{_b64e(payload)}.{_b64e(signature)}"

    @staticmethod
    def _signed_bytes(payload: bytes) -> bytes:
        return TOKEN_PREFIX.encode("ascii") + b"\x1f" + payload

    # ------------------------------------------------------------------
    # validate
    # ------------------------------------------------------------------

    def validate(self, token: Optional[str]) -> ApiKeyClaims:
        """Validate a bearer token; returns its claims.

        A token's signature is checked once; its claims are then cached
        by the exact token string (at most :attr:`MAX_CACHED_TOKENS`).
        Expiry and revocation are checked on every call.

        Raises:
            AuthError: Missing, malformed, forged, or expired (→ 401).
            ForbiddenError: Revoked (→ 403; revocation fails closed).
        """
        if not token:
            raise AuthError("missing API key")
        claims = self._validated.get(token)
        if claims is None:
            claims = self._verified_claims(token)
            with self._lock:
                if len(self._validated) >= self.MAX_CACHED_TOKENS:
                    del self._validated[next(iter(self._validated))]
                self._validated[token] = claims
        if claims.expires is not None and self.clock() >= claims.expires:
            raise AuthError(f"API key {claims.key_id} has expired")
        with self._lock:
            if claims.key_id in self._revoked:
                raise ForbiddenError(f"API key {claims.key_id} is revoked")
        return claims

    def _verified_claims(self, token: str) -> ApiKeyClaims:
        """Decode ``token`` and check its signature; raises AuthError."""
        parts = token.split(".")
        if len(parts) != 3 or parts[0] != TOKEN_PREFIX:
            raise AuthError("malformed API key")
        try:
            payload = _b64d(parts[1])
            signature = _b64d(parts[2])
        except (ValueError, TypeError) as exc:
            raise AuthError(f"malformed API key encoding: {exc}") from exc
        if not self.ca.verify_token(self._signed_bytes(payload), signature):
            raise AuthError("API key signature is invalid")
        try:
            data = json.loads(payload.decode("utf-8"))
        except ValueError as exc:
            raise AuthError(f"malformed API key payload: {exc}") from exc
        return ApiKeyClaims.from_dict(data)

    @staticmethod
    def decode_claims(token: str) -> ApiKeyClaims:
        """Decode a token's claims WITHOUT any validation.

        For introspection of keys this authority just minted (e.g. the
        issue endpoint reporting the key id of a deliberately-expired
        test key) — never for authentication.
        """
        parts = token.split(".")
        if len(parts) != 3 or parts[0] != TOKEN_PREFIX:
            raise AuthError("malformed API key")
        try:
            return ApiKeyClaims.from_dict(json.loads(_b64d(parts[1]).decode()))
        except (ValueError, TypeError) as exc:
            raise AuthError(f"malformed API key payload: {exc}") from exc

    def require_admin(self, token: Optional[str]) -> ApiKeyClaims:
        """Validate and additionally require the admin scope."""
        claims = self.validate(token)
        if not claims.is_admin:
            raise ForbiddenError(
                f"API key {claims.key_id} lacks the {ADMIN_SCOPE!r} scope"
            )
        return claims

    # ------------------------------------------------------------------
    # revoke / introspect
    # ------------------------------------------------------------------

    def revoke(self, key_id: str) -> bool:
        """Revoke a key id; True if it was issued and not already revoked.

        Never-issued ids are ignored (False) rather than recorded —
        otherwise repeated revocations of garbage ids would grow the
        revocation set without bound.
        """
        with self._lock:
            if key_id not in self._issued:
                return False
            already = key_id in self._revoked
            self._revoked.add(key_id)
            if not already:
                self._persist_locked()
            return not already

    def issued_keys(self) -> Tuple[ApiKeyClaims, ...]:
        """Claims of every issued key, in issue order."""
        with self._lock:
            return tuple(
                self._issued[k]
                for k in sorted(self._issued, key=lambda kid: int(kid[1:]))
            )

    def is_revoked(self, key_id: str) -> bool:
        with self._lock:
            return key_id in self._revoked

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ApiKeyAuthority(issued={len(self._issued)}, "
                f"revoked={len(self._revoked)})"
            )
