"""The API-key authority caches validated tokens, never their verdicts.

A token's signature is checked once and its claims are remembered by the
exact token string; expiry and revocation are still checked on every
request, a token that fails its signature check is never remembered,
and the cache holds at most ``MAX_CACHED_TOKENS`` entries.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.pki import CertificateAuthority
from repro.exceptions import AuthError, ForbiddenError
from repro.service import ApiKeyAuthority, ServiceClient, ServiceHTTPError
from repro.service.auth import _b64d, _b64e


def authority(clock=None) -> ApiKeyAuthority:
    ca = CertificateAuthority(name="cache-ca", key_bits=512, rng=random.Random(3))
    if clock is None:
        return ApiKeyAuthority(ca)
    return ApiKeyAuthority(ca, clock=clock)


def flip_signature_byte(token: str) -> str:
    prefix, payload, signature = token.split(".")
    raw = bytearray(_b64d(signature))
    raw[len(raw) // 2] ^= 0x01
    return ".".join((prefix, payload, _b64e(bytes(raw))))


def test_a_cached_key_revoked_afterwards_is_forbidden():
    auth = authority()
    token = auth.issue("acme")
    assert auth.validate(token).tenant == "acme"
    assert token in auth._validated
    auth.revoke(auth.decode_claims(token).key_id)
    for _ in range(2):
        with pytest.raises(ForbiddenError):
            auth.validate(token)


def test_a_cached_key_past_its_expiry_is_unauthorized():
    now = [1_000.0]
    auth = authority(clock=lambda: now[0])
    token = auth.issue("acme", ttl=60)
    assert auth.validate(token).tenant == "acme"
    assert token in auth._validated
    now[0] += 60
    with pytest.raises(AuthError, match="expired"):
        auth.validate(token)


@pytest.mark.parametrize("bad", ["flipped", "rpk1.e30.AAAA", "rpk1.!!.??", "not-a-token"])
def test_a_forged_or_malformed_token_is_never_cached(bad):
    auth = authority()
    token = auth.issue("acme")
    forged = flip_signature_byte(token) if bad == "flipped" else bad
    for _ in range(2):
        with pytest.raises(AuthError):
            auth.validate(forged)
    assert forged not in auth._validated
    assert auth._validated == {}


def test_the_cache_bound_holds_and_evicts_the_oldest():
    auth = authority()
    auth.MAX_CACHED_TOKENS = 4
    tokens = [auth.issue(f"t{i}") for i in range(10)]
    for token in tokens:
        auth.validate(token)
        assert len(auth._validated) <= 4
    assert list(auth._validated) == tokens[-4:]
    # An evicted token is simply checked again.
    assert auth.validate(tokens[0]).tenant == "t0"
    assert len(auth._validated) == 4


def test_the_class_bound_is_a_constant():
    assert ApiKeyAuthority.MAX_CACHED_TOKENS == 1024


def test_served_revocation_and_expiry_of_a_cached_key(server):
    now = [1_000.0]
    server.service.authority.clock = lambda: now[0]
    with ServiceClient(server.base_url, token=server.service.admin_token) as admin:
        revoked = admin.issue_key("acme")
        expiring = admin.issue_key("acme", ttl=60)
        with ServiceClient(server.base_url, token=revoked["token"]) as client:
            client.insert("a", 1)  # validates, and caches, the token
            admin.revoke_key(revoked["key_id"])
            with pytest.raises(ServiceHTTPError) as caught:
                client.insert("b", 2)
            assert caught.value.status == 403
        with ServiceClient(server.base_url, token=expiring["token"]) as client:
            client.insert("c", 3)
            now[0] += 61
            with pytest.raises(ServiceHTTPError) as caught:
                client.insert("d", 4)
            assert caught.value.status == 401
