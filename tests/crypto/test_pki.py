"""Unit tests for certificates, the CA, key store, and participants."""

import dataclasses

import pytest

from repro.crypto.pki import (
    Certificate,
    CertificateAuthority,
    KeyStore,
    Participant,
    resolve_scheme_name,
)
from repro.exceptions import CertificateError


class TestCertificateAuthority:
    def test_issue_and_verify(self, ca, keypair):
        cert = ca.issue("alice", keypair.public)
        assert cert.subject == "alice"
        assert cert.issuer == ca.name
        assert ca.verify_certificate(cert)

    def test_serials_increase(self, ca, keypair):
        c1 = ca.issue("s1", keypair.public)
        c2 = ca.issue("s2", keypair.public)
        assert c2.serial > c1.serial

    def test_tampered_subject_detected(self, ca, keypair):
        cert = ca.issue("bob", keypair.public)
        forged = dataclasses.replace(cert, subject="mallory")
        assert not ca.verify_certificate(forged)

    def test_tampered_key_detected(self, ca, keypair, other_keypair):
        cert = ca.issue("carol", keypair.public)
        forged = dataclasses.replace(cert, public_key=other_keypair.public)
        assert not ca.verify_certificate(forged)

    def test_wrong_issuer_rejected(self, ca, keypair):
        cert = ca.issue("dave", keypair.public)
        forged = dataclasses.replace(cert, issuer="evil-ca")
        assert not ca.verify_certificate(forged)

    def test_certificate_lookup(self, ca, keypair):
        cert = ca.issue("erin", keypair.public)
        assert ca.certificate_for("erin") == cert
        with pytest.raises(CertificateError):
            ca.certificate_for("nobody-here")


class TestCertificateSerialization:
    def test_roundtrip(self, ca, keypair):
        cert = ca.issue("frank", keypair.public)
        restored = Certificate.from_dict(cert.to_dict())
        assert restored == cert
        assert ca.verify_certificate(restored)

    def test_malformed_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_dict({"serial": "x"})


class TestKeyStore:
    def test_add_and_resolve(self, ca, participants):
        store = KeyStore.trusting(ca)
        p1 = participants["p1"]
        store.add_certificate(p1.certificate)
        verifier = store.verifier_for("p1")
        assert verifier.verify(b"m", p1.sign(b"m"))

    def test_untrusted_issuer_rejected(self, ca, participants):
        store = KeyStore.trusting(ca)
        cert = dataclasses.replace(participants["p1"].certificate, issuer="evil-ca")
        with pytest.raises(CertificateError):
            store.add_certificate(cert)

    def test_forged_certificate_rejected(self, ca, participants, other_keypair):
        store = KeyStore.trusting(ca)
        forged = dataclasses.replace(
            participants["p1"].certificate, public_key=other_keypair.public
        )
        with pytest.raises(CertificateError):
            store.add_certificate(forged)

    def test_unknown_participant(self, ca):
        store = KeyStore.trusting(ca)
        with pytest.raises(CertificateError):
            store.verifier_for("ghost")

    def test_contains_and_listing(self, keystore):
        assert "p1" in keystore
        assert "ghost" not in keystore
        assert keystore.participants() == ("p1", "p2", "p3")


class TestParticipant:
    def test_enrolled_participant_signs_verifiably(self, participants, keystore):
        p2 = participants["p2"]
        sig = p2.sign(b"checksum payload")
        assert keystore.verifier_for("p2").verify(b"checksum payload", sig)

    def test_cross_participant_verification_fails(self, participants, keystore):
        sig = participants["p2"].sign(b"m")
        assert not keystore.verifier_for("p1").verify(b"m", sig)

    def test_signature_size(self, participants):
        assert participants["p1"].signature_size == 512 // 8

    def test_repr_mentions_scheme(self, participants):
        assert "rsa-pkcs1v15" in repr(participants["p1"])


class TestSchemeNames:
    def test_scheme_aliases_resolve(self):
        assert resolve_scheme_name("rsa") == "rsa-pkcs1v15"
