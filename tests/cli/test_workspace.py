"""Unit tests for on-disk workspaces."""

import json

import pytest

from repro.cli.workspace import Workspace, WorkspaceError

KEY_BITS = 512


@pytest.fixture
def ws(tmp_path):
    with Workspace.create(tmp_path / "lab", key_bits=KEY_BITS) as workspace:
        yield workspace


class TestLifecycle:
    def test_create_and_reopen(self, tmp_path):
        Workspace.create(tmp_path / "lab", key_bits=KEY_BITS).close()
        with Workspace(tmp_path / "lab") as ws:
            assert ws.config["key_bits"] == KEY_BITS
            assert ws.ca.name == "repro-root-ca"

    def test_double_create_rejected(self, tmp_path):
        Workspace.create(tmp_path / "lab", key_bits=KEY_BITS).close()
        with pytest.raises(WorkspaceError):
            Workspace.create(tmp_path / "lab")

    def test_open_non_workspace_rejected(self, tmp_path):
        with pytest.raises(WorkspaceError):
            Workspace(tmp_path / "nothing-here")

    def test_ca_survives_reopen(self, tmp_path):
        ws = Workspace.create(tmp_path / "lab", key_bits=KEY_BITS)
        original_key = ws.ca.public_key
        ws.close()
        with Workspace(tmp_path / "lab") as reopened:
            assert reopened.ca.public_key == original_key


class TestParticipants:
    def test_enroll_and_load(self, ws):
        enrolled = ws.enroll("alice")
        loaded = ws.participant("alice")
        assert loaded.participant_id == "alice"
        assert loaded.certificate == enrolled.certificate
        # The loaded key signs verifiably under the stored certificate.
        sig = loaded.sign(b"m")
        assert enrolled.scheme.verify(b"m", sig)

    def test_duplicate_enroll_rejected(self, ws):
        ws.enroll("alice")
        with pytest.raises(WorkspaceError):
            ws.enroll("alice")

    def test_unknown_participant(self, ws):
        ws.enroll("alice")
        with pytest.raises(WorkspaceError) as excinfo:
            ws.participant("mallory")
        assert "alice" in str(excinfo.value)  # lists enrolled ids

    def test_corrupt_participant_file(self, ws):
        ws.enroll("alice")
        (ws.path / "participants" / "alice.json").write_text("{broken")
        with pytest.raises(WorkspaceError):
            ws.participant("alice")

    def test_participants_listing(self, ws):
        for name in ("bob", "alice"):
            ws.enroll(name)
        assert ws.participants() == ["alice", "bob"]

    def test_certificates_persisted_in_ca(self, ws, tmp_path):
        ws.enroll("alice")
        ws.close()
        with Workspace(ws.path) as reopened:
            cert = reopened.ca.certificate_for("alice")
            assert reopened.ca.verify_certificate(cert)


class TestAnchors:
    def test_anchor_log_persists_across_reopen(self, tmp_path):
        path = tmp_path / "lab"
        with Workspace.create(path, key_bits=KEY_BITS) as ws:
            alice = ws.enroll("alice")
            db = ws.database()
            db.session(alice).insert("x", 1)
            ws.anchor("x")
        with Workspace(path) as reopened:
            receipts = reopened.anchor_log().entries
            assert len(receipts) == 1
            assert receipts[0].checkpoint.object_id == "x"
            # The reloaded witness continues the log and verifies its
            # own earlier entries.
            db = reopened.database()
            assert reopened.check_anchors(db.provenance_store) == ()
            next_receipt = reopened.anchor("x")
            assert next_receipt.position == receipts[0].position + 1


class TestDatabase:
    def test_operations_persist(self, tmp_path):
        path = tmp_path / "lab"
        with Workspace.create(path, key_bits=KEY_BITS) as ws:
            alice = ws.enroll("alice")
            session = ws.database().session(alice)
            session.insert("x", 1)
            session.update("x", 2)
        with Workspace(path) as ws:
            db = ws.database()
            assert db.store.value("x") == 2
            assert db.verify("x").ok

    def test_cross_session_participants(self, tmp_path):
        path = tmp_path / "lab"
        with Workspace.create(path, key_bits=KEY_BITS) as ws:
            ws.enroll("alice")
            ws.database().session(ws.participant("alice")).insert("x", 1)
        with Workspace(path) as ws:
            ws.enroll("bob")
            ws.database().session(ws.participant("bob")).update("x", 2)
        with Workspace(path) as ws:
            db = ws.database()
            chain = db.provenance_of("x")
            assert [r.participant_id for r in chain] == ["alice", "bob"]
            assert db.verify("x").ok
