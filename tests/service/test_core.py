"""ProvenanceService core: operations, verify as a read, tenant determinism."""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError, UnknownObjectError
from repro.service import ProvenanceService, canonical_json
from repro.service.core import ServiceConfig

from tests.service.conftest import make_config


@pytest.fixture
def service():
    svc = ProvenanceService(make_config())
    yield svc
    svc.close()


class TestOperations:
    def test_record_insert_update(self, service):
        out = service.record("acme", "insert", "doc", value="v0")
        assert out["records"][0]["seq_id"] == 0
        out = service.record("acme", "update", "doc", value="v1")
        assert out["records"][0]["seq_id"] == 1
        assert out["records"][0]["operation"] == "update"

    def test_batch_is_one_complex_operation(self, service):
        service.record("acme", "insert", "c", value=0)
        out = service.batch("acme", [
            {"op": "insert", "object_id": "a", "value": 1},
            {"op": "insert", "object_id": "b", "value": 2},
            {"op": "update", "object_id": "c", "value": 3},
        ])
        # One record per surviving touched object (§4.4), not one per
        # primitive; the pre-existing object's record is a COMPLEX one.
        own = {r["object_id"]: r for r in out["records"] if not r["inherited"]}
        assert sorted(own) == ["a", "b", "c"]
        assert own["c"]["operation"] == "complex"
        assert own["c"]["seq_id"] == 1

    def test_batch_rejects_aggregate_and_empty(self, service):
        with pytest.raises(ServiceError):
            service.batch("acme", [])
        with pytest.raises(ServiceError):
            service.batch("acme", [
                {"op": "aggregate", "object_id": "x", "inputs": ["a"]},
            ])

    def test_batch_rejects_non_dict_ops(self, service):
        for bad in (["nope"], [42], [None], "nope", {"op": "insert"}, 7):
            with pytest.raises(ServiceError):
                service.batch("acme", bad)

    def test_aggregate_builds_lineage(self, service):
        service.record("acme", "insert", "a", value=1)
        service.record("acme", "insert", "b", value=2)
        service.record("acme", "aggregate", "c", inputs=["a", "b"])
        lineage = service.lineage("acme", "c")
        assert lineage["aggregations"] == 1
        assert not lineage["linear"]
        assert sorted(lineage["sources"]) == ["a", "b"]

    def test_verify_reports_clean(self, service):
        service.record("acme", "insert", "doc", value="v0")
        report = service.verify("acme", "doc")
        assert report["ok"] is True
        assert report["failures"] == []
        assert report["records_checked"] >= 1

    def test_verify_unknown_object_404s(self, service):
        with pytest.raises(UnknownObjectError):
            service.verify("acme", "ghost")
        with pytest.raises(UnknownObjectError):
            service.provenance("acme", "ghost")
        with pytest.raises(UnknownObjectError):
            service.lineage("acme", "ghost")

    def test_unknown_op_rejected(self, service):
        with pytest.raises(ServiceError):
            service.record("acme", "upsert", "doc", value=1)

    def test_invalid_tenant_ids_rejected(self, service):
        for bad in ("", "*"):
            with pytest.raises(ServiceError):
                service.world(bad)


class TestAuditChain:
    def test_verify_response_is_not_perturbed_by_the_audit_append(self, service):
        # A verify is a read: it stores nothing, so verifying twice
        # yields byte-identical reports and leaves the tenant unchanged.
        service.record("acme", "insert", "doc", value="v0")
        first = canonical_json(service.verify("acme", "doc"))
        second = canonical_json(service.verify("acme", "doc"))
        assert first == second
        assert service.objects("acme")["objects"] == ["doc"]
        assert len(list(service.world("acme").store.all_records())) == 1


class TestVerifyMemo:
    def test_a_second_verify_of_an_unchanged_object_makes_no_rsa_verify(
        self, service, monkeypatch
    ):
        """The tenant world's verifier remembers the seals it checked."""
        from repro.crypto.signatures import RSASignatureVerifier

        service.record("acme", "insert", "doc", value="v0")
        service.record("acme", "update", "doc", value="v1")
        calls = []
        original = RSASignatureVerifier.verify

        def counted(verifier, message, signature):
            calls.append(message)
            return original(verifier, message, signature)

        monkeypatch.setattr(RSASignatureVerifier, "verify", counted)
        first = service.verify("acme", "doc")
        assert first["ok"] and len(calls) == 2  # one root per commit
        del calls[:]
        assert service.verify("acme", "doc") == first
        assert calls == []
        # A new seal is checked once, the old ones not again.
        service.record("acme", "update", "doc", value="v2")
        assert service.verify("acme", "doc")["records_checked"] == 3
        assert len(calls) == 1


class TestDeterminism:
    def test_same_seed_same_world_bytes(self):
        outputs = []
        for _ in range(2):
            svc = ProvenanceService(make_config())
            try:
                svc.record("acme", "insert", "doc", value="v0")
                svc.record("acme", "update", "doc", value="v1")
                outputs.append((
                    canonical_json(svc.provenance("acme", "doc")),
                    canonical_json(svc.verify("acme", "doc")),
                ))
            finally:
                svc.close()
        assert outputs[0] == outputs[1]

    def test_tenant_worlds_independent_of_creation_order(self):
        """Tenant b's chains don't depend on whether a was created first."""
        chains = []
        for order in (("a", "b"), ("b", "a")):
            svc = ProvenanceService(make_config())
            try:
                for tenant in order:
                    svc.record(tenant, "insert", "doc", value=f"{tenant}-v0")
                chains.append(canonical_json(svc.provenance("b", "doc")))
            finally:
                svc.close()
        assert chains[0] == chains[1]

    def test_tenants_have_distinct_keys(self, service):
        service.record("a", "insert", "doc", value=1)
        service.record("b", "insert", "doc", value=1)
        ca_a = service.world("a").db.ca
        ca_b = service.world("b").db.ca
        assert ca_a.public_key.n != ca_b.public_key.n

    def test_merkle_batch_scheme_works(self):
        svc = ProvenanceService(make_config())
        try:
            svc.record("acme", "insert", "doc", value="v0")
            svc.record("acme", "update", "doc", value="v1")
            assert svc.verify("acme", "doc")["ok"] is True
        finally:
            svc.close()

    def test_verify_and_lineage_never_scan_the_tenant(self, monkeypatch):
        """Served per-object reads walk the closure, not every record."""

        def scan():
            raise AssertionError("served read scanned the whole tenant")

        answers = []
        for guarded in (False, True):
            svc = ProvenanceService(make_config())
            try:
                svc.record("acme", "insert", "a", value=1)
                svc.record("acme", "insert", "b", value=2)
                svc.record("acme", "insert", "unrelated", value=3)
                svc.record("acme", "aggregate", "c", inputs=["a", "b"])
                if guarded:
                    monkeypatch.setattr(svc.world("acme").store, "all_records", scan)
                with pytest.raises(UnknownObjectError) as unknown:
                    svc.lineage("acme", "ghost")
                answers.append((
                    canonical_json(svc.verify("acme", "c")),
                    canonical_json(svc.lineage("acme", "c")),
                    str(unknown.value),
                ))
            finally:
                svc.close()
        assert answers[0] == answers[1]

    def test_bad_scheme_rejected_eagerly(self):
        """A service serves Merkle-batch only: a config that names a
        signature scheme, per-record RSA included, is refused when built."""
        with pytest.raises(TypeError):
            make_config(signature_scheme="rsa")

    def test_served_records_are_merkle_batch_by_default(self, service):
        """One root signature per commit; the library keeps per-record RSA."""
        from repro.core.system import TamperEvidentDatabase

        out = service.batch(
            "acme", [{"op": "insert", "object_id": f"o{i}", "value": i} for i in range(3)]
        )
        assert len(out["records"]) == 3
        records = service.world("acme").store.all_records()
        assert {(r.scheme, r.proof.epoch, r.proof.count) for r in records} == {
            ("merkle-batch", 0, 3)
        }
        assert TamperEvidentDatabase(key_bits=512, seed=1).signature_scheme == (
            "rsa-pkcs1v15"
        )


class TestRestart:
    @pytest.mark.parametrize("shards", (1, 4))
    def test_merkle_batch_epochs_resume_after_the_stored_maximum(self, tmp_path, shards):
        """A durable tenant reopened by a restarted server seals under
        epochs after every stored one, and still audits clean."""
        from repro.service import ProvenanceHTTPServer, ServiceClient

        config = make_config(store_root=str(tmp_path), shards=shards)

        def epochs(server):
            return {
                (record.object_id, record.seq_id): record.proof.epoch
                for record in server.service.world("acme").store.all_records()
            }

        def serve(writes):
            """Write, then run the full (admin) healthz audit."""
            server = ProvenanceHTTPServer(config=config)
            server.start_background()
            try:
                with ServiceClient(server.base_url, token=server.service.admin_token) as admin:
                    token = admin.issue_key("acme")["token"]
                    with ServiceClient(server.base_url, token=token) as client:
                        writes(client)
                    health = admin.healthz()
                assert health.json["tenants"]["acme"]["health"] == "ok"
                return epochs(server), health.status
            finally:
                server.stop()

        def before(client):
            for i in range(3):
                client.insert(f"x{i}", i)
            client.batch([
                {"op": "update", "object_id": f"x{i}", "value": 10 + i} for i in range(3)
            ])
            assert client.verify("x0")["ok"]

        def after(client):
            # Inserts only: a restarted tenant keeps its provenance but
            # not yet its data.
            client.insert("y", 1)
            client.batch([{"op": "insert", "object_id": "z", "value": 2}])
            assert client.verify("y")["ok"]

        stored, status = serve(before)
        assert status == 200
        assert max(stored.values()) == 3  # three inserts and a batch
        reopened, status = serve(after)
        assert status == 200
        new = {key: epoch for key, epoch in reopened.items() if key not in stored}
        assert {key: reopened[key] for key in stored} == stored
        assert len(new) == 2  # y and z: a verify stores nothing
        assert min(new.values()) > max(stored.values())

    def test_an_earlier_builds_audit_chain_stays_an_ordinary_object(self, tmp_path):
        """Earlier builds stored a ``VERIFY`` note per served verify on
        the object ``~audit``.  A durable store holding such a chain
        reopens with it as an ordinary object, and it still audits clean."""
        config = make_config(store_root=str(tmp_path))
        earlier = ProvenanceService(config)
        try:
            earlier.record("acme", "insert", "doc", value="v0")
            for op in ("insert", "update"):
                note = '{"ok":true,"records":1,"tally":{},"verify":"doc"}'
                earlier.record("acme", op, "~audit", value=note, note="VERIFY")
        finally:
            earlier.close()
        reopened = ProvenanceService(config)
        try:
            assert reopened.objects("acme")["objects"] == ["doc", "~audit"]
            chain = reopened.provenance("acme", "~audit")["records"]
            assert [r["seq_id"] for r in chain] == [0, 1]
            payload, tampered = reopened.healthz(full=True)
            assert not tampered
            assert payload["tenants"]["acme"]["health"] == "ok"
            assert payload["tenants"]["acme"]["verified"] == 3
        finally:
            reopened.close()


    def test_opening_one_tenant_holds_up_no_other(self, monkeypatch):
        """A world opens under its own tenant's lock: while one tenant's
        world is built (key generation, and on a durable store the scan
        for its largest epoch), another tenant opens and the tenant list
        answers, and a second request for the same tenant waits for the
        one world being built."""
        import threading

        from repro.service import core

        entered, release = threading.Event(), threading.Event()

        class SlowWorld(core.TenantWorld):
            def __init__(self, tenant_id, *args, **kwargs):
                if tenant_id == "slow":
                    entered.set()
                    assert release.wait(30)
                super().__init__(tenant_id, *args, **kwargs)

        monkeypatch.setattr(core, "TenantWorld", SlowWorld)
        svc = ProvenanceService(make_config())
        try:
            opened = []
            slow = [
                threading.Thread(target=lambda: opened.append(svc.world("slow")))
                for _ in range(2)
            ]
            for thread in slow:
                thread.start()
            assert entered.wait(30)
            other = []
            thread = threading.Thread(
                target=lambda: other.append((svc.world("fast"), svc.tenant_ids()))
            )
            thread.start()
            thread.join(10)
            assert other and other[0][1] == ("fast",)
            release.set()
            for thread in slow:
                thread.join(30)
            assert len(opened) == 2 and opened[0] is opened[1] is svc.world("slow")
            assert svc.tenant_ids() == ("fast", "slow")
        finally:
            release.set()
            svc.close()


class TestHealth:
    def test_healthz_clean(self, service):
        service.record("acme", "insert", "doc", value="v0")
        payload, tampered = service.healthz()
        assert not tampered
        assert payload["health"] == "ok"
        assert payload["tenants"]["acme"]["health"] == "ok"

    def test_healthz_detects_tamper_like_monitor_once(self, service):
        """/healthz and `repro monitor --once` agree: both are a full
        monitor tick whose tamper alerts drive the exit status."""
        import dataclasses

        from repro.monitor import ProvenanceMonitor

        service.record("acme", "insert", "doc", value="v0")
        service.record("acme", "update", "doc", value="v1")
        assert not service.healthz()[1]

        # Tamper with raw store access: forge the tail checksum in place.
        world = service.world("acme")
        victim = world.store.latest("doc")
        shard = world.store._shard_for("doc")
        shard._chains["doc"][-1] = dataclasses.replace(
            victim, checksum=b"\x00" * len(victim.checksum)
        )

        payload, tampered = service.healthz()
        assert tampered
        assert payload["health"] == "tampered"
        assert payload["tenants"]["acme"]["failure_tally"]

        # The same verdict `repro monitor --once` semantics would give:
        # a fresh monitor over the same store, one full tick.
        monitor = ProvenanceMonitor(world.store, world.keystore)
        monitor.tick(full=True)
        assert monitor.has_tamper_alerts

    def test_one_bad_tenant_taints_the_aggregate_only(self, service):
        import dataclasses

        service.record("good", "insert", "doc", value=1)
        service.record("bad", "insert", "doc", value=1)
        world = service.world("bad")
        victim = world.store.latest("doc")
        world.store._shard_for("doc")._chains["doc"][-1] = dataclasses.replace(
            victim, checksum=b"\x00" * len(victim.checksum)
        )
        payload, tampered = service.healthz()
        assert tampered
        assert payload["tenants"]["good"]["health"] == "ok"
        assert payload["tenants"]["bad"]["health"] == "tampered"

    def test_sqlite_backed_worlds(self, tmp_path):
        svc = ProvenanceService(make_config(store_root=str(tmp_path)))
        try:
            svc.record("acme", "insert", "doc", value="v0")
            assert svc.verify("acme", "doc")["ok"] is True
            assert (tmp_path / "acme").is_dir()
        finally:
            svc.close()


class TestServiceConfig:
    def test_frozen_and_comparable(self):
        assert ServiceConfig(seed=1) == ServiceConfig(seed=1)
        assert ServiceConfig(seed=1) != ServiceConfig(seed=2)
