"""ProvenanceService core: operations, audit chain, tenant determinism."""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError, UnknownObjectError
from repro.service import AUDIT_OBJECT, ProvenanceService, canonical_json
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
    def test_every_verify_appends_a_verify_record(self, service):
        service.record("acme", "insert", "doc", value="v0")
        assert AUDIT_OBJECT not in service.objects("acme")["objects"]
        service.verify("acme", "doc")
        service.verify("acme", "doc")
        chain = service.provenance("acme", AUDIT_OBJECT)["records"]
        assert [r["seq_id"] for r in chain] == [0, 1]

    def test_audit_records_are_signed_and_verifiable(self, service):
        service.record("acme", "insert", "doc", value="v0")
        service.verify("acme", "doc")
        audit_report = service.verify("acme", AUDIT_OBJECT)
        assert audit_report["ok"] is True

    def test_audit_notes_name_the_target(self, service):
        service.record("acme", "insert", "doc", value="v0")
        service.verify("acme", "doc")
        world = service.world("acme")
        record = world.store.latest(AUDIT_OBJECT)
        assert record.note == "VERIFY"
        assert '"verify":"doc"' in world.db.store.get(AUDIT_OBJECT).value

    def test_verify_response_is_not_perturbed_by_the_audit_append(self, service):
        # The VERIFY record lands on the audit chain, not the data chain:
        # verifying twice yields byte-identical reports.
        service.record("acme", "insert", "doc", value="v0")
        first = canonical_json(service.verify("acme", "doc"))
        second = canonical_json(service.verify("acme", "doc"))
        assert first == second


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
        svc = ProvenanceService(make_config(signature_scheme="merkle-batch"))
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
        with pytest.raises(Exception):
            ProvenanceService(make_config(signature_scheme="dsa"))


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

    def test_scheme_aliases_resolve(self):
        assert ServiceConfig(signature_scheme="rsa").resolved_scheme() == (
            "rsa-pkcs1v15"
        )
