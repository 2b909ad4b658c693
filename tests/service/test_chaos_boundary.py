"""Chaos at the network boundary: injected faults vs the HTTP contract.

The contract under test (ISSUE satellite):

* A transient fault at the request boundary (``service.request`` ERROR)
  surfaces as **503 + Retry-After** — and because it fires before any
  store write, a client retry simply succeeds; nothing is half-applied.
* A transient store fault (``store.append_many`` ERROR) is absorbed by
  the collector's bounded retry and never reaches the client at all.
* A torn batch (crash mid-``append_many``) is a **500**; the engine is
  compensated, ``POST /v1/admin/recover`` rolls the torn prefix back,
  and afterwards the workload replays cleanly with **no false-positive
  tamper alert** on ``/healthz``.
* LATENCY faults slow requests down but never fail them.

Faults are scheduled by explicit invocation indices (not rates) and the
workload is driven sequentially, so every test is deterministic — the
same request always lands on the same fault-site index.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.provenance.registry import shard_index
from repro.service import ServiceClient, ServiceHTTPError


def plan_of(*rules: FaultRule) -> FaultPlan:
    return FaultPlan(seed=3, rules=tuple(rules))


def raw_client(server, tenant: str = "acme") -> ServiceClient:
    """A client with NO retry budget — sees faults as the wire does."""
    admin = ServiceClient(server.base_url, token=server.service.admin_token)
    token = admin.issue_key(tenant)["token"]
    return ServiceClient(server.base_url, token=token, retries=0)


class TestTransientBoundaryFaults:
    def test_503_with_retry_after_and_no_partial_write(self, server_factory):
        # Data-plane request #1 (0-based) fails; #0 and #2+ are clean.
        plan = plan_of(FaultRule(
            site="service.request", kind=FaultKind.ERROR,
            indices=frozenset({1}),
        ))
        server = server_factory(faults=plan)
        client = raw_client(server)

        client.insert("a", 1)                                   # index 0
        response = client.request(                              # index 1
            "POST", "/v1/record",
            {"op": "insert", "object_id": "b", "value": 2},
            raise_for_status=False,
        )
        assert response.status == 503
        assert float(response.headers["Retry-After"]) > 0
        # The fault fired before any store write: the failed insert left
        # nothing behind, so replaying it is a clean first insert.
        out = client.insert("b", 2)                             # index 2
        assert out["records"][0]["seq_id"] == 0
        assert client.verify("a")["ok"] and client.verify("b")["ok"]
        chain = server.service.world("acme").store.records_for("b")
        assert len(chain) == 1

    def test_retrying_client_never_sees_the_fault(self, server_factory):
        plan = plan_of(FaultRule(
            site="service.request", kind=FaultKind.ERROR,
            indices=frozenset({0}),
        ))
        server = server_factory(faults=plan)
        admin = ServiceClient(server.base_url, token=server.service.admin_token)
        client = ServiceClient(
            server.base_url, token=admin.issue_key("acme")["token"], retries=3
        )
        response = client.request(
            "POST", "/v1/record",
            {"op": "insert", "object_id": "doc", "value": 1},
        )
        assert response.ok
        assert response.retries == 1
        assert client.verify("doc")["ok"]

    def test_latency_fault_slows_but_never_fails(self, server_factory):
        plan = plan_of(FaultRule(
            site="service.request", kind=FaultKind.LATENCY,
            rate=1.0, latency=0.001,
        ))
        server = server_factory(faults=plan)
        client = raw_client(server)
        client.insert("doc", 1)
        client.update("doc", 2)
        assert client.verify("doc")["ok"]
        assert client.healthz().status == 200
        # Every data-plane request drew the latency fault.
        latency_events = [
            e for e in plan.events if e.kind is FaultKind.LATENCY
        ]
        assert len(latency_events) >= 3


class TestTransientStoreFaults:
    def test_collector_retry_absorbs_store_error(self, server_factory):
        """A transient append_many failure is the COLLECTOR's problem,
        not the client's: the bounded retry hides it and no 503 leaks."""
        plan = plan_of(FaultRule(
            site="store.append_many", kind=FaultKind.ERROR,
            indices=frozenset({0}),
        ))
        server = server_factory(faults=plan)
        client = raw_client(server)
        out = client.insert("doc", 1)       # flush #0 errors, retry lands it
        assert out["records"][0]["seq_id"] == 0
        assert client.verify("doc")["ok"]
        # Non-vacuous: the fault really fired.
        assert any(
            e.site == "store.append_many" and e.kind is FaultKind.ERROR
            for e in plan.events
        )


    def test_batch_spanning_shards_retries_as_a_clean_first_write(
        self, server_factory, tmp_path, monkeypatch
    ):
        """A transient error in a later shard takes back the earlier
        shards' rows, so the collector's retry answers 200 with every seq
        id 0 (it used to answer 400 over orphan rows)."""
        server = server_factory(store_root=str(tmp_path))
        client = raw_client(server)
        ops = [{"op": "insert", "object_id": f"o{i}", "value": i} for i in range(8)]
        shards = server.service.world("acme").store.shards
        last = shards[max(shard_index(op["object_id"], len(shards)) for op in ops)]
        original = last._append_many_txn
        calls = []

        def fails_once(records):
            calls.append(len(records))
            if len(calls) == 1:
                raise sqlite3.OperationalError("disk I/O error (injected)")
            return original(records)

        monkeypatch.setattr(last, "_append_many_txn", fails_once)
        out = client.batch(ops)
        assert len(calls) == 2
        assert [r["seq_id"] for r in out["records"]] == [0] * 8
        assert client.verify("o7")["ok"]
        assert client.healthz().status == 200

    def test_a_durable_batch_of_updates_stages_from_chain_tails(
        self, server_factory, tmp_path, monkeypatch
    ):
        """Staging reads each object's cached chain tail, never a whole
        record, even with cold tail caches."""
        server = server_factory(store_root=str(tmp_path), signature_scheme="merkle-batch")
        client = raw_client(server)
        client.batch([{"op": "insert", "object_id": f"o{i}", "value": i} for i in range(16)])
        world = server.service.world("acme")
        for shard in world.store.shards:
            shard._tail_cache.clear()

        def no_latest(*args):
            raise AssertionError("staging read a whole record")

        for store in (type(world.store), type(world.store.shards[0])):
            monkeypatch.setattr(store, "latest", no_latest)
        out = client.batch([
            {"op": "update", "object_id": f"o{i}", "value": -i} for i in range(16)
        ])
        assert [r["seq_id"] for r in out["records"]] == [1] * 16
        monkeypatch.undo()
        assert client.verify("o3")["ok"]


class TestTornBatchRecovery:
    def test_torn_batch_500_recover_replay_no_false_tamper(self, server_factory):
        plan = plan_of(FaultRule(
            site="store.append_many", kind=FaultKind.TORN,
            indices=frozenset({0}), torn_keep=1,
        ))
        server = server_factory(faults=plan)
        client = raw_client(server)
        admin = ServiceClient(server.base_url, token=server.service.admin_token)

        batch = [
            {"op": "insert", "object_id": oid, "value": i}
            for i, oid in enumerate(("x", "y", "z"))
        ]
        # The batch tears after 1 of 3 records: a crash, not a retryable
        # blip — the client sees 500 and the engine is compensated.
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.batch(batch)
        assert excinfo.value.status == 500

        # The torn prefix is visible in the raw store until recovery...
        world = server.service.world("acme")
        assert len(world.store) == 1
        # ...and recovery rolls it back to the last acknowledged state.
        report = admin.recover()["tenants"]["acme"]
        # One torn journal slice per shard the batch touched (ids are the
        # sharded store's encoded batch ids — values don't matter here).
        assert report["torn_batches"]
        assert report["truncated"] == [["x", 0]]
        assert len(world.store) == 0

        # The workload replays cleanly (append_many #1 is unfaulted)...
        out = client.batch(batch)
        assert {r["object_id"] for r in out["records"]} == {"x", "y", "z"}
        for oid in ("x", "y", "z"):
            assert client.verify(oid)["ok"]
        # ...and the monitor never accuses the honest writer: the crash
        # plus repair left no tamper evidence behind.
        health = client.healthz()
        assert health.status == 200
        assert health.json["tenants"]["acme"]["health"] == "ok"

    def test_unrecovered_torn_batch_is_why_recovery_exists(self, server_factory):
        """Sanity for the test above: withOUT recovery the torn prefix
        makes the honest store look wrong (the false accusation recovery
        prevents)."""
        plan = plan_of(FaultRule(
            site="store.append_many", kind=FaultKind.TORN,
            indices=frozenset({0}), torn_keep=1,
        ))
        server = server_factory(faults=plan)
        client = raw_client(server)
        with pytest.raises(ServiceHTTPError):
            client.batch([
                {"op": "insert", "object_id": oid, "value": 0}
                for oid in ("x", "y", "z")
            ])
        world = server.service.world("acme")
        # Torn journal entry still open; store state unacknowledged.
        assert any(not entry.committed for entry in world.store.journal())
