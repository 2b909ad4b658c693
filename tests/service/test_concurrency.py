"""Concurrency stress: interleaved multi-tenant ingest + verify.

The ISSUE's bar: at least 32 worker threads across at least 8 tenants,
interleaved ingest and verification, and afterwards every tenant's
chains verify clean, sequence numbers are monotone per object, and no
record ever crossed a tenant boundary.  Chains are local per object
(§3.2) and each simulated client owns its object, so full concurrency
must not cost a single verification failure — the assertion is zero,
not "few".

Kept pytest-sized: 64 logical clients over 32 threads (the acceptance
1000-client run lives in ``benchmarks/bench_service.py``); wall-clock is
bounded by small test keys and a time budget assertion.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.service import ServiceClient
from repro.service.load import LoadSpec, run_load

THREADS = 32
TENANTS = 8
CLIENTS = 64

SPEC = LoadSpec(
    clients=CLIENTS, tenants=TENANTS, threads=THREADS,
    ops_per_client=3, verify_every=4, seed=11,
)


def issue_tokens(server):
    admin = ServiceClient(server.base_url, token=server.service.admin_token)
    return {
        f"t{i}": admin.issue_key(f"t{i}")["token"] for i in range(TENANTS)
    }


class TestInterleavedLoad:
    def test_zero_failures_under_concurrency(self, server):
        tokens = issue_tokens(server)
        began = time.monotonic()
        report, outcomes = run_load(server.base_url, tokens, SPEC)
        elapsed = time.monotonic() - began

        assert report.errors == []
        assert report.verify_failures == []
        assert all(o.verified_ok for o in outcomes)
        assert report.requests >= CLIENTS * (SPEC.ops_per_client + 1)
        # All 8 tenants actually took traffic.
        assert len(report.per_tenant_ops) == TENANTS
        # Pytest-safe bound: generous, but catches a serialization
        # collapse (e.g. a global lock) or a retry storm.
        assert elapsed < 120, f"load run took {elapsed:.1f}s"

        self._assert_chain_invariants(server)
        self._assert_isolation(server)

    def _assert_chain_invariants(self, server):
        """Post-hoc ground truth straight from each tenant's world."""
        service = server.service
        for tenant in service.tenant_ids():
            world = service.world(tenant)
            for oid in world.store.object_ids():
                chain = world.store.records_for(oid)
                seqs = [r.seq_id for r in chain]
                assert seqs == sorted(set(seqs)), (
                    f"{tenant}/{oid}: non-monotone seqs {seqs}"
                )
                report = service.verify(tenant, oid) if (
                    oid in world.db.store
                ) else None
                if report is not None:
                    assert report["ok"], f"{tenant}/{oid}: {report['failures']}"

    def _assert_isolation(self, server):
        """No record ever crossed a tenant boundary."""
        service = server.service
        for tenant in service.tenant_ids():
            world = service.world(tenant)
            owners = set()
            for record in world.store.all_records():
                assert record.participant_id == f"svc:{tenant}", (
                    f"{tenant} store holds a record signed by "
                    f"{record.participant_id}"
                )
                owners.add(record.object_id)
            # Every data object in this store belongs to a client of this
            # tenant (client c -> tenant c % TENANTS, object "c<c>:doc").
            tenant_index = int(tenant[1:])
            for oid in owners:
                client = int(oid[1:].split(":", 1)[0])
                assert client % TENANTS == tenant_index, (
                    f"object {oid} leaked into tenant {tenant}"
                )

    def test_concurrent_verifies_store_nothing(
        self, server, tenant_client
    ):
        """Many concurrent verifies of one tenant share its verifier and
        its memo of checked seals; each is ok, and none stores a record."""
        c = tenant_client("acme")
        c.insert("doc", 0)
        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(lambda _: c.verify("doc"), range(32)))
        assert all(r["ok"] for r in results)
        assert len({json.dumps(r, sort_keys=True) for r in results}) == 1
        world = server.service.world("acme")
        assert [r.key for r in world.store.all_records()] == [("doc", 0)]
        assert c.objects()["objects"] == ["doc"]

    def test_concurrent_tenant_creation_is_deterministic(self, server_factory):
        """Hammering a fresh server from many threads must create each
        tenant world exactly once, with its seeded identity."""
        a = server_factory()
        b = server_factory()

        def first_chains(server):
            admin = ServiceClient(
                server.base_url, token=server.service.admin_token
            )
            tokens = {
                f"t{i}": admin.issue_key(f"t{i}")["token"] for i in range(8)
            }

            def create(i):
                client = ServiceClient(server.base_url, token=tokens[f"t{i}"])
                return client.insert(f"t{i}:doc", i)["records"][0]["checksum"]

            with ThreadPoolExecutor(max_workers=8) as pool:
                return list(pool.map(create, range(8)))

        # Different arrival orders across the two servers; identical
        # per-tenant worlds regardless.
        assert first_chains(a) == first_chains(b)
