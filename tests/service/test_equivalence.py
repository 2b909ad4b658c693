"""HTTP/in-process equivalence: the network front end adds NOTHING.

The property (ISSUE satellite): a seeded workload driven through the
HTTP API produces verification reports **byte-identical** to the same
workload driven against a same-seed in-process service.  The HTTP layer serializes with the same
:func:`canonical_json` the comparison uses, so equality is literal
``bytes ==``, not structural.

This is the strongest correctness statement the service can make: every
checksum, every signature, every report is a pure function of the
(config, per-tenant operation order) pair, and transport is not part of
that function.
"""

from __future__ import annotations

import random

from repro.service import (
    ProvenanceService,
    ServiceClient,
    canonical_json,
)

from tests.service.conftest import make_config

TENANTS = ("t0", "t1", "t2")


def seeded_workload(tenant: str, seed: int = 5):
    """The per-tenant operation list (pure function of tenant + seed)."""
    rng = random.Random(f"{seed}|workload|{tenant}")
    ops = []
    objects = [f"{tenant}-obj{i}" for i in range(3)]
    for oid in objects:
        ops.append({"op": "insert", "object_id": oid,
                    "value": f"v0:{rng.randrange(1 << 20)}"})
    for _ in range(4):
        oid = objects[rng.randrange(len(objects))]
        ops.append({"op": "update", "object_id": oid,
                    "value": f"v:{rng.randrange(1 << 20)}"})
    ops.append({"op": "aggregate", "object_id": f"{tenant}-agg",
                "inputs": objects[:2]})
    ops.append({"op": "batch", "ops": [
        {"op": "insert", "object_id": f"{tenant}-batch-a",
         "value": rng.randrange(1 << 20)},
        {"op": "insert", "object_id": f"{tenant}-batch-b",
         "value": rng.randrange(1 << 20)},
    ]})
    return ops


def drive_http(server_factory):
    """Run the workload over HTTP; returns every response's bytes."""
    server = server_factory()
    admin = ServiceClient(server.base_url, token=server.service.admin_token)
    transcript = []
    for tenant in TENANTS:
        client = ServiceClient(
            server.base_url, token=admin.issue_key(tenant)["token"]
        )
        for op in seeded_workload(tenant):
            if op["op"] == "batch":
                transcript.append(
                    client.request("POST", "/v1/batch", {"ops": op["ops"]}).raw
                )
            else:
                transcript.append(
                    client.request("POST", "/v1/record", op).raw
                )
        for oid in sorted(client.objects()["objects"]):
            transcript.append(client.verify_response(oid).raw)
    return transcript


def drive_inprocess():
    """Same workload against a same-config service, no HTTP anywhere."""
    service = ProvenanceService(make_config())
    transcript = []
    try:
        for tenant in TENANTS:
            for op in seeded_workload(tenant):
                if op["op"] == "batch":
                    result = service.batch(tenant, op["ops"])
                elif op["op"] == "aggregate":
                    result = service.record(
                        tenant, "aggregate", op["object_id"],
                        inputs=op["inputs"],
                    )
                else:
                    result = service.record(
                        tenant, op["op"], op["object_id"], value=op["value"]
                    )
                transcript.append(canonical_json(result))
            for oid in sorted(service.objects(tenant)["objects"]):
                transcript.append(canonical_json(service.verify(tenant, oid)))
    finally:
        service.close()
    return transcript


def test_http_equals_inprocess_byte_for_byte(server_factory):
    http = drive_http(server_factory)
    ref = drive_inprocess()
    assert len(http) == len(ref)
    for i, (a, b) in enumerate(zip(http, ref)):
        assert a == b, f"response {i} diverged:\nHTTP: {a!r}\nref:  {b!r}"


def test_two_http_servers_agree(server_factory):
    """Same seed, two independent server processes' worth of state."""
    assert drive_http(server_factory) == drive_http(server_factory)


def test_report_counts_include_the_audit_trail():
    """Verified reports cover exactly the records the reference world
    holds — spot-check the equivalence isn't comparing empty reports."""
    service = ProvenanceService(make_config())
    try:
        service.record("t0", "insert", "doc", value=1)
        service.record("t0", "update", "doc", value=2)
        report = service.verify("t0", "doc")
        assert report["records_checked"] == 2
        again = service.verify("t0", "doc")
        assert again["records_checked"] == 2
    finally:
        service.close()
