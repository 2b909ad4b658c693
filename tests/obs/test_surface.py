"""Golden observability surface: what every timed site reports, pinned.

A seeded workload runs with metrics, tracing, the phase profiler and the
event ring all on, and its observable surface is compared with a JSON
fixture:

- span trees as nested ``[name, sorted attribute keys, children]``;
- counter values and histogram observation counts (timings aside);
- profiler call counts per phase;
- event kinds, in emission order.

The database workload (insert / update / complex operation / aggregate,
then a serial verify, a two-worker parallel verify under per-record RSA,
and two monitor ticks) runs under {rsa-per-record, merkle-batch} x
{memory, sqlite}; a fifth case drives a live in-process HTTP server,
which serves Merkle-batch, through the client, so the
``client.request`` -> ``http.request`` half of the surface is pinned
too.  Any change to how a site is
instrumented that renames a span, drops an attribute key, moves a
metric series or changes a call count fails here.

Regenerate the fixture (only when a surface change is intended) with::

    PYTHONPATH=src python tests/obs/test_surface.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro import obs

FIXTURE = Path(__file__).with_name("surface_fixture.json")

SCHEMES = ("rsa-pkcs1v15", "merkle-batch")
STORES = ("memory", "sqlite")
CASES = [f"{scheme}/{store}" for scheme in SCHEMES for store in STORES] + ["service"]


def _tree(span) -> List[object]:
    return [span.name, sorted(span.attrs), [_tree(child) for child in span.children]]


def _surface(log) -> Dict[str, object]:
    snap = obs.snapshot()
    return {
        "spans": [_tree(root) for root in obs.OBS.tracer.traces],
        "counters": snap["counters"],
        "histograms": {name: h["count"] for name, h in snap["histograms"].items()},
        "profile": {
            name: s["calls"] for name, s in obs.OBS.profiler.snapshot().items()
        },
        "events": [event.kind for event in log.ring.events()],
    }


def _observe_all():
    obs.enable(reset=True)
    obs.enable_profile(reset=True)
    return obs.enable_events(ring=8192)


def _stop_observing() -> None:
    obs.disable_events()
    obs.disable_profile()
    obs.disable(reset=True)


def _database_surface(scheme: str, store: str, workdir: Path) -> Dict[str, object]:
    from repro.core.system import TamperEvidentDatabase
    from repro.core.verifier import ParallelVerifier
    from repro.monitor import ProvenanceMonitor
    from repro.provenance.store import SQLiteProvenanceStore

    sqlite: Optional[SQLiteProvenanceStore] = None
    log = _observe_all()
    try:
        if store == "sqlite":
            sqlite = SQLiteProvenanceStore(str(workdir / f"{scheme}.db"))
        db = TamperEvidentDatabase(
            key_bits=512, seed=7, signature_scheme=scheme, provenance_store=sqlite,
        )
        session = db.session(db.enroll("w"))
        for i in range(3):
            session.insert(f"obj{i}", i)
            session.update(f"obj{i}", i + 10)
        with session.complex_operation():
            session.insert("c0", 0)
            session.insert("c1", 1)
        session.aggregate(["obj0", "obj1"], "agg")
        assert db.verify("agg").ok
        if scheme == "rsa-pkcs1v15":
            # Merkle-batch root checks are memoized per worker process,
            # so their count there depends on which worker ran which
            # chunk; per-record RSA counts are schedule-independent.
            records = list(db.provenance_store.all_records())
            verifier = ParallelVerifier(db.keystore(), workers=2)
            assert verifier.verify_records(records).ok
        monitor = ProvenanceMonitor(db.provenance_store, db.keystore())
        assert monitor.tick().mode == "cold"
        assert monitor.tick().mode == "idle"
        return _surface(log)
    finally:
        _stop_observing()
        if sqlite is not None:
            sqlite.close()


def _service_surface() -> Dict[str, object]:
    from repro.service import ProvenanceHTTPServer, ServiceClient, ServiceConfig

    log = _observe_all()
    server = ProvenanceHTTPServer(config=ServiceConfig(seed=11, key_bits=512))
    server.start_background()
    try:
        admin = ServiceClient(server.base_url, token=server.service.admin_token)
        client = ServiceClient(server.base_url, token=admin.issue_key("t1")["token"])
        client.insert("A", 1)
        client.update("A", 2)
        client.batch([
            {"op": "insert", "object_id": "B", "value": 3},
            {"op": "insert", "object_id": "C", "value": 4},
        ])
        assert client.verify("A")["ok"]
        client.provenance("A")
        client.objects()
        return _surface(log)
    finally:
        server.stop()
        _stop_observing()


def record_surface(case: str, workdir: Path) -> Dict[str, object]:
    if case == "service":
        return _service_surface()
    scheme, store = case.split("/")
    return _database_surface(scheme, store, workdir)


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_surface_matches_golden(case, golden, tmp_path):
    surface = record_surface(case, tmp_path)
    # Normalise through JSON so tuples and lists compare alike.
    assert json.loads(json.dumps(surface)) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case: record_surface(case, Path(tmp)) for case in CASES}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
