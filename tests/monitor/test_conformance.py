"""Monitor/verifier conformance: incremental == full, byte for byte.

The acceptance bar for watermark-based incremental verification is that
it is an *optimization*, not an approximation: across {memory, sqlite} x
{serial, parallel}, the failures a monitor accumulates over many
incremental ticks must be byte-identical to a one-shot full
``VerificationReport`` over the same records — including after a torn
batch is recovered and the recovery rewinds the watermark.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.attacks.tampering import forge_stored_checksum
from repro.core.system import TamperEvidentDatabase
from repro.core.verifier import ParallelVerifier, Verifier
from repro.exceptions import CrashError
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.recovery import RecoveryScanner
from repro.faults.store import FaultyStore
from repro.monitor import ProvenanceMonitor
from repro.provenance.store import InMemoryProvenanceStore, SQLiteProvenanceStore

from tests.conftest import TEST_KEY_BITS

#: append_many call index torn by the fault plan (see _build_history).
TORN_OP = 6

pytestmark = pytest.mark.parametrize(
    "store_kind,workers",
    [
        ("memory", 1),
        ("memory", 2),
        ("sqlite", 1),
        ("sqlite", 2),
    ],
    ids=("memory-serial", "memory-parallel", "sqlite-serial", "sqlite-parallel"),
)


def _full_report(inner, keystore, workers):
    verifier = (
        ParallelVerifier(keystore, workers=workers)
        if workers > 1
        else Verifier(keystore)
    )
    return verifier.verify_records(list(inner.all_records()))


def _make_db(ca, store_kind, tmp_path):
    inner = (
        SQLiteProvenanceStore(str(tmp_path / "prov.db"))
        if store_kind == "sqlite"
        else InMemoryProvenanceStore()
    )
    plan = FaultPlan(
        seed=1,
        rules=(
            FaultRule(
                "store.append_many",
                FaultKind.TORN,
                indices=frozenset({TORN_OP}),
                torn_keep=1,
            ),
        ),
    )
    store = FaultyStore(inner, plan)
    db = TamperEvidentDatabase(
        ca=ca, key_bits=TEST_KEY_BITS, provenance_store=store
    )
    db.collector.faults = plan
    db.collector.retry_backoff = 0.0
    return db, store, inner


def _build_history(session):
    """Ops 0-4: a small forest with nested objects (multi-record batches)."""
    session.insert("root", "r0")                  # op 0
    session.insert("child", "c0", parent="root")  # op 1
    session.update("root", "r1")                  # op 2
    session.insert("leaf", "l0")                  # op 3
    session.update("child", "c1")                 # op 4: [child, root] batch


class TestTornBatchConformance:
    def test_monitor_matches_full_verify_through_crash_and_tamper(
        self, ca, participants, store_kind, workers, tmp_path
    ):
        db, store, inner = _make_db(ca, store_kind, tmp_path)
        keystore = db.keystore()
        session = db.session(participants["p1"])
        monitor = ProvenanceMonitor(store, keystore, workers=workers)

        _build_history(session)
        cold = monitor.tick()
        assert cold.mode == "cold" and cold.health == "ok"

        session.update("leaf", "l1")              # op 5
        # Op 6 tears: the child record commits, the inherited root record
        # is lost, and the process "dies" mid-batch.
        with pytest.raises(CrashError):
            session.update("child", "c2")
        torn_len = len(inner.records_for("child"))

        # A tick before recovery runs is allowed to advance the watermark
        # over the torn record: it is a validly signed prefix, exactly
        # what a power cut leaves behind.
        pre = monitor.tick()
        assert pre.health == "ok"
        assert store.get_watermark("child").index == torn_len

        report = RecoveryScanner(store).recover()
        assert report.truncated
        # ...which is why recovery must rewind the watermark it covered.
        assert "child" in report.rewound_watermarks
        assert store.get_watermark("child") is None

        # Post-recovery tick: re-walks the rewound chain, no false alarm,
        # and the accumulated state matches a from-scratch full verify.
        clean = monitor.tick()
        assert clean.health == "ok"
        assert clean.alerts == ()
        full = _full_report(inner, keystore, workers)
        assert full.ok
        assert monitor.accumulated_failures() == tuple(full.failures)
        assert monitor.accumulated_tally() == full.failure_tally()

        # Now actual tampering: forge a tail checksum in the raw store.
        forge_stored_checksum(inner, inner.object_ids()[0])
        tampered = monitor.tick()
        assert tampered.health == "tampered"
        assert monitor.has_tamper_alerts

        full = _full_report(inner, keystore, workers)
        assert not full.ok
        assert monitor.accumulated_failures() == tuple(full.failures)
        assert monitor.accumulated_tally() == full.failure_tally()

        # Conformance is stable: further ticks re-confirm, never drift.
        monitor.tick()
        assert monitor.accumulated_failures() == tuple(full.failures)

        inner.close() if hasattr(inner, "close") else None

    def test_event_stream_deterministic_modulo_ts(
        self, ca, participants, store_kind, workers, tmp_path
    ):
        """Same seed, same ops, same faults => identical monitor events
        (sequence, kinds, correlation ids, fields) modulo timestamps."""

        def run(subdir):
            obs.enable(reset=True)
            obs.enable_events()
            try:
                db, store, inner = _make_db(
                    ca, store_kind, tmp_path / subdir
                )
                session = db.session(participants["p1"])
                monitor = ProvenanceMonitor(
                    store, db.keystore(), workers=workers
                )
                _build_history(session)
                monitor.tick()
                session.update("leaf", "l1")
                with pytest.raises(CrashError):
                    session.update("child", "c2")
                monitor.tick()
                RecoveryScanner(store).recover()
                monitor.tick()
                forge_stored_checksum(inner, inner.object_ids()[0])
                monitor.tick()
                events = [
                    {k: v for k, v in e.items() if k != "ts"}
                    for e in obs.OBS.events.ring.dicts()
                ]
                if hasattr(inner, "close"):
                    inner.close()
                return events
            finally:
                obs.disable_events()
                obs.disable()

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert run("a") == run("b")
