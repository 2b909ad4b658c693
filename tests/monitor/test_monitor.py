"""ProvenanceMonitor: watermarks, tick modes, alert rules, sticky regressions."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.exceptions import ProvenanceError
from repro.monitor import (
    Alert,
    DegradedChunksRule,
    ProvenanceMonitor,
    StoreLatencyRule,
    TamperRule,
    TickContext,
    WatermarkLagRule,
    WatermarkRegressionRule,
    default_rules,
)
from repro.core.system import TamperEvidentDatabase
from repro.core.verifier import Verifier
from repro.provenance.store import (
    Checkpoint,
    InMemoryProvenanceStore,
    SQLiteProvenanceStore,
)

from tests.conftest import TEST_KEY_BITS

STORE_KINDS = ("memory", "sqlite")
SCHEMES = ("rsa-pkcs1v15", "merkle-batch")


def _grow(tedb, participants, objects=3, updates=2):
    session = tedb.session(participants["p1"])
    for i in range(objects):
        session.insert(f"obj{i}", i)
        for u in range(updates):
            session.update(f"obj{i}", i * 100 + u)
    return session


def _forge_tail(store, object_id):
    """In-place tail checksum rewrite (attacker with raw store access)."""
    chain = store._chains[object_id]
    victim = chain[-1]
    chain[-1] = dataclasses.replace(
        victim, checksum=b"\x00" * max(1, len(victim.checksum))
    )


def _world(tmp_path, store_kind, scheme="rsa-pkcs1v15"):
    """A grown database on a memory or SQLite store, signed under ``scheme``."""
    store = (
        SQLiteProvenanceStore(str(tmp_path / "prov.db"))
        if store_kind == "sqlite" else InMemoryProvenanceStore()
    )
    db = TamperEvidentDatabase(
        key_bits=TEST_KEY_BITS, rng=random.Random(0x5EA), provenance_store=store,
        signature_scheme=scheme,
    )
    return db, _grow(db, {"p1": db.enroll("writer")})


def _overwrite(store, record):
    """Replace a stored record in place (attacker with raw store access)."""
    if isinstance(store, SQLiteProvenanceStore):
        with store._conn:
            store._conn.execute(
                "UPDATE provenance SET payload = ? WHERE object_id = ? AND seq_id = ?",
                (json.dumps(record.to_dict()), record.object_id, record.seq_id),
            )
        return
    chain = store._chains[record.object_id]
    chain[[r.seq_id for r in chain].index(record.seq_id)] = record


def _zero_output_digest(record):
    return dataclasses.replace(
        record,
        output=dataclasses.replace(
            record.output, digest=b"\x00" * len(record.output.digest)
        ),
    )


@pytest.fixture
def monitored(tedb, participants):
    session = _grow(tedb, participants)
    monitor = ProvenanceMonitor(tedb.provenance_store, tedb.keystore())
    return tedb, session, monitor


class TestTickModes:
    def test_cold_then_idle(self, monitored):
        tedb, _, monitor = monitored
        first = monitor.tick()
        assert first.mode == "cold"
        assert first.health == "ok"
        assert first.records_verified == len(tedb.provenance_store)
        assert first.lag_records == 0
        second = monitor.tick()
        assert second.mode == "idle"
        assert second.records_verified == 0
        assert second.records_skipped == len(tedb.provenance_store)

    def test_incremental_verifies_only_suffix(self, monitored):
        tedb, session, monitor = monitored
        monitor.tick()
        session.update("obj0", 999)
        session.insert("obj9", 9)
        result = monitor.tick()
        assert result.mode == "incremental"
        assert result.records_verified == 2  # one update + one new chain
        assert result.records_skipped == len(tedb.provenance_store) - 2
        assert result.lag_records == 0

    def test_full_flag_ignores_watermarks(self, monitored):
        tedb, _, monitor = monitored
        monitor.tick()
        result = monitor.tick(full=True)
        assert result.mode == "full"
        assert result.records_verified == len(tedb.provenance_store)

    def test_full_scan_every_forces_cadence(self, tedb, participants):
        _grow(tedb, participants, objects=1, updates=1)
        monitor = ProvenanceMonitor(
            tedb.provenance_store, tedb.keystore(), full_scan_every=2
        )
        assert monitor.tick().mode == "cold"
        assert monitor.tick().mode == "full"  # tick 2: cadence hit
        assert monitor.tick().mode == "idle"
        assert monitor.tick().mode == "full"

    def test_watermarks_persist_in_store(self, monitored):
        tedb, _, monitor = monitored
        result = monitor.tick()
        assert set(result.advanced) == {"obj0", "obj1", "obj2"}
        wm = tedb.provenance_store.get_watermark("obj0")
        chain = tedb.provenance_store.records_for("obj0")
        assert wm.index == len(chain)
        assert wm.seq_id == chain[-1].seq_id
        assert wm.checksum == chain[-1].checksum

    def test_fresh_monitor_resumes_from_persisted_watermarks(self, monitored):
        tedb, session, monitor = monitored
        monitor.tick()
        session.update("obj1", 7)
        resumed = ProvenanceMonitor(tedb.provenance_store, tedb.keystore())
        result = resumed.tick()
        assert result.mode == "incremental"
        assert result.records_verified == 1

    def test_requires_watermark_surface(self, keystore):
        class Bare:
            pass

        with pytest.raises(ProvenanceError, match="watermark"):
            ProvenanceMonitor(Bare(), keystore)


class TestTamperDetection:
    def test_forged_tail_fires_tamper_alert(self, monitored):
        tedb, _, monitor = monitored
        monitor.tick()
        _forge_tail(tedb.provenance_store, "obj1")
        result = monitor.tick()
        assert result.health == "tampered"
        assert monitor.has_tamper_alerts
        rules = {a.rule for a in result.alerts}
        assert "tamper" in rules
        assert monitor.accumulated_tally().get("R1", 0) >= 1

    def test_tamper_persists_across_ticks(self, monitored):
        tedb, _, monitor = monitored
        monitor.tick()
        _forge_tail(tedb.provenance_store, "obj1")
        monitor.tick()
        again = monitor.tick()
        assert again.health == "tampered"
        assert monitor.accumulated_tally().get("R1", 0) >= 1

    def test_clean_chain_clears_accumulated_failures(self, monitored):
        tedb, _, monitor = monitored
        monitor.tick()
        store = tedb.provenance_store
        original = store._chains["obj1"][-1]
        _forge_tail(store, "obj1")
        assert monitor.tick().health == "tampered"
        store._chains["obj1"][-1] = original  # tamper undone
        monitor.acknowledge_regression("obj1")
        result = monitor.tick()
        assert result.health == "ok"
        assert monitor.accumulated_failures() == ()

    def test_tail_removal_is_sticky_regression(self, monitored):
        tedb, _, monitor = monitored
        monitor.tick()
        store = tedb.provenance_store
        chain = store.records_for("obj2")
        store.discard("obj2", chain[-1].seq_id)
        result = monitor.tick()
        assert result.health == "tampered"
        assert any(a.rule == "watermark-regression" for a in result.alerts)
        # The truncated-but-valid chain must NOT be silently re-watermarked:
        # the stale watermark is the evidence.
        assert store.get_watermark("obj2").index == len(chain)
        later = monitor.tick()
        assert later.health == "tampered"
        assert monitor.acknowledge_regression("obj2") is True
        assert monitor.tick().health == "ok"

    def test_watermark_never_masks_removal(self, monitored):
        # The anchor is positional: removing a *middle* record shifts the
        # anchor position, so the skip is never trusted.
        tedb, _, monitor = monitored
        monitor.tick()
        store = tedb.provenance_store
        del store._chains["obj0"][1]
        store._count -= 1
        result = monitor.tick()
        assert result.health == "tampered"

    def test_full_tick_still_detects_removal(self, monitored):
        # A full scan verifies content but cannot see removal (a
        # truncated chain is shorter yet internally valid) — anchor
        # validation must run even when watermark skips are ignored.
        tedb, _, monitor = monitored
        monitor.tick()
        store = tedb.provenance_store
        chain = store.records_for("obj2")
        store.discard("obj2", chain[-1].seq_id)
        result = monitor.tick(full=True)
        assert result.mode == "full"
        assert result.health == "tampered"
        assert any(a.rule == "watermark-regression" for a in result.alerts)
        # The stale watermark survives as evidence, even on a full pass.
        assert store.get_watermark("obj2").index == len(chain)

    def test_behind_anchor_tamper_does_not_self_heal(self, monitored):
        # Regression: once a full scan finds a tamper *behind* the anchor
        # (watermark already at the chain tail), the next incremental
        # tick used to trust the still-valid anchor, skip the whole
        # chain, find no failures for it, and pop the accumulated
        # evidence — health flapped tampered -> ok one tick after
        # detection.  A chain with accumulated failures must never be
        # skipped.
        from repro.core.verifier import Verifier

        tedb, _, monitor = monitored
        monitor.tick()
        store = tedb.provenance_store
        chain = store._chains["obj1"]
        victim = chain[-1]
        chain[-1] = dataclasses.replace(
            victim,
            output=dataclasses.replace(
                victim.output, digest=b"\x00" * len(victim.output.digest)
            ),
        )
        assert monitor.tick(full=True).health == "tampered"
        full = Verifier(tedb.keystore()).verify_records(list(store.all_records()))
        assert not full.ok
        after = monitor.tick()  # incremental: evidence must survive
        assert after.health == "tampered"
        assert monitor.accumulated_failures() == tuple(full.failures)
        assert monitor.tick().health == "tampered"

    def test_zero_index_watermark_is_regression(self, monitored):
        # A hand-edited watermark with index 0 used to anchor-validate
        # against chain[-1] (Python's negative indexing) and pass
        # silently; it must be flagged as malformed instead.
        tedb, _, monitor = monitored
        store = tedb.provenance_store
        tail = store.records_for("obj0")[-1]
        store.set_watermark(Checkpoint(
            "obj0", 0, tail.seq_id, tail.checksum, tail.output.digest,
            tail.participant_id,
        ))
        result = monitor.tick()
        assert result.health == "tampered"
        assert any(
            "malformed watermark" in reason for _, reason in result.regressions
        )

    @pytest.mark.parametrize(
        "store_kind,scheme",
        [(kind, scheme) for kind in STORE_KINDS for scheme in SCHEMES],
    )
    def test_covered_payload_forgery_needs_full_scan(
        self, tmp_path, store_kind, scheme
    ):
        # The documented watermark blind spot (DESIGN.md §9): a "balanced"
        # behind-anchor edit — an interior record rewritten in place, so
        # every chain tail and the record count are intact — is invisible
        # to the idle fast path, and exactly what tick(full=True) exists
        # to catch.  ROADMAP item 4 is to close the idle half.
        db, _ = _world(tmp_path, store_kind, scheme)
        store = db.provenance_store
        monitor = ProvenanceMonitor(store, db.keystore())
        monitor.tick()
        _overwrite(store, _zero_output_digest(store.records_for("obj1")[1]))
        idle = monitor.tick()
        assert idle.mode == "idle" and idle.health == "ok"
        full = monitor.tick(full=True)
        assert full.health == "tampered"
        assert monitor.accumulated_tally()

    @pytest.mark.parametrize("store_kind", STORE_KINDS)
    def test_anchor_record_edit_is_caught_at_the_seam(self, tmp_path, store_kind):
        # The suffix walk resumes from the stored checkpoint, so an edit
        # of the former tail's output digest that keeps its checksum must
        # not be trusted: the tick stays incremental, flags tampering, and
        # accumulates exactly what a one-shot full verify reports.
        db, session = _world(tmp_path, store_kind)
        store = db.provenance_store
        monitor = ProvenanceMonitor(store, db.keystore())
        assert monitor.tick().mode == "cold"
        former_tail = store.records_for("obj0")[-1]
        session.update("obj0", 999)
        _overwrite(store, _zero_output_digest(former_tail))
        result = monitor.tick()
        assert result.mode == "incremental"
        assert result.health == "tampered"
        full = Verifier(db.keystore()).verify_records(list(store.all_records()))
        assert not full.ok
        assert monitor.accumulated_failures() == full.failures


class TestObservation:
    def test_suspect_rewalk_is_one_logical_pass(self, monitored):
        # The authoritative re-walk of a failing suffix is the diagnosis
        # half of the same verification pass: it must not emit a second
        # verify.report event or double-count the verify.* counters.
        from repro import obs

        tedb, session, monitor = monitored
        monitor.tick()
        session.update("obj0", 999)
        _forge_tail(tedb.provenance_store, "obj0")
        obs.enable(reset=True)
        log = obs.enable_events()
        try:
            result = monitor.tick()
            assert result.health == "tampered"
            runs = obs.OBS.registry.find_counter("verify.runs")
            assert runs is not None and runs.value == 1
            reports = [
                e for e in log.ring.dicts() if e["kind"] == "verify.report"
            ]
            assert len(reports) == 1
        finally:
            obs.disable_events()
            obs.disable(reset=True)


class TestAlertRules:
    def _ctx(self, **overrides):
        base = dict(
            tick=1, tally={}, regressions=(), lag_records=0,
            degraded_chunks=0, store_p99=None,
        )
        base.update(overrides)
        return TickContext(**base)

    def test_tamper_rule_one_alert_per_requirement(self):
        alerts = TamperRule().evaluate(self._ctx(tally={"R1": 2, "R3": 1}))
        assert [a.fields["requirement"] for a in alerts] == ["R1", "R3"]
        assert all(a.tampering and a.severity == "critical" for a in alerts)

    def test_regression_rule(self):
        alerts = WatermarkRegressionRule().evaluate(
            self._ctx(regressions=(("objX", "anchor changed"),))
        )
        assert len(alerts) == 1
        assert alerts[0].tampering
        assert alerts[0].fields["object_id"] == "objX"

    def test_lag_rule_thresholded(self):
        rule = WatermarkLagRule(threshold=10)
        assert rule.evaluate(self._ctx(lag_records=10)) == []
        fired = rule.evaluate(self._ctx(lag_records=11))
        assert fired and not fired[0].tampering

    def test_latency_rule(self):
        rule = StoreLatencyRule(threshold_seconds=0.1)
        assert rule.evaluate(self._ctx(store_p99=None)) == []
        assert rule.evaluate(self._ctx(store_p99=0.05)) == []
        assert rule.evaluate(self._ctx(store_p99=0.5))

    def test_degraded_chunks_rule(self):
        rule = DegradedChunksRule()
        assert rule.evaluate(self._ctx(degraded_chunks=0)) == []
        assert rule.evaluate(self._ctx(degraded_chunks=2))

    def test_default_rules_cover_all_conditions(self):
        names = {r.name for r in default_rules()}
        assert names == {
            "tamper", "watermark-regression", "witness-mismatch",
            "watermark-lag", "store-latency", "degraded-chunks",
            "phase-latency-slo",
        }

    def test_phase_latency_slo_rule(self):
        from repro.monitor import PhaseLatencySLORule

        rule = PhaseLatencySLORule({"rsa.sign": 0.01})
        # Inert without observations, below the SLO, or without SLOs.
        assert rule.evaluate(self._ctx()) == []
        assert rule.evaluate(
            self._ctx(phase_latencies={"rsa.sign": 0.005})
        ) == []
        assert PhaseLatencySLORule().evaluate(
            self._ctx(phase_latencies={"rsa.sign": 99.0})
        ) == []
        fired = rule.evaluate(self._ctx(phase_latencies={"rsa.sign": 0.02}))
        assert len(fired) == 1
        assert not fired[0].tampering
        assert fired[0].severity == "warning"
        assert fired[0].fields == {
            "phase": "rsa.sign", "mean_s": 0.02, "slo_s": 0.01,
        }

    def test_phase_slo_alert_fires_from_profiled_tick(
        self, tedb, participants
    ):
        from repro import obs

        _grow(tedb, participants, objects=2, updates=1)
        obs.enable_profile(reset=True)
        try:
            monitor = ProvenanceMonitor(
                tedb.provenance_store, tedb.keystore(),
                phase_slos={"verify.chain": 0.0},  # impossible SLO
            )
            result = monitor.tick()
            slo_alerts = [
                a for a in result.alerts if a.rule == "phase-latency-slo"
            ]
            assert len(slo_alerts) == 1
            assert slo_alerts[0].fields["phase"] == "verify.chain"
            assert result.health == "degraded"
        finally:
            obs.disable_profile()

    def test_phase_slo_inert_without_profiler(self, tedb, participants):
        _grow(tedb, participants, objects=2, updates=1)
        monitor = ProvenanceMonitor(
            tedb.provenance_store, tedb.keystore(),
            phase_slos={"verify.chain": 0.0},
        )
        assert monitor.tick().health == "ok"

    def test_alert_to_dict_roundtrip(self):
        alert = Alert(rule="tamper", severity="critical", message="m",
                      tampering=True, fields={"requirement": "R1"})
        data = alert.to_dict()
        assert data["tampering"] is True
        assert data["fields"] == {"requirement": "R1"}

    def test_lag_alert_degrades_health(self, tedb, participants):
        session = _grow(tedb, participants, objects=2, updates=2)
        monitor = ProvenanceMonitor(
            tedb.provenance_store, tedb.keystore(),
            rules=(WatermarkLagRule(threshold=0),),
        )
        # With only a lag rule and a threshold of 0, a tick that leaves
        # nothing uncovered stays ok...
        assert monitor.tick().health == "ok"
        # ...but appending a record that fails verification pins the
        # watermark behind the tail, so lag accrues and health degrades —
        # without tampering=True (that is the tamper rule's job,
        # deliberately excluded here).
        session.update("obj0", 999)
        _forge_tail(tedb.provenance_store, "obj0")
        result = monitor.tick()
        assert result.health == "degraded"
        assert result.lag_records == 1
        assert not monitor.has_tamper_alerts


class TestSnapshot:
    def test_snapshot_shape(self, monitored):
        tedb, _, monitor = monitored
        monitor.tick()
        snap = monitor.snapshot()
        assert snap["health"] == "ok"
        assert snap["tick"] == 1
        assert snap["records"] == len(tedb.provenance_store)
        assert len(snap["watermarks"]) == 3
        assert snap["failure_tally"] == {}
        assert snap["alerts"] == []

    def test_snapshot_is_json_able(self, monitored):
        import json

        tedb, _, monitor = monitored
        monitor.tick()
        _forge_tail(tedb.provenance_store, "obj0")
        monitor.tick()
        json.dumps(monitor.snapshot())  # must not raise

    def test_snapshot_has_no_phase_costs_without_profiler(self, monitored):
        _, _, monitor = monitored
        monitor.tick()
        assert "phase_costs" not in monitor.snapshot()

    def test_snapshot_phase_costs_with_profiler(self, monitored):
        import json

        from repro import obs

        tedb, _, monitor = monitored
        obs.enable_profile(reset=True)
        try:
            monitor.tick()
            snap = monitor.snapshot()
            costs = snap["phase_costs"]
            assert costs["records"] == len(tedb.provenance_store)
            assert "verify.chain" in costs["phases"]
            assert costs["per_record_s"]["verify.chain"] > 0
            json.dumps(snap)  # still JSON-able with the costs attached
        finally:
            obs.disable_profile()


class TestEmptyStore:
    def test_empty_store_ticks_clean(self, keystore):
        monitor = ProvenanceMonitor(InMemoryProvenanceStore(), keystore)
        result = monitor.tick()
        assert result.health == "ok"
        assert result.records_total == 0

    def test_stale_watermark_without_chain_is_regression(self, keystore):
        store = InMemoryProvenanceStore()
        store.set_watermark(Checkpoint("ghost", 3, 2, b"\x01", b"\x02", "p1"))
        monitor = ProvenanceMonitor(store, keystore)
        result = monitor.tick()
        assert result.health == "tampered"
        assert any(a.rule == "watermark-regression" for a in result.alerts)
