"""BackgroundMonitor: edge-detected publication, dedupe, resilience."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro import obs
from repro.obs.plane import AlertSink
from repro.service import ProvenanceService, ServiceConfig
from repro.service.background import HEALTH_RANK, BackgroundMonitor

from tests.service.conftest import make_config


class RecordingSink(AlertSink):
    def __init__(self, fail: bool = False):
        self.payloads = []
        self.fail = fail
        self.closed = False

    def publish(self, payload):
        if self.fail:
            raise OSError("sink down")
        self.payloads.append(payload)

    def close(self):
        self.closed = True


@pytest.fixture
def service():
    svc = ProvenanceService(make_config())
    yield svc
    svc.close()


def _tamper_tail(service, tenant: str, object_id: str) -> None:
    world = service.world(tenant)
    with world.lock:
        record = world.store.records_for(object_id)[-1]
        forged = dataclasses.replace(record, checksum=b"\x00" * 16)
        shard = world.store._shard_for(object_id)
        shard._chains[object_id][-1] = forged


class TestSweep:
    def test_healthy_first_sweep_publishes_nothing(self, service):
        service.record("t1", "insert", "A", value=1)
        sink = RecordingSink()
        monitor = BackgroundMonitor(service, sinks=(sink,))
        summary = monitor.run_once()
        assert summary["tenants"] == 1
        assert summary["transitions"] == 0
        assert summary["alerts"] == 0
        # Steady-state "ok" is not an operator-worthy edge.
        assert sink.payloads == []

    def test_tamper_publishes_transition_and_alert_once(self, service):
        service.record("t1", "insert", "A", value=1)
        sink = RecordingSink()
        monitor = BackgroundMonitor(service, sinks=(sink,))
        monitor.run_once()  # baseline: healthy, watermarks set
        _tamper_tail(service, "t1", "A")
        summary = monitor.run_once()
        assert summary["transitions"] == 1
        assert summary["alerts"] >= 1
        types = [p["type"] for p in sink.payloads]
        assert "health" in types and "alert" in types
        health = next(p for p in sink.payloads if p["type"] == "health")
        assert health["tenant"] == "t1"
        assert health["previous"] == "ok"
        assert health["health"] == "tampered"
        alert = next(p for p in sink.payloads if p["type"] == "alert")
        assert alert["tenant"] == "t1"
        assert alert["tampering"] is True

        # The alert keeps firing every tick, but the published stream is
        # edge-triggered: further sweeps add nothing.
        before = len(sink.payloads)
        monitor.run_once()
        monitor.run_once()
        assert len(sink.payloads) == before

    def test_multiple_tenants_swept_independently(self, service):
        service.record("t1", "insert", "A", value=1)
        service.record("t2", "insert", "B", value=2)
        sink = RecordingSink()
        monitor = BackgroundMonitor(service, sinks=(sink,))
        monitor.run_once()
        _tamper_tail(service, "t2", "B")
        monitor.run_once()
        tenants = {p["tenant"] for p in sink.payloads}
        assert tenants == {"t2"}  # t1 stays quiet

    def test_tenants_created_after_start_are_picked_up(self, service):
        monitor = BackgroundMonitor(service)
        assert monitor.run_once()["tenants"] == 0
        service.record("late", "insert", "A", value=1)
        assert monitor.run_once()["tenants"] == 1

    def test_gauges_track_health_and_rank(self, service):
        obs.enable(reset=True)
        try:
            service.record("t1", "insert", "A", value=1)
            monitor = BackgroundMonitor(service)
            monitor.run_once()
            snapshot = obs.OBS.registry.snapshot()
            assert snapshot["gauges"]["service.tenant.health{tenant=t1}"] == (
                HEALTH_RANK["ok"]
            )
            _tamper_tail(service, "t1", "A")
            monitor.run_once()
            snapshot = obs.OBS.registry.snapshot()
            assert snapshot["gauges"]["service.tenant.health{tenant=t1}"] == (
                HEALTH_RANK["tampered"]
            )
            assert any(
                k.startswith("service.monitor.ticks{")
                for k in snapshot["counters"]
            )
        finally:
            obs.disable(reset=True)

    def test_alert_events_land_in_ring_for_v1_alerts(self, service):
        log = obs.enable_events()
        try:
            service.record("t1", "insert", "A", value=1)
            monitor = BackgroundMonitor(service)
            monitor.run_once()
            _tamper_tail(service, "t1", "A")
            monitor.run_once()
            kinds = [e.kind for e in log.ring.events()]
            assert "service.health" in kinds
            assert "service.alert" in kinds
            alert = log.ring.of_kind("service.alert")[-1]
            assert alert.fields["tenant"] == "t1"
            assert alert.fields["tampering"] is True
        finally:
            obs.disable_events()


class TestResilience:
    def test_failing_sink_counted_not_fatal(self, service):
        service.record("t1", "insert", "A", value=1)
        bad, good = RecordingSink(fail=True), RecordingSink()
        monitor = BackgroundMonitor(service, sinks=(bad, good))
        monitor.run_once()
        _tamper_tail(service, "t1", "A")
        monitor.run_once()
        assert monitor.errors >= 1
        assert good.payloads  # delivery to healthy sinks continued

    def test_broken_tenant_does_not_stop_the_sweep(self, service, monkeypatch):
        service.record("t1", "insert", "A", value=1)
        service.record("t2", "insert", "B", value=2)
        broken = service.world("t1")
        monkeypatch.setattr(
            broken, "health_tick",
            lambda: (_ for _ in ()).throw(RuntimeError("store on fire")),
        )
        monitor = BackgroundMonitor(service)
        summary = monitor.run_once()
        assert monitor.errors == 1
        assert summary["tenants"] == 2  # t2 was still swept

    def test_stop_closes_sinks(self, service):
        sink = RecordingSink()
        monitor = BackgroundMonitor(service, sinks=(sink,))
        monitor.start()
        monitor.stop()
        assert sink.closed is True
        assert monitor._thread is None


class TestServiceIntegration:
    def test_monitor_interval_config_starts_and_stops_daemon(self):
        sink = RecordingSink()
        service = ProvenanceService(
            make_config(monitor_interval=0.05, alert_sinks=(sink,))
        )
        try:
            assert service.background is not None
            service.record("t1", "insert", "A", value=1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if service.background.sweeps >= 2:
                    break
                time.sleep(0.02)
            assert service.background.sweeps >= 2
        finally:
            service.close()
        assert sink.closed is True

    def test_zero_interval_means_no_daemon(self, service):
        assert service.config.monitor_interval == 0.0
        assert service.background is None

    def test_daemon_detects_live_tamper(self):
        service = ProvenanceService(make_config(monitor_interval=0.05))
        sink = RecordingSink()
        service.background.sinks.append(sink)
        try:
            service.record("t1", "insert", "A", value=1)
            # Let a healthy baseline sweep land first.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and service.background.sweeps < 1:
                time.sleep(0.02)
            _tamper_tail(service, "t1", "A")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if any(p["type"] == "alert" for p in sink.payloads):
                    break
                time.sleep(0.02)
        finally:
            service.close()
        alerts = [p for p in sink.payloads if p["type"] == "alert"]
        assert alerts and alerts[0]["tenant"] == "t1"
        assert alerts[0]["tampering"] is True
