"""The service observability plane, proven against a live server.

The server in these tests runs in-process (background threads), so it
shares the test's :data:`repro.obs.OBS` switchboard: the client's and
the server's events land in the *same* log, which is what lets the
end-to-end identity tests prove — not just eyeball — that both sides
share one correlation id.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.obs.events import read_events
from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.http import ALERT_KINDS

HOSTILE_TENANT = 'evil"quote\\back\nnewline'


@pytest.fixture
def obs_full():
    """Tracing + metrics + ring events on; everything off afterwards."""
    obs.enable(reset=True)
    log = obs.enable_events()
    yield log
    obs.disable_events()
    obs.disable(reset=True)


@pytest.fixture
def serve_obs(tmp_path):
    """What ``repro serve --events PATH`` observes: metrics, events into
    PATH and the alert ring, no spans.  Yields PATH; everything off
    afterwards."""
    from repro.cli.main import _observe_serving, build_parser

    path = tmp_path / "events.jsonl"
    _observe_serving(build_parser().parse_args(["serve", "--events", str(path)]))
    yield path
    obs.disable_events()
    obs.disable(reset=True)


def _forge_tail_checksum(server, tenant: str, object_id: str) -> None:
    """In-place checksum forgery on the tail record (the R1 recipe)."""
    import dataclasses

    world = server.service.world(tenant)
    with world.lock:
        record = world.store.records_for(object_id)[-1]
        forged = dataclasses.replace(record, checksum=b"\x00" * 16)
        shard = world.store._shard_for(object_id)
        shard._chains[object_id][-1] = forged


@pytest.fixture
def obs_metrics_only():
    obs.enable(reset=True)
    obs.OBS.tracing = False
    yield obs.OBS
    obs.disable(reset=True)


class TestEndToEndTrace:
    def test_one_correlation_id_spans_the_wire(self, obs_full, tenant_client):
        client = tenant_client("t1")
        with obs_full.correlation("op-corr-1"):
            client.insert("A", 1)
        ring = obs_full.ring.events()
        kinds = {"http.request", "collector.flush", "store.batch"}
        seen = {e.kind: e.corr for e in ring if e.kind in kinds}
        assert set(seen) == kinds
        # The server adopted the client's id for its whole request scope.
        assert set(seen.values()) == {"op-corr-1"}

    def test_server_echoes_adopted_correlation_id(self, obs_full, tenant_client):
        client = tenant_client("t1")
        with obs_full.correlation("op-echo"):
            response = client.request("POST", "/v1/record",
                                      {"op": "insert", "object_id": "A"})
        assert response.headers.get("X-Correlation-Id") == "op-echo"

    def test_hostile_correlation_id_replaced_not_adopted(
        self, obs_full, tenant_client
    ):
        client = tenant_client("t1")
        hostile = 'evil "corr'  # sendable over HTTP, but not adoptable
        with obs_full.correlation(hostile):
            response = client.request("POST", "/v1/record",
                                      {"op": "insert", "object_id": "A"})
        echoed = response.headers.get("X-Correlation-Id")
        # The server minted its own id instead of adopting the hostile
        # one, and no server-side event carries the hostile value.
        assert echoed != hostile
        assert all(
            e.corr != hostile
            for e in obs_full.ring.events()
            if e.kind in ("http.request", "collector.flush", "store.batch")
        )

    def test_correlation_grouping_matches_in_process_shape(
        self, obs_full, tenant_client
    ):
        # The correlation *structure* — which event kinds share one id —
        # must be identical whether the pipeline runs in-process or
        # behind HTTP: one id joining collector.flush and store.batch
        # per logical operation.
        from repro.core.system import TamperEvidentDatabase

        def grouping(events):
            by_corr = {}
            for e in events:
                if e.kind in ("collector.flush", "store.batch"):
                    by_corr.setdefault(e.corr, []).append(e.kind)
            return sorted(tuple(v) for v in by_corr.values())

        db = TamperEvidentDatabase(seed=11, key_bits=512)
        session = db.session(db.enroll("p"))
        session.insert("A", 1)
        in_process = grouping(obs_full.ring.events())
        obs_full.ring.clear()

        tenant_client("t1").insert("A", 1)
        over_http = grouping(obs_full.ring.events())
        assert in_process == over_http == [("collector.flush", "store.batch")]

    def test_error_response_carries_correlation_id(self, obs_full, tenant_client):
        client = tenant_client("t1")
        with pytest.raises(ServiceHTTPError) as exc_info:
            client.verify("no-such-object")
        err = exc_info.value
        assert err.status == 404
        assert err.correlation_id is not None
        assert err.correlation_id in str(err)
        # The id joins the failure to the server-side request event.
        matching = [
            e for e in obs_full.ring.events()
            if e.kind == "http.request" and e.corr == err.correlation_id
        ]
        assert len(matching) == 1
        assert matching[0].fields["status"] == 404


class TestMetricsEndpoint:
    def test_prometheus_content_type_and_shape(self, obs_metrics_only, admin):
        admin.issue_key("t-keep")  # at least one counted request
        response = admin.request("GET", "/v1/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        text = response.raw.decode("utf-8")
        assert "# TYPE repro_service_http_requests_total counter" in text
        assert 'repro_service_http_requests_total{' in text

    def test_json_format_returns_snapshot(self, obs_metrics_only, admin):
        payload = admin.metrics_json()
        assert payload["enabled"] is True
        assert set(payload["metrics"]) == {"counters", "gauges", "histograms"}

    def test_tenant_labels_present_per_tenant(
        self, obs_metrics_only, admin, tenant_client
    ):
        tenant_client("alpha").insert("A", 1)
        tenant_client("beta").insert("B", 2)
        text = admin.metrics_text()
        assert 'repro_service_tenant_requests_total{tenant="alpha"} 1' in text
        assert 'repro_service_tenant_requests_total{tenant="beta"} 1' in text

    def test_hostile_tenant_id_is_escaped_in_labels(
        self, obs_metrics_only, admin, tenant_client
    ):
        tenant_client(HOSTILE_TENANT).insert("A", 1)
        text = admin.metrics_text()
        lines = [
            l for l in text.splitlines()
            if l.startswith("repro_service_tenant_requests_total{")
        ]
        assert len(lines) == 1  # the raw newline did NOT split the line
        line = lines[0]
        assert '\\"' in line and "\\\\" in line and "\\n" in line
        # And the exposition as a whole stays line-structured: every
        # non-comment line is "name{labels} value".
        for sample in text.splitlines():
            if sample and not sample.startswith("#"):
                assert " " in sample

    def test_counters_are_monotonic_across_scrapes(
        self, obs_metrics_only, admin, tenant_client
    ):
        client = tenant_client("t1")
        client.insert("A", 1)

        def tenant_requests():
            counters = admin.metrics_json()["metrics"]["counters"]
            return counters['service.tenant.requests{tenant=t1}']

        first = tenant_requests()
        client.update("A", 2)
        client.update("A", 3)
        assert tenant_requests() == first + 2

    def test_disabled_obs_reports_disabled(self, admin):
        obs.disable(reset=True)
        payload = admin.metrics_json()
        assert payload["enabled"] is False
        assert payload["metrics"]["counters"] == {}

    def test_requires_admin(self, obs_metrics_only, server, admin, tenant_client):
        tenant = tenant_client("t1")
        with pytest.raises(ServiceHTTPError) as exc_info:
            tenant.metrics_text()
        assert exc_info.value.status == 403
        anonymous = ServiceClient(server.base_url)
        with pytest.raises(ServiceHTTPError) as exc_info:
            anonymous.metrics_text()
        assert exc_info.value.status == 401

    def test_post_not_routed(self, obs_metrics_only, admin):
        with pytest.raises(ServiceHTTPError) as exc_info:
            admin.request("POST", "/v1/metrics", {})
        assert exc_info.value.status == 400


class TestProfileEndpoint:
    def test_detached_by_default(self, obs_metrics_only, admin):
        assert admin.profile() == {"attached": False}

    def test_attached_profiler_reports_cost_model(
        self, obs_metrics_only, admin, tenant_client
    ):
        obs.enable_profile(reset=True)
        try:
            tenant_client("t1").insert("A", 1)
            payload = admin.profile()
        finally:
            obs.disable_profile()
        assert payload["attached"] is True
        cost = payload["cost"]
        assert cost["records"] >= 1
        assert "phases" in cost

    def test_requires_admin(self, obs_metrics_only, tenant_client):
        with pytest.raises(ServiceHTTPError) as exc_info:
            tenant_client("t1").profile()
        assert exc_info.value.status == 403


class TestAlertStream:
    def test_detached_without_ring(self, obs_metrics_only, admin):
        payload = admin.alerts()
        assert payload == {"events": [], "cursor": -1, "attached": False}

    def test_cursor_pages_only_alert_kinds(self, obs_full, admin):
        obs_full.emit("http.request", status=200)       # not an alert kind
        alert = obs_full.emit("alert", rule="tamper", tampering=True)
        obs_full.emit("service.health", tenant="t1", health="tampered")
        page = admin.alerts(since=-1)
        assert page["attached"] is True
        kinds = [e["kind"] for e in page["events"]]
        assert kinds == ["alert", "service.health"]
        assert page["events"][0]["seq"] == alert.seq
        # The cursor covers *everything* seen, matching or not …
        assert page["cursor"] >= alert.seq + 1
        # … so the next page is empty rather than rescanning.
        follow_up = admin.alerts(since=page["cursor"])
        assert follow_up["events"] == []

    def test_since_filters_already_seen(self, obs_full, admin):
        first = obs_full.emit("alert", rule="a")
        second = obs_full.emit("alert", rule="b")
        page = admin.alerts(since=first.seq)
        assert [e["seq"] for e in page["events"]] == [second.seq]

    def test_long_poll_returns_on_fresh_alert(self, obs_full, admin):
        def late_alert():
            time.sleep(0.2)
            obs_full.emit("alert", rule="late", tampering=True)

        thread = threading.Thread(target=late_alert)
        began = time.perf_counter()
        thread.start()
        try:
            page = admin.alerts(since=-1, wait=10.0)
        finally:
            thread.join()
        elapsed = time.perf_counter() - began
        assert [e["fields"]["rule"] for e in page["events"]] == ["late"]
        assert elapsed < 5.0  # woke on the event, not the deadline

    def test_long_poll_times_out_empty(self, obs_full, admin):
        page = admin.alerts(since=-1, wait=0.1)
        assert page["events"] == []

    def test_bad_query_values_are_400(self, obs_full, admin):
        for path in ("/v1/alerts?since=abc", "/v1/alerts?wait=xyz"):
            with pytest.raises(ServiceHTTPError) as exc_info:
                admin.request("GET", path)
            assert exc_info.value.status == 400

    def test_requires_admin(self, obs_full, tenant_client):
        with pytest.raises(ServiceHTTPError) as exc_info:
            tenant_client("t1").alerts()
        assert exc_info.value.status == 403


class TestTamperVisibility:
    """The acceptance path: a tampered tenant is visible at /v1/metrics
    and /v1/alerts of the live server."""

    def test_tampered_tenant_shows_r1_in_metrics_and_alert_stream(
        self, obs_full, admin, tenant_client, server
    ):
        client = tenant_client("t1")
        client.insert("A", 1)
        _forge_tail_checksum(server, "t1", "A")
        report = client.verify("A")
        assert report["ok"] is False
        assert report["failure_tally"].get("R1", 0) >= 1
        # 1. /v1/metrics names the violated requirement, per tenant.
        text = admin.metrics_text()
        assert (
            'repro_service_verify_failures_total{requirement="R1",tenant="t1"}'
            in text
        )
        # 2. /healthz flags the tenant; the monitor's alert event lands
        #    in the ring, which is what /v1/alerts streams.
        health = admin.healthz()
        assert health.status == 503
        page = admin.alerts(since=-1)
        tamper_alerts = [
            e for e in page["events"]
            if e["kind"] == "alert" and e["fields"].get("tampering")
        ]
        assert tamper_alerts
        assert tamper_alerts[-1]["fields"]["rule"] == "tamper"


class TestServedRequestId:
    """``repro serve`` names a request by one id and keeps its alerts."""

    def test_one_id_in_reply_event_and_exemplar(self, serve_obs, tenant_client):
        response = tenant_client("t1").request(
            "POST", "/v1/record", {"op": "insert", "object_id": "A", "value": 1}
        )
        corr = response.headers["X-Correlation-Id"]
        requests = [
            e for e in read_events(str(serve_obs))
            if e["kind"] == "http.request" and e["fields"]["path"] == "/v1/record"
        ]
        assert [(e["corr"], e["trace_id"]) for e in requests] == [(corr, None)]
        histogram = obs.snapshot()["histograms"][
            "service.http.seconds{endpoint=POST record}"
        ]
        assert histogram["exemplar"]["trace_id"] == corr
        assert obs.OBS.tracer.traces == []
        # The per-request events went to the file alone, not the ring.
        assert {e.kind for e in obs.OBS.events.ring.events()} <= ALERT_KINDS

    def test_alerts_survive_request_traffic(
        self, serve_obs, server, admin, tenant_client
    ):
        tenant_client("victim").insert("A", 1)
        _forge_tail_checksum(server, "victim", "A")
        assert admin.healthz().status == 503
        alerts = admin.alerts(since=-1)["events"]
        assert any(
            e["kind"] == "alert" and e["fields"].get("tampering") for e in alerts
        )
        # 1,500 updates emit 4,500 per-request events, more than the
        # 4,096 the ring holds.
        busy = tenant_client("busy")
        busy.insert("B", 0)
        for i in range(1500):
            busy.update("B", i)
        assert admin.alerts(since=-1)["events"] == alerts
        assert admin.healthz().status == 503
