"""Cross-boundary plane: correlation-id hygiene, alert sinks."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.plane import (
    FileAlertSink,
    LogAlertSink,
    WebhookAlertSink,
    valid_correlation_id,
)


class TestCorrelationValidation:
    @pytest.mark.parametrize("value", ["c0", "req-1", "a.b:c_d", "X" * 64])
    def test_accepts_conservative_tokens(self, value):
        assert valid_correlation_id(value)

    @pytest.mark.parametrize("value", [
        None, "", "has space", 'quo"te', "new\nline", "tab\there", "X" * 65,
    ])
    def test_rejects_hostile_values(self, value):
        assert not valid_correlation_id(value)


class TestLogAlertSink:
    def test_renders_alert_and_health_lines(self):
        stream = io.StringIO()
        sink = LogAlertSink(stream=stream)
        sink.publish({
            "type": "alert", "tenant": "t1", "severity": "critical",
            "rule": "tamper", "message": "R1 failed",
        })
        sink.publish({
            "type": "health", "tenant": "t1",
            "previous": "ok", "health": "tampered",
        })
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[repro-monitor] tenant t1: critical tamper: R1 failed"
        assert lines[1] == "[repro-monitor] tenant t1: health ok -> tampered"
        assert sink.published == 2

    def test_closed_stream_swallowed(self):
        stream = io.StringIO()
        stream.close()
        sink = LogAlertSink(stream=stream)
        sink.publish({"type": "alert", "tenant": "t"})  # must not raise
        assert sink.published == 0


class TestFileAlertSink:
    def test_appends_jsonl(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = FileAlertSink(str(path))
        sink.publish({"type": "alert", "tenant": "a", "rule": "tamper"})
        sink.publish({"type": "health", "tenant": "a", "health": "ok"})
        sink.close()
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["type"] for r in rows] == ["alert", "health"]
        assert sink.published == 2

    def test_publish_after_close_is_dropped(self, tmp_path):
        sink = FileAlertSink(str(tmp_path / "a.jsonl"))
        sink.close()
        sink.publish({"type": "alert"})  # must not raise
        assert sink.published == 0


class TestWebhookAlertSink:
    def test_posts_json_payload(self):
        seen = []

        class _Response:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def opener(request, timeout):
            seen.append((request, timeout))
            return _Response()

        sink = WebhookAlertSink("http://hook.example/alerts", opener=opener)
        sink.publish({"type": "alert", "tenant": "a"})
        assert sink.delivered == 1 and sink.failed == 0
        request, timeout = seen[0]
        assert request.get_method() == "POST"
        assert json.loads(request.data.decode("utf-8"))["tenant"] == "a"
        assert timeout == sink.timeout

    def test_delivery_failure_counted_not_raised(self):
        def opener(request, timeout):
            raise OSError("connection refused")

        sink = WebhookAlertSink("http://down.example", opener=opener)
        sink.publish({"type": "alert"})  # must not raise
        assert sink.failed == 1 and sink.delivered == 0
