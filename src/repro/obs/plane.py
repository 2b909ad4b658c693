"""The cross-boundary observability plane: correlation ids + alert sinks.

Everything in :mod:`repro.obs` is in-process: metrics live in one
registry, spans on one tracer, events in one log.  This module is the
piece that lets those artifacts *cross the HTTP boundary* of the
provenance service (:mod:`repro.service`):

- **Correlation id hygiene.**  One id names a served request on both
  sides of the wire: the ``X-Correlation-Id`` reply header, the ``corr``
  of every event the request causes, and the exemplar of every histogram
  it feeds.  The server adopts a client-supplied id, but only after
  :func:`valid_correlation_id` — a hostile header must not be able to
  inject newlines or control bytes into the event stream (events are
  JSONL an operator greps).
- **Alert sinks.**  The background service monitor
  (:mod:`repro.service.background`) publishes health transitions and
  monitor alerts to pluggable :class:`AlertSink`\\ s: a stderr log line,
  an append-only JSONL file, or a webhook POST (stdlib ``urllib``, errors
  swallowed and counted — an unreachable webhook must never take down
  the monitor loop).
"""

from __future__ import annotations

import json
import re
import threading
from typing import Dict, Optional

__all__ = [
    "valid_correlation_id",
    "AlertSink",
    "LogAlertSink",
    "FileAlertSink",
    "WebhookAlertSink",
]

#: Correlation ids the server will adopt from a client header.  One
#: conservative token — anything else (spaces, quotes, control bytes,
#: overlong values) is ignored and the server mints its own id.
_CORRELATION_RE = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")


def valid_correlation_id(value: Optional[str]) -> bool:
    """Whether a client-supplied correlation id is safe to adopt."""
    return bool(value) and _CORRELATION_RE.match(value) is not None


# ---------------------------------------------------------------------------
# alert sinks
# ---------------------------------------------------------------------------


class AlertSink:
    """Where the background service monitor publishes alert payloads.

    Payloads are JSON-ready dicts (``{"type": "alert"|"health", "tenant":
    ..., ...}``).  ``publish`` must never raise into the monitor loop;
    implementations swallow their own delivery failures.
    """

    def publish(self, payload: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover — default no-op
        pass


class LogAlertSink(AlertSink):
    """One human-readable line per alert on a stream (default stderr)."""

    def __init__(self, stream=None):
        self.stream = stream
        self.published = 0

    def publish(self, payload: Dict[str, object]) -> None:
        import sys

        stream = self.stream if self.stream is not None else sys.stderr
        kind = payload.get("type", "alert")
        tenant = payload.get("tenant", "?")
        if kind == "health":
            line = (
                f"[repro-monitor] tenant {tenant}: health "
                f"{payload.get('previous')} -> {payload.get('health')}"
            )
        else:
            severity = payload.get("severity", "?")
            line = (
                f"[repro-monitor] tenant {tenant}: {severity} "
                f"{payload.get('rule')}: {payload.get('message')}"
            )
        try:
            print(line, file=stream, flush=True)
        except (ValueError, OSError):  # closed stream at shutdown
            return
        self.published += 1


class FileAlertSink(AlertSink):
    """Append-only JSONL of alert payloads, flushed per line."""

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self.published = 0

    def publish(self, payload: Dict[str, object]) -> None:
        line = json.dumps(payload, sort_keys=True, default=str)
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")
            self._file.flush()
            self.published += 1

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


class WebhookAlertSink(AlertSink):
    """POSTs each payload as JSON to a webhook URL (stdlib urllib).

    Delivery is best-effort: failures are counted on ``failed``, never
    raised — the monitor loop must survive an unreachable endpoint.  An
    ``opener`` callable can replace ``urllib.request.urlopen`` in tests.
    """

    def __init__(self, url: str, timeout: float = 2.0, opener=None):
        self.url = url
        self.timeout = timeout
        self._opener = opener
        self.delivered = 0
        self.failed = 0

    def publish(self, payload: Dict[str, object]) -> None:
        import urllib.request

        body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        request = urllib.request.Request(
            self.url,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        opener = self._opener if self._opener is not None else urllib.request.urlopen
        try:
            with opener(request, timeout=self.timeout):
                pass
        except Exception:  # noqa: BLE001 — best-effort delivery by contract
            self.failed += 1
            return
        self.delivered += 1
