"""Continuous background monitoring for the provenance service.

:class:`BackgroundMonitor` is the opt-in daemon behind
``ServiceConfig(monitor_interval=...)`` / ``repro serve
--monitor-interval``: a single thread that sweeps every tenant world on
an interval, runs the tenant's incremental
:meth:`~repro.monitor.monitor.ProvenanceMonitor.tick` (witness tick
first, exactly like the ``/healthz`` pass, so the PR 4 watermark rules
hold — every healthy state the daemon ever observed is anchored before
the next sweep could be lied to), and publishes what an operator needs
pushed rather than polled:

- **health transitions** — one ``service.health`` event + sink payload
  when a tenant's health *changes* (ok→tampered fires once, not once per
  sweep);
- **alerts** — one ``service.alert`` event + sink payload per *newly
  firing* alert, deduplicated on ``(rule, fields)`` while the alert
  keeps firing (monitor ticks re-raise a standing tamper alert every
  tick; operators want the edge, the ``/v1/alerts`` stream keeps the
  full repetition for forensics);
- **gauges** — ``service.tenant.health{tenant=}`` (0 ok / 1 degraded /
  2 tampered) and ``service.tenant.lag{tenant=}`` (watermark lag in
  records), which is where ``repro dash`` reads fleet state from.

Soundness note: the sweep uses the same per-world lock as the request
path and ``/healthz``, so a background tick never races a flush, and its
watermarks are the same sticky watermarks the on-demand monitors use —
a regression observed by *any* of them stays latched (monitor state is
per-world, not per-caller).

Sink failures never propagate: a sweep survives a tenant whose store is
mid-fault and a webhook that is down; both are counted, not raised.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import OBS

__all__ = ["BackgroundMonitor", "HEALTH_RANK"]

#: Health states as gauge values (worst = highest).
HEALTH_RANK = {"ok": 0, "degraded": 1, "tampered": 2}


class BackgroundMonitor:
    """Periodic per-tenant monitor sweeps with alert publication.

    Args:
        service: The :class:`~repro.service.core.ProvenanceService` to
            watch (worlds are enumerated fresh each sweep, so tenants
            created after start are picked up automatically).
        interval: Seconds between sweeps when running threaded.
        sinks: :class:`repro.obs.plane.AlertSink` targets.

    ``run_once()`` is the whole sweep and needs no thread — tests and
    the CLI's one-shot paths call it directly.
    """

    def __init__(
        self,
        service,
        interval: float = 1.0,
        sinks: Sequence[object] = (),
    ):
        self.service = service
        self.interval = max(0.01, float(interval))
        self.sinks: List[object] = list(sinks)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Last observed health per tenant (transition edge detection).
        self._health: Dict[str, str] = {}
        #: Alert keys currently firing per tenant (publication dedupe).
        self._firing: Dict[str, Set[Tuple[str, str]]] = {}
        self.sweeps = 0
        self.published = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "BackgroundMonitor":
        if self._thread is not None:
            return self
        self._stop.clear()
        thread = threading.Thread(
            target=self._run, name="repro-bg-monitor", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 — the daemon must survive
                self.errors += 1

    # ------------------------------------------------------------------
    # one sweep
    # ------------------------------------------------------------------

    def run_once(self) -> Dict[str, object]:
        """Sweep every tenant once; returns a summary dict."""
        transitions = 0
        fresh_alerts = 0
        tenants = self.service.tenant_ids()
        for tenant_id in tenants:
            world = self.service._worlds.get(tenant_id)
            if world is None:  # racing a concurrent world build
                continue
            try:
                result = world.health_tick()
            except Exception:  # noqa: BLE001 — a faulted tenant is data,
                self.errors += 1  # not a reason to stop watching the rest
                continue
            t, a = self._publish(tenant_id, result)
            transitions += t
            fresh_alerts += a
        self.sweeps += 1
        if OBS.enabled:
            OBS.registry.counter("service.monitor.sweeps").inc()
        return {
            "tenants": len(tenants),
            "transitions": transitions,
            "alerts": fresh_alerts,
            "sweeps": self.sweeps,
        }

    def _publish(self, tenant_id: str, result) -> Tuple[int, int]:
        """Metrics, events, and sink payloads for one tenant tick."""
        if OBS.enabled:
            reg = OBS.registry
            reg.gauge("service.tenant.health", tenant=tenant_id).set(
                HEALTH_RANK.get(result.health, 2)
            )
            reg.gauge("service.tenant.lag", tenant=tenant_id).set(
                result.lag_records
            )
            reg.counter(
                "service.monitor.ticks", tenant=tenant_id, mode=result.mode
            ).inc()

        transitions = 0
        previous = self._health.get(tenant_id)
        if result.health != previous:
            self._health[tenant_id] = result.health
            # The very first observation of a healthy tenant is steady
            # state, not a transition worth waking an operator for.
            if previous is not None or result.health != "ok":
                transitions = 1
                self._emit_and_publish({
                    "type": "health",
                    "tenant": tenant_id,
                    "previous": previous,
                    "health": result.health,
                    "tick": result.tick,
                }, kind="service.health")

        firing = self._firing.setdefault(tenant_id, set())
        current: Set[Tuple[str, str]] = set()
        fresh = 0
        for alert in result.alerts:
            key = (
                alert.rule,
                json.dumps(alert.fields, sort_keys=True, default=str),
            )
            current.add(key)
            if key in firing:
                continue  # still firing since last sweep: edge already sent
            fresh += 1
            payload = {"type": "alert", "tenant": tenant_id, "tick": result.tick}
            payload.update(alert.to_dict())
            self._emit_and_publish(payload, kind="service.alert")
        self._firing[tenant_id] = current
        return transitions, fresh

    def _emit_and_publish(self, payload: Dict[str, object], kind: str) -> None:
        log = OBS.events
        if log is not None:
            log.emit(kind, **payload)
        if OBS.enabled:
            OBS.registry.counter(
                "service.monitor.published", kind=payload["type"]
            ).inc()
        for sink in self.sinks:
            try:
                sink.publish(payload)
            except Exception:  # noqa: BLE001 — sinks are best-effort
                self.errors += 1
        self.published += 1

    def __repr__(self) -> str:
        return (
            f"BackgroundMonitor(interval={self.interval}, "
            f"sweeps={self.sweeps}, published={self.published})"
        )
