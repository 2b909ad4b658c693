"""Provenance-as-a-service: the multi-tenant network front end.

The paper's threat model (§2.2) assumes *many mutually-distrusting
participants* recording provenance into a shared notarized store; this
package is that deployment shape.  A long-running HTTP service wraps the
engine + collector behind per-tenant sharded stores:

- :mod:`repro.service.auth` — API keys as CA-signed bearer tokens
  (issue / validate / expire / revoke), rooted in the same
  :class:`~repro.crypto.pki.CertificateAuthority` machinery that
  certifies participant signing keys.
- :mod:`repro.service.core` — :class:`~repro.service.core.ProvenanceService`,
  the transport-independent core: one
  :class:`~repro.service.core.TenantWorld` (engine, collector, sharded
  provenance store, signing participant, monitor) per tenant, with
  deterministic per-tenant seeding so a same-seed in-process world is
  byte-identical to the served one.
- :mod:`repro.service.http` — the stdlib ``ThreadingHTTPServer`` front
  end: record / batch / verify / lineage endpoints, ``/healthz`` from
  the monitor's health snapshot, per-endpoint metrics and event-log
  correlation ids, and 503 + Retry-After on transient store trouble.
- :mod:`repro.service.client` — a stdlib HTTP client with bounded
  Retry-After-honouring retries.
- :mod:`repro.service.load` — the seeded concurrent load harness
  (thousands of simulated clients over a bounded thread pool) used by
  the stress tests, ``benchmarks/bench_service.py``, and CI.
- :mod:`repro.service.background` — the opt-in continuous monitor
  daemon (``ServiceConfig(monitor_interval=...)``): incremental
  per-tenant ticks, health-transition and alert publication to
  pluggable :class:`repro.obs.plane.AlertSink` targets, and the
  per-tenant gauges ``repro dash`` renders.
"""

from repro.service.auth import ApiKeyAuthority, ApiKeyClaims
from repro.service.background import BackgroundMonitor
from repro.service.client import ServiceClient, ServiceHTTPError, ServiceResponse
from repro.service.core import (
    ProvenanceService,
    ServiceConfig,
    TenantWorld,
    canonical_json,
)
from repro.service.http import ProvenanceHTTPServer
from repro.service.load import LoadReport, LoadSpec, run_load

__all__ = [
    "ApiKeyAuthority",
    "ApiKeyClaims",
    "BackgroundMonitor",
    "ProvenanceService",
    "ServiceConfig",
    "TenantWorld",
    "canonical_json",
    "ProvenanceHTTPServer",
    "ServiceClient",
    "ServiceHTTPError",
    "ServiceResponse",
    "LoadReport",
    "LoadSpec",
    "run_load",
]
