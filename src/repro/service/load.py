"""Seeded concurrent load harness for the provenance service.

Simulates many *logical clients* — far more than OS threads — against a
running service: client ``c`` belongs to tenant ``c % tenants``, owns a
private object, and performs a small seeded workload (insert, updates,
periodic verify) through the HTTP API.  Clients are multiplexed over a
bounded thread pool, so "1000 concurrent clients" costs 1000 in-flight
workloads, not 1000 threads.

Because every client writes only its own object and chains are local per
object (§3.2), each client's verification outcome is deterministic no
matter how the scheduler interleaves tenants — which is what lets the
stress suite demand **zero** verification failures under full
concurrency, not just "mostly consistent".

The harness is used three ways: the concurrency stress tests (small
spec), ``benchmarks/bench_service.py`` (the acceptance-scale spec), and
the CI ``service`` job (which stores the report as an artifact).
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceHTTPError

__all__ = ["LoadSpec", "ClientOutcome", "LoadReport", "run_load", "percentile"]


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one load run (a pure function of these fields + seed)."""

    clients: int = 1000
    tenants: int = 8
    threads: int = 32
    #: Mutations per client before its final verify.
    ops_per_client: int = 3
    #: Every Nth client also verifies mid-workload (0 disables).
    verify_every: int = 5
    seed: int = 0

    def tenant_of(self, client: int) -> str:
        return f"t{client % self.tenants}"

    def object_of(self, client: int) -> str:
        return f"c{client}:doc"


@dataclass(frozen=True)
class ClientOutcome:
    """What one simulated client saw."""

    client: int
    tenant: str
    ops: int
    verified_ok: bool
    retries: int
    error: Optional[str] = None


@dataclass
class LoadReport:
    """Aggregate outcome of a load run (JSON-able for CI artifacts)."""

    spec: LoadSpec
    wall_seconds: float = 0.0
    requests: int = 0
    retries: int = 0
    errors: List[str] = field(default_factory=list)
    verify_failures: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    per_tenant_ops: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        lat = sorted(self.latencies)
        return {
            "clients": self.spec.clients,
            "tenants": self.spec.tenants,
            "threads": self.spec.threads,
            "ops_per_client": self.spec.ops_per_client,
            "seed": self.spec.seed,
            "wall_seconds": round(self.wall_seconds, 4),
            "requests": self.requests,
            "throughput_rps": round(self.throughput_rps, 2),
            "retries": self.retries,
            "errors": len(self.errors),
            "verify_failures": len(self.verify_failures),
            "latency_p50_ms": round(percentile(lat, 50) * 1000, 3),
            "latency_p95_ms": round(percentile(lat, 95) * 1000, 3),
            "latency_p99_ms": round(percentile(lat, 99) * 1000, 3),
            "per_tenant_ops": dict(sorted(self.per_tenant_ops.items())),
        }


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(len(sorted_values) * pct / 100)))
    return sorted_values[rank]


def run_load(
    base_url: str,
    tokens: Dict[str, str],
    spec: LoadSpec,
    timeout: float = 60.0,
) -> Tuple[LoadReport, List[ClientOutcome]]:
    """Drive ``spec.clients`` seeded workloads; returns (report, outcomes).

    Args:
        base_url: A running service.
        tokens: tenant id -> API key (must cover every ``spec.tenant_of``).
        spec: The workload shape.
        timeout: Per-request socket timeout for the clients.
    """
    report = LoadReport(spec=spec)
    lock = threading.Lock()

    def timed(client: ServiceClient, method: str, path: str, body=None):
        began = time.perf_counter()
        response = client.request(method, path, body)
        elapsed = time.perf_counter() - began
        with lock:
            report.requests += 1
            report.retries += response.retries
            report.latencies.append(elapsed)
        return response

    def one_client(index: int) -> ClientOutcome:
        tenant = spec.tenant_of(index)
        object_id = spec.object_of(index)
        rng = random.Random(f"{spec.seed}|client|{index}")
        client = ServiceClient(base_url, token=tokens[tenant], timeout=timeout)
        ops = retries = 0
        try:
            timed(client, "POST", "/v1/record", {
                "op": "insert", "object_id": object_id,
                "value": f"v0:{rng.randrange(1 << 30)}",
            })
            ops += 1
            for step in range(1, spec.ops_per_client):
                timed(client, "POST", "/v1/record", {
                    "op": "update", "object_id": object_id,
                    "value": f"v{step}:{rng.randrange(1 << 30)}",
                })
                ops += 1
                if spec.verify_every and index % spec.verify_every == 0:
                    mid = timed(client, "POST", "/v1/verify",
                                {"object_id": object_id}).json
                    if not mid["ok"]:
                        raise ServiceHTTPError(
                            200, {"error": "mid-workload verify failed"},
                            "POST", "/v1/verify",
                        )
            final = timed(client, "POST", "/v1/verify",
                          {"object_id": object_id}).json
            verified = bool(final["ok"])
            if not verified:
                with lock:
                    report.verify_failures.append(
                        f"client {index} ({tenant}/{object_id}): {final['failures']}"
                    )
            with lock:
                report.per_tenant_ops[tenant] = (
                    report.per_tenant_ops.get(tenant, 0) + ops
                )
            return ClientOutcome(index, tenant, ops, verified, retries)
        except Exception as exc:  # noqa: BLE001 - harness records, never raises
            with lock:
                report.errors.append(f"client {index} ({tenant}): {exc}")
            return ClientOutcome(index, tenant, ops, False, retries, error=str(exc))
        finally:
            client.close()

    began = time.perf_counter()
    with ThreadPoolExecutor(max_workers=spec.threads) as pool:
        outcomes = list(pool.map(one_client, range(spec.clients)))
    report.wall_seconds = time.perf_counter() - began
    return report, outcomes
