"""Run ``repro serve`` with outside-in per-layer spans.

Usage (``run.py --trace 1`` does this)::

    python benchmarks/e2e/traced_serve.py --spans OUT.json \\
        [--must-fire LAYER,LAYER...] -- serve --port 0 --seed 7 ...

Before calling ``repro.cli.main.main(["serve", ...])`` the launcher wraps
the public functions listed by :func:`targets` at class level.  Each wrapper
pushes a span on a thread-local stack and records ``(id, name, start,
end, parent, request, count)`` when it returns, where ``request`` is the
id of the enclosing ``BaseHTTPRequestHandler.handle_one_request`` span.
Every ``TenantWorld.lock`` is replaced by a proxy that times the wait to
acquire it (a child span, so it is not counted as its caller's own
time) and the time it is held.  Spans stay in memory and are written to
``--spans`` when SIGINT stops the server.

The launcher fails loudly instead of reporting "0 ms": it exits 2 before
serving if a listed function no longer exists, and 3 after serving if a
``--must-fire`` layer recorded no call.

The program under test is not modified; all spans come from this file.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from statistics import fmean
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span names are layer names; ``layer/detail`` keeps a detail the
#: reduction needs (which service operation a core span was).
HTTP = "service.http"
LOCK_WAIT = "service.core.lock_wait"
LOCK_HOLD = "service.core.lock_hold"
DISPATCH = "service.http.dispatch"
SCAN = "provenance.store.scan"
AUDIT_OPS = ("service.core/verify", "service.core/lineage")

#: Per-layer time metrics: metric name -> layer whose own time it is.
SELF_TIME_METRICS = {
    "service.http.self_ms": HTTP,
    "service.auth.validate_ms": "service.auth",
    "service.core.self_ms": "service.core",
    "service.core.lock_wait_ms": LOCK_WAIT,
    "backend.engine.ms": "backend.engine",
    "core.merkle.hash_ms": "core.merkle",
    "crypto.sign_ms": "crypto.sign",
    "crypto.seal_ms": "crypto.seal",
    "core.collector.self_ms": "core.collector",
    "provenance.store.append_ms": "provenance.store.append",
    "provenance.store.read_ms": "provenance.store.read",
    "provenance.dag.build_ms": "provenance.dag",
    "core.shipment.build_ms": "core.shipment",
    "core.verifier.verify_ms": "core.verifier",
    "query.lineage.summary_ms": "query.lineage",
}


class Recorder:
    """Thread-local span stacks feeding two append-only lists."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, request id, count)
        self.spans: List[tuple] = []
        #: (name, start, end, request id, count): measurements that
        #: overlap other spans (lock hold, record scans, dispatch wait)
        #: and so are never subtracted from a parent's own time.
        self.marks: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> None:
        stack = self._stack()
        sid = next(self._ids)
        parent, request = (stack[-1][0], stack[-1][2]) if stack else (None, sid)
        stack.append((sid, parent, request, perf_counter()))

    def close(self, name: str, count: Optional[int] = None) -> None:
        sid, parent, request, start = self._stack().pop()
        self.spans.append((sid, name, start, perf_counter(), parent, request, count))

    def request(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1][2] if stack else None

    def mark(self, name: str, start: float, end: float,
             request: Optional[int] = None, count: Optional[int] = None) -> None:
        self.marks.append((name, start, end, request, count))


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def traced(func: Callable, name: str, rec: Recorder,
           count: Optional[Callable] = None) -> Callable:
    """``func`` inside a span; ``count(result, args)`` sets its count."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        rec.open()
        done = False
        result = None
        try:
            result = func(*args, **kwargs)
            done = True
            return result
        finally:
            rec.close(name, count(result, args) if count is not None and done else None)

    return wrapper


class TimedLock:
    """A ``TenantWorld.lock`` proxy timing acquire waits and hold times."""

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec
        self._local = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._rec.open()
        try:
            got = self._inner.acquire(blocking, timeout)
        finally:
            self._rec.close(LOCK_WAIT)
        if got:
            depth = getattr(self._local, "depth", 0)
            if depth == 0:
                self._local.since = perf_counter()
            self._local.depth = depth + 1
        return got

    def release(self) -> None:
        self._local.depth -= 1
        if self._local.depth == 0:
            self._rec.mark(LOCK_HOLD, self._local.since, perf_counter(),
                           request=self._rec.request())
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def _lock_proxy(init: Callable, rec: Recorder) -> Callable:
    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.lock = TimedLock(self.lock, rec)

    return __init__


def _scan_counter(all_records: Callable, rec: Recorder) -> Callable:
    # Records are yielded lazily into the consumer (the DAG build), so
    # the scan is a count, not a span of its own.
    @functools.wraps(all_records)
    def wrapper(self):
        request = rec.request()
        start = perf_counter()
        n = 0
        try:
            for record in all_records(self):
                n += 1
                yield record
        finally:
            rec.mark(SCAN, start, perf_counter(), request=request, count=n)

    return wrapper


def _dispatch_timers(rec: Recorder) -> Tuple[Callable, Callable]:
    """Time ``ThreadingMixIn.process_request`` -> ``process_request_thread``."""
    queued: Dict[int, float] = {}

    def enqueue(process_request):
        @functools.wraps(process_request)
        def wrapper(self, request, client_address):
            queued[id(request)] = perf_counter()
            return process_request(self, request, client_address)

        return wrapper

    def start(process_request_thread):
        @functools.wraps(process_request_thread)
        def wrapper(self, request, client_address):
            since = queued.pop(id(request), None)
            if since is not None:
                rec.mark(DISPATCH, since, perf_counter(), count=1)
            return process_request_thread(self, request, client_address)

        return wrapper

    return enqueue, start


def targets(rec: Recorder) -> List[Tuple[str, Optional[str], str, Callable]]:
    """``(module, class or None, attribute, make_replacement)`` to install."""

    def span(name, count=None):
        return lambda raw: traced(raw, name, rec, count)

    enqueue, start = _dispatch_timers(rec)
    table = [
        ("http.server", "BaseHTTPRequestHandler", "handle_one_request",
         span(HTTP, lambda _, a: 1 if getattr(a[0], "raw_requestline", b"") else 0)),
        ("socketserver", "ThreadingMixIn", "process_request", enqueue),
        ("socketserver", "ThreadingMixIn", "process_request_thread", start),
        ("repro.service.auth", "ApiKeyAuthority", "validate", span("service.auth")),
        ("repro.service.core", "TenantWorld", "__init__", lambda raw: _lock_proxy(raw, rec)),
        ("repro.crypto.pki", "Participant", "sign", span("crypto.sign")),
        ("repro.crypto.signatures", "MerkleBatchSignatureScheme", "seal_batch",
         span("crypto.seal", lambda proofs, _: len(proofs))),
        ("repro.provenance.registry", "ShardedProvenanceStore", "append_many",
         # The collector hands over a tuple; a generator here would fail
         # loudly rather than be counted as zero records.
         span("provenance.store.append", lambda _, a: len(a[1]))),
        ("repro.provenance.registry", "ShardedProvenanceStore", "all_records",
         lambda raw: _scan_counter(raw, rec)),
        ("repro.core.shipment", "Shipment", "build",
         span("core.shipment", lambda shipment, _: len(shipment.records))),
        ("repro.core.verifier", "Verifier", "verify",
         span("core.verifier", lambda report, _: report.records_checked)),
        ("repro.service.core", None, "lineage_summary", span("query.lineage")),
        ("repro.core.collector", "ChecksumCollector", "collect_mutations",
         span("core.collector", lambda records, _: len(records))),
        ("repro.core.collector", "ChecksumCollector", "collect_aggregate",
         span("core.collector", lambda _, __: 1)),
    ]
    for op in ("record", "batch", "verify", "provenance", "objects", "lineage"):
        table.append(("repro.service.core", "ProvenanceService", op, span(f"service.core/{op}")))
    for op in ("insert", "update", "delete"):
        table.append(("repro.backend.engine", "DatabaseEngine", op, span("backend.engine")))
    for op in ("prime", "recompute", "current_digest"):
        table.append(("repro.core.merkle", "EconomicalHashing", op, span("core.merkle")))
    for op in ("records_for", "latest", "get", "object_ids"):
        table.append(("repro.provenance.registry", "ShardedProvenanceStore", op,
                      span("provenance.store.read")))
    for op in ("provenance_object", "dag"):
        table.append(("repro.core.system", "TamperEvidentDatabase", op, span("provenance.dag")))
    return table


def install(rec: Recorder, table) -> List[str]:
    """Install every wrapper; returns the targets that no longer exist.

    Nothing is installed unless every target resolves.
    """
    resolved, missing = [], []
    for module, owner, attr, make in table:
        where = f"{module}.{owner + '.' if owner else ''}{attr}"
        try:
            obj = importlib.import_module(module)
            if owner is not None:
                obj = getattr(obj, owner)
            raw = inspect.getattr_static(obj, attr)
        except (ImportError, AttributeError):
            missing.append(where)
            continue
        resolved.append((obj, attr, raw, make))
    if missing:
        return missing
    for obj, attr, raw, make in resolved:
        if isinstance(raw, classmethod):
            setattr(obj, attr, classmethod(make(raw.__func__)))
        else:
            setattr(obj, attr, make(raw))
    return []


# ----------------------------------------------------------------------
# reduction: spans -> per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(dump: Dict[str, list], start: float, end: float,
                  client_ms: Sequence[float]) -> Dict[str, float]:
    """Per-request means over the requests that began in ``[start, end)``.

    A layer's own time is its spans' durations minus the time their
    direct child spans cover.  ``client_ms`` are the client-measured
    latencies of the same window.
    """
    spans, marks = dump["spans"], dump["marks"]
    requests = {
        s[0] for s in spans
        if s[1] == HTTP and s[6] == 1 and start <= s[2] < end
    }
    if not requests or not client_ms:
        raise ValueError("no traced request fell inside the measured window")
    children: Dict[int, float] = defaultdict(float)
    for sid, _, s0, s1, parent, _, _ in spans:
        if parent is not None:
            children[parent] += s1 - s0
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    handle = 0.0
    audit_requests, verify_requests = set(), set()
    for sid, name, s0, s1, _, request, n in spans:
        if request not in requests:
            continue
        layer = name.split("/")[0]
        own[layer] += (s1 - s0) - children[sid]
        calls[layer] += 1
        counts[layer] += n or 0
        if layer == HTTP:
            handle += s1 - s0
        if name in AUDIT_OPS:
            audit_requests.add(request)
            if name == AUDIT_OPS[0]:
                verify_requests.add(request)
    audit_appends = sum(
        s[6] for s in spans
        if s[1] == "provenance.store.append" and s[5] in verify_requests
    )
    scanned = hold = dispatch = 0.0
    connections = 0
    for name, s0, s1, request, n in marks:
        if name == SCAN and request in audit_requests:
            scanned += n
        elif name == LOCK_HOLD and request in requests:
            hold += s1 - s0
        elif name == DISPATCH and start <= s0 < end:
            dispatch += s1 - s0
            connections += 1

    r = len(requests)
    client = fmean(client_ms)
    handle_ms = 1e3 * handle / r

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "service.http.handle_ms": handle_ms,
        "service.http.wire_ms": client - handle_ms,
        "service.http.dispatch_wait_ms": 1e3 * dispatch / r,
        "service.http.requests_per_connection": ratio(r, connections),
        "service.core.lock_hold_ms": 1e3 * hold / r,
    }
    for metric, layer in SELF_TIME_METRICS.items():
        metrics[metric] = 1e3 * own[layer] / r
    metrics.update({
        "crypto.sign.calls_per_record": ratio(calls["crypto.sign"],
                                              counts["provenance.store.append"]),
        "crypto.records_per_seal": ratio(counts["crypto.seal"], calls["crypto.seal"]),
        "core.collector.records_per_flush": ratio(counts["core.collector"],
                                                  calls["core.collector"]),
        "provenance.store.records_scanned_per_audit": ratio(scanned, len(audit_requests)),
        "provenance.store.audit_appends_per_verify": ratio(audit_appends,
                                                           len(verify_requests)),
        "core.shipment.records_per_shipment": ratio(counts["core.shipment"],
                                                    calls["core.shipment"]),
        "core.verifier.records_checked_per_verify": ratio(counts["core.verifier"],
                                                          calls["core.verifier"]),
        "trace.attributed_frac": ratio(1e3 * (sum(own.values()) + dispatch) / r, client),
    })
    return metrics


# ----------------------------------------------------------------------
# launcher
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--must-fire", default="",
                        help="comma-separated layers that must record a call")
    parser.add_argument("serve_argv", nargs=argparse.REMAINDER,
                        help="-- followed by the `repro` command line")
    args = parser.parse_args(argv)
    serve_argv = args.serve_argv[1:] if args.serve_argv[:1] == ["--"] else args.serve_argv

    rec = Recorder()
    missing = install(rec, targets(rec))
    if missing:
        print("traced_serve: wrapped functions no longer exist: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    from repro.cli.main import main as repro_main

    code = repro_main(serve_argv)  # returns when SIGINT stops the server
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans, "marks": rec.marks}, fh)
    calls = Counter(s[1].split("/")[0] for s in rec.spans)
    calls.update(m[0] for m in rec.marks)
    silent = [layer for layer in args.must_fire.split(",") if layer and not calls[layer]]
    if silent:
        print("traced_serve: layers recorded no call: " + ", ".join(silent), file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
