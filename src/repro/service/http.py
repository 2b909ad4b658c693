"""The stdlib HTTP front end for :class:`ProvenanceService`.

A :class:`ProvenanceHTTPServer` is a ``ThreadingHTTPServer`` whose
handler translates HTTP to :class:`~repro.service.core.ProvenanceService`
calls and exceptions to status codes.  Responses are
:func:`~repro.service.core.canonical_json` bytes — the byte-identity
suite compares them verbatim against in-process results.

Routes (all bodies and responses are JSON):

====== ============================ =======================================
POST   /v1/record                   apply one primitive (insert/update/
                                    delete/aggregate) with provenance
POST   /v1/batch                    several mutations as one complex op
POST   /v1/verify                   verify an object as a recipient
                                    would; a read that stores nothing
GET    /v1/objects                  object ids with provenance
GET    /v1/provenance/<object_id>   the object's record chain
GET    /v1/lineage/<object_id>      lineage summary (ancestry/DAG shape)
GET    /healthz                     monitor pass over every tenant;
                                    503 iff any tenant looks tampered
                                    (``?quick=1`` = incremental tick).
                                    Unauthenticated: aggregate health
                                    only, always the quick tick.  A
                                    tenant key adds that tenant's
                                    breakdown; an admin key, all
                                    tenants'.
GET    /v1/metrics                  Prometheus text exposition of the
                                    server's registry (``?format=json``
                                    = raw snapshot)          (admin)
GET    /v1/profile                  phase-profiler cost model  (admin)
GET    /v1/alerts                   alert/health event stream, cursor
                                    paged (``?since=<seq>&wait=<s>``
                                    long-polls)                (admin)
POST   /v1/admin/keys               mint an API key            (admin)
DELETE /v1/admin/keys/<key_id>      revoke an API key          (admin)
POST   /v1/admin/recover            run crash recovery         (admin)
====== ============================ =======================================

The observability endpoints are admin-only on purpose: metric label
values contain tenant ids and the alert stream narrates every tenant's
health — in the mutually-distrusting threat model that is operator data,
never tenant data.

Authentication: ``Authorization: Bearer <token>`` (or ``X-Api-Key``).
The tenant is *always* taken from the token's claims — no request names
a tenant explicitly, so a key for tenant A cannot address tenant B's
world at all.  Admin keys (tenant ``*``) work only on the admin routes;
they carry no data-plane tenant, so even the operator's key cannot read
tenant data through this surface.

Status mapping (the chaos suite pins this down):

- 401 missing/malformed/forged/expired key; 403 revoked key or missing
  admin scope
- 404 unknown object; 400 malformed request or a caller error from the
  core (:class:`ReproError`)
- a body the server will not read is answered and its connection
  closed, since the next request's start is lost with it: 400 for a
  malformed or repeated ``Content-Length`` or a body cut short, 408 for
  a body stalled past ``_RequestHandler.timeout``, 411 for a
  ``Transfer-Encoding`` body, 413 above ``_RequestHandler.MAX_BODY``
- 503 + ``Retry-After`` for *transient* store trouble (the same
  ``TRANSIENT_STORE_ERRORS`` set the collector retries); the request is
  safe to retry — faults fire before any store write
- 500 for a simulated crash (:class:`CrashError`): the session has
  already compensated the engine, and a torn batch is repaired by
  recovery at restart.  Any unanticipated exception is also a 500 —
  the handler always sends *some* response rather than dropping the
  connection

One id names a request.  Every request runs inside an event-log
correlation scope, so the HTTP request, the collector flush it triggers,
and the store batch commit share one correlation id; it is echoed as
``X-Correlation-Id`` and is the exemplar of the ``service.http.seconds``
observation (and of every histogram the request feeds) when no span is
open, as under ``repro serve``, which builds no spans.  A client that
sends a valid ``X-Correlation-Id`` of its own has that id *adopted*
(after :func:`repro.obs.plane.valid_correlation_id` hygiene), so client-
and server-side events join on one id.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter, sleep
from typing import Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.core.collector import TRANSIENT_STORE_ERRORS
from repro.exceptions import (
    AuthError,
    CrashError,
    ForbiddenError,
    ReproError,
    ServiceError,
    UnknownObjectError,
)
from repro.obs import OBS
from repro.obs.events import current_correlation
from repro.obs.plane import valid_correlation_id
from repro.service.core import ProvenanceService, ServiceConfig, canonical_json

__all__ = ["ProvenanceHTTPServer", "DEFAULT_RETRY_AFTER", "ALERT_KINDS"]

#: Event kinds surfaced by /v1/alerts: raw monitor alerts plus the
#: background monitor's tenant-attributed alert/health transitions.
#: ``repro serve``'s event ring keeps only these, so request traffic
#: cannot evict them.
ALERT_KINDS = frozenset({"alert", "service.alert", "service.health"})

#: ``Retry-After`` seconds sent with 503s.  Fractional (the bundled
#: client parses floats) so chaos tests stay fast; real deployments
#: would round up.
DEFAULT_RETRY_AFTER = 0.05


class _Unreadable(Exception):
    """A request body the server will not read: answered, then closed."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request into the service core.

    A connection stays open across requests (HTTP/1.1 keep-alive) until
    the client closes it, sits idle for :attr:`timeout` seconds, or a
    reply says ``Connection: close``.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-provenance"
    #: A reply goes out as one send (:meth:`_respond`), but one longer
    #: than a TCP segment ends in a partial segment, which Nagle holds
    #: until the client ACKs the segments before it — and a client delays
    #: that ACK by up to 40 ms.
    disable_nagle_algorithm = True
    #: Socket timeout, seconds: an idle kept-alive connection, or a
    #: request stalled mid-body, is closed after this long, so clients
    #: cannot pin handler threads.
    timeout = 10.0
    #: Largest request body the server reads.  A longer declared body is
    #: answered 413 without being read, and the connection closed.
    MAX_BODY = 1 << 20

    # BaseHTTPRequestHandler logs to stderr by default; the service
    # narrates on the structured event log instead.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> ProvenanceService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        route = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        log = OBS.events
        if log is not None:
            # Adopt the client's correlation id when it sent a sane one,
            # so client- and server-side events join on one id; anything
            # unvalidated (log injection, overlong values) is replaced by
            # a freshly minted server id.
            client_corr = self.headers.get("X-Correlation-Id")
            if not valid_correlation_id(client_corr):
                client_corr = None
            scope = log.correlation(client_corr)
        else:
            scope = nullcontext()
        began = perf_counter()
        endpoint = f"{method} {route.split('/v1/', 1)[-1].split('/')[0] or route}"
        # The scope encloses the phase, so the phase closes while the
        # request's correlation id is still active: that id becomes the
        # exemplar of its service.http.seconds observation.
        with scope, obs.phase(
            "http.request", endpoint=endpoint, method=method, path=route
        ) as request_span:
            corr = current_correlation()
            try:
                # Read the whole body before anything can answer: a reply
                # sent with the body unread would leave it on the
                # connection, to be parsed as the next request.
                self._raw_body = self._read_body()
                status, payload, headers = self._route(method, route, query)
            except _Unreadable as exc:
                status, payload = exc.status, {"error": str(exc)}
                headers = {"Connection": "close"}
            except (AuthError, ForbiddenError) as exc:
                status, payload, headers = self._auth_failure(exc)
            except UnknownObjectError as exc:
                status, payload, headers = 404, {"error": _strip(exc)}, {}
            except ServiceError as exc:
                status, payload, headers = 400, {"error": str(exc)}, {}
            except TRANSIENT_STORE_ERRORS as exc:
                retry_after = self.server.retry_after  # type: ignore[attr-defined]
                status = 503
                payload = {"error": str(exc), "transient": True}
                headers = {"Retry-After": f"{retry_after:g}"}
            except CrashError as exc:
                # CrashError is a BaseException: catch it here so a
                # simulated crash fails the request, not the server.
                status, payload, headers = 500, {"error": str(exc)}, {}
            except ReproError as exc:
                status, payload, headers = 400, {"error": str(exc)}, {}
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                status, payload, headers = 400, {"error": f"bad request: {exc}"}, {}
            except Exception as exc:  # noqa: BLE001 — always answer
                # Anything unanticipated must still produce an HTTP
                # response; a silent connection drop looks like a network
                # fault to the client and hides the real error.
                status, payload, headers = 500, {"error": f"internal error: {exc}"}, {}
            if log is not None:
                log.emit(
                    "http.request",
                    method=method, path=route, status=status,
                    duration=perf_counter() - began,
                )
            if request_span is not None:
                request_span.attrs["status"] = status
        if OBS.enabled:
            OBS.registry.counter(
                "service.http.requests", endpoint=endpoint, status=str(status)
            ).inc()
        if corr:
            headers = dict(headers)
            headers["X-Correlation-Id"] = corr
        self._respond(status, payload, headers)

    def _route(
        self, method: str, route: str, query: Dict[str, list]
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        service = self.service
        if route == "/healthz" and method == "GET":
            quick = query.get("quick", ["0"])[0] not in ("0", "", "false")
            token = self._token()
            if token is None:
                # Unauthenticated probes (load balancers) get the 200/503
                # aggregate only — no tenant ids, counts, or alerts — and
                # always the cheap incremental tick, so an anonymous
                # caller can neither enumerate the customer list nor make
                # the service burn a full signature audit per request.
                payload, tampered = service.healthz(full=False, include=())
            else:
                claims = service.authority.validate(token)
                include = None if claims.is_admin else (claims.tenant,)
                payload, tampered = service.healthz(
                    full=not quick, include=include
                )
            return (503 if tampered else 200), payload, {}

        if route in ("/v1/metrics", "/v1/profile", "/v1/alerts"):
            return self._route_observability(method, route, query)

        if route.startswith("/v1/admin/"):
            return self._route_admin(method, route)

        claims = service.authority.validate(self._token())
        if claims.tenant == "*":
            raise ForbiddenError(
                "admin keys carry no tenant and cannot access the data plane"
            )
        tenant = claims.tenant
        if OBS.enabled:
            # Per-tenant traffic counter, labelled post-auth so the label
            # value is a *validated* tenant claim (hostile ids still pass
            # through — the exporter escapes them; the scrape tests feed
            # quotes/backslashes/newlines through exactly this label).
            OBS.registry.counter("service.tenant.requests", tenant=tenant).inc()

        if route == "/v1/record" and method == "POST":
            body = self._body()
            return 200, service.record(
                tenant,
                str(body["op"]),
                str(body["object_id"]),
                value=body.get("value"),
                parent=body.get("parent"),
                inputs=body.get("inputs"),
                note=str(body.get("note", "")),
            ), {}
        if route == "/v1/batch" and method == "POST":
            body = self._body()
            return 200, service.batch(
                tenant, body["ops"], note=str(body.get("note", ""))
            ), {}
        if route == "/v1/verify" and method == "POST":
            body = self._body()
            return 200, service.verify(tenant, str(body["object_id"])), {}
        if route == "/v1/objects" and method == "GET":
            return 200, service.objects(tenant), {}
        if route.startswith("/v1/provenance/") and method == "GET":
            object_id = route[len("/v1/provenance/"):]
            return 200, service.provenance(tenant, object_id), {}
        if route.startswith("/v1/lineage/") and method == "GET":
            object_id = route[len("/v1/lineage/"):]
            return 200, service.lineage(tenant, object_id), {}
        raise ServiceError(f"no route for {method} {route}")

    #: Longest long-poll the server will hold an /v1/alerts request.
    MAX_ALERT_WAIT = 30.0

    def _route_observability(
        self, method: str, route: str, query: Dict[str, list]
    ) -> Tuple[int, object, Dict[str, str]]:
        """Admin-only: /v1/metrics, /v1/profile, /v1/alerts."""
        service = self.service
        service.authority.require_admin(self._token())
        if method != "GET":
            raise ServiceError(f"no route for {method} {route}")

        if route == "/v1/metrics":
            snapshot = OBS.registry.snapshot()
            if query.get("format", [""])[0] == "json":
                return 200, {"enabled": OBS.enabled, "metrics": snapshot}, {}
            from repro.obs.export import to_prometheus

            body = to_prometheus(snapshot).encode("utf-8")
            return 200, body, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
            }

        if route == "/v1/profile":
            profiler = OBS.profiler
            if profiler is None:
                return 200, {"attached": False}, {}
            from repro.obs.profile import CostModel

            records = 0
            for tenant_id in service.tenant_ids():
                world = service._worlds[tenant_id]
                with world.lock:
                    records += len(world.store)
            cost = CostModel.from_profiler(profiler, records=records)
            return 200, {"attached": True, "cost": cost.to_dict()}, {}

        # /v1/alerts — cursor-paged, optionally long-polling.  The cursor
        # is an event sequence number: events with seq > since match, and
        # the returned cursor is the newest seq seen in the ring (matching
        # or not), so a poll loop never rescans what it already skipped.
        log = OBS.events
        ring = log.ring if log is not None else None
        if ring is None:
            return 200, {"events": [], "cursor": -1, "attached": False}, {}
        try:
            since = int(query.get("since", ["-1"])[0])
        except ValueError:
            raise ServiceError("since must be an integer event sequence")
        try:
            wait = min(float(query.get("wait", ["0"])[0]), self.MAX_ALERT_WAIT)
        except ValueError:
            raise ServiceError("wait must be a number of seconds")
        deadline = perf_counter() + max(0.0, wait)
        while True:
            events = ring.events()
            matched = [
                e.to_dict()
                for e in events
                if e.seq > since and e.kind in ALERT_KINDS
            ]
            cursor = max([since] + [e.seq for e in events])
            if matched or perf_counter() >= deadline:
                return 200, {
                    "events": matched, "cursor": cursor, "attached": True,
                }, {}
            sleep(0.05)

    def _route_admin(
        self, method: str, route: str
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        service = self.service
        service.authority.require_admin(self._token())
        if route == "/v1/admin/keys" and method == "POST":
            body = self._body()
            tenant = str(body["tenant"])
            ttl = body.get("ttl")
            token = service.authority.issue(
                tenant,
                scopes=tuple(str(s) for s in body.get("scopes", ())),
                ttl=None if ttl is None else float(ttl),
            )
            claims = service.authority.decode_claims(token)
            return 200, {"token": token, "key_id": claims.key_id,
                         "tenant": tenant}, {}
        if route.startswith("/v1/admin/keys/") and method == "DELETE":
            key_id = route[len("/v1/admin/keys/"):]
            revoked = service.authority.revoke(key_id)
            return 200, {"key_id": key_id, "revoked": revoked}, {}
        if route == "/v1/admin/recover" and method == "POST":
            return 200, service.recover(), {}
        raise ServiceError(f"no admin route for {method} {route}")

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _token(self) -> Optional[str]:
        auth = self.headers.get("Authorization")
        if auth:
            parts = auth.split(None, 1)
            if len(parts) == 2 and parts[0].lower() == "bearer":
                return parts[1].strip()
            raise AuthError("Authorization header is not a Bearer token")
        return self.headers.get("X-Api-Key")

    def _read_body(self) -> bytes:
        """This request's body; raises :class:`_Unreadable` for one that
        cannot be read without losing the request boundary."""
        if self.headers.get("Transfer-Encoding") is not None:
            raise _Unreadable(411, "send the body with a Content-Length")
        declared = self.headers.get_all("Content-Length") or []
        if not declared:
            return b""
        value = declared[0].strip()
        if len(declared) > 1 or not (value.isascii() and value.isdigit()):
            raise _Unreadable(400, f"malformed Content-Length {declared!r}")
        length = int(value)
        if length > self.MAX_BODY:
            raise _Unreadable(
                413, f"request body of {length} bytes exceeds {self.MAX_BODY}"
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise _Unreadable(408, "request body timed out") from None
        if len(raw) < length:
            raise _Unreadable(400, f"request body ended at {len(raw)} of {length} bytes")
        return raw

    def _body(self) -> Dict[str, object]:
        raw = self._raw_body
        if not raw:
            raise ServiceError("request body is required")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    @staticmethod
    def _auth_failure(exc) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        if isinstance(exc, ForbiddenError):
            return 403, {"error": _strip(exc)}, {}
        return 401, {"error": _strip(exc)}, {"WWW-Authenticate": "Bearer"}

    def _respond(
        self, status: int, payload: object, headers: Dict[str, str]
    ) -> None:
        # JSON-dict payloads get the canonical encoding (byte-identity
        # suite); a bytes payload goes out verbatim with whatever
        # Content-Type the route set (the Prometheus text exposition).
        headers = dict(headers)
        if isinstance(payload, bytes):
            body = payload
            content_type = headers.pop("Content-Type", "text/plain; charset=utf-8")
        else:
            body = canonical_json(payload)
            content_type = headers.pop("Content-Type", "application/json")
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            # end_headers() would send the head on its own; ending it here
            # puts the body in the same buffer, so a reply is one send and
            # its thread wins the GIL back once, not twice.
            self._headers_buffer.extend((b"\r\n", body))
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True


def _strip(exc: BaseException) -> str:
    # UnknownObjectError subclasses KeyError, whose str() adds quotes.
    return str(exc).strip("'\"")


class ProvenanceHTTPServer(ThreadingHTTPServer):
    """The provenance service bound to a socket.

    ``port=0`` picks a free port (tests).  :meth:`start_background` runs
    ``serve_forever`` on a daemon thread and returns once the socket is
    accepting, so tests and the load harness can connect immediately.
    """

    daemon_threads = True
    #: The socketserver default backlog of 5 drops connections under the
    #: load harness's 32-thread bursts ("connection reset by peer").
    request_queue_size = 128

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[ProvenanceService] = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ):
        self.service = service if service is not None else ProvenanceService(
            config if config is not None else ServiceConfig()
        )
        self.retry_after = retry_after
        self._thread: Optional[threading.Thread] = None
        #: Accepted connections not yet closed by their handler.
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__((host, port), _RequestHandler)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening and end every kept-alive connection, so no
        client reaches the service through one after it is closed."""
        super().server_close()
        with self._open_lock:
            still_open = list(self._open)
        for request in still_open:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # its handler closed it meanwhile
                pass

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> "ProvenanceHTTPServer":
        thread = threading.Thread(
            target=self.serve_forever,
            name="repro-service",
            daemon=True,
            kwargs={"poll_interval": 0.05},
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.server_close()
        self.service.close()

