"""Persistent connections: keep-alive, request bodies, and no double apply.

The server keeps a connection open across requests, so every request
must leave it exactly at the next request's first byte.  A body the
server will not read (too long, malformed length, chunked) is answered
and the connection closed.  The client reuses its idle connections,
replaces one the server closed, and never sends a request twice once
the server may have seen it.
"""

from __future__ import annotations

import http.client
import json
import socket
import socketserver
import threading
import time

import pytest

from repro.service import ServiceClient
from repro.service import client as client_module
from repro.service.core import AUDIT_OBJECT
from repro.service.http import _RequestHandler


def count_accepts(server, monkeypatch) -> list:
    """Record every connection the server accepts from now on."""
    accepted = []
    process_request = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        return process_request(request, client_address)

    monkeypatch.setattr(server, "process_request", counting)
    return accepted


def read_reply(reply):
    """(status, headers, body) of one raw HTTP/1.1 reply."""
    status = int(reply.readline().split()[1])
    headers = {}
    for line in iter(reply.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reply.read(int(headers["content-length"]))


def chain_of(client, object_id):
    return [r["seq_id"] for r in client.provenance(object_id)["records"]]


def tenant_token(server, tenant="acme") -> str:
    with ServiceClient(server.base_url, token=server.service.admin_token) as admin:
        return admin.issue_key(tenant)["token"]


class TestKeepAlive:
    def test_twenty_mixed_requests_on_one_connection(self, server, tenant_client):
        """Writes, reads and errors answered before the body was needed
        (401, 403) share one connection, each reply right and in order.
        A Nagle stall (~40 ms a reply) or an unread body left on the
        connection (the next request answered 400) fails this."""
        token = tenant_client("acme").token
        host, port = server.server_address[:2]
        tenant = {"Authorization": f"Bearer {token}"}
        forged = {"Authorization": "Bearer forged"}

        def record(op, oid, value=None):
            return {"op": op, "object_id": oid, "value": value}

        steps = [
            ("POST", "/v1/record", tenant, record("insert", "a", 1), 200),
            ("POST", "/v1/record", tenant, record("insert", "b", 2), 200),
            ("POST", "/v1/record", tenant, record("update", "a", 3), 200),
            ("POST", "/v1/batch", tenant, {"ops": [
                record("insert", "c", 4), record("update", "b", 5)]}, 200),
            ("GET", "/v1/provenance/a", tenant, None, 200),
            ("GET", "/v1/objects", tenant, None, 200),
            ("GET", "/v1/provenance/ghost", tenant, None, 404),
            ("POST", "/v1/record", tenant, b"{not json", 400),
            ("GET", "/v1/lineage/a", tenant, None, 200),
            ("POST", "/v1/record", forged, record("insert", "x", 6), 401),
            ("POST", "/v1/admin/keys", tenant, {"tenant": "evil"}, 403),
            ("POST", "/v1/verify", tenant, {"object_id": "a"}, 200),
            ("GET", "/v1/provenance/b", tenant, None, 200),
            ("POST", "/v1/record", tenant, record("update", "c", 7), 200),
            ("POST", "/v1/record", tenant, record("insert", "a", 8), 400),
            ("GET", "/healthz?quick=1", tenant, None, 200),
            ("DELETE", "/v1/admin/keys/k1", tenant, None, 403),
            ("GET", "/v1/provenance/c", tenant, None, 200),
            ("POST", "/v1/verify", tenant, {"object_id": "c"}, 200),
            ("GET", "/v1/objects", tenant, None, 200),
        ]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        replies = []
        began = time.perf_counter()
        try:
            for method, path, headers, body, _ in steps:
                if isinstance(body, dict):
                    body = json.dumps(body).encode()
                conn.request(method, path, body=body, headers=headers)
                reply = conn.getresponse()
                replies.append((reply.status, json.loads(reply.read())))
        finally:
            elapsed = time.perf_counter() - began
            conn.close()
        assert [s for s, _ in replies] == [step[-1] for step in steps]
        assert all("error" in p for s, p in replies if s != 200)
        assert [r["seq_id"] for r in replies[4][1]["records"]] == [0, 1]
        assert sorted(replies[5][1]["objects"]) == ["a", "b", "c"]
        assert replies[11][1]["ok"] and replies[18][1]["ok"]
        assert [r["seq_id"] for r in replies[17][1]["records"]] == [0, 1]
        assert sorted(replies[19][1]["objects"]) == ["a", "b", "c", AUDIT_OBJECT]
        assert elapsed < 0.4, f"20 requests took {elapsed * 1e3:.0f} ms"

    def test_one_client_reuses_one_connection(self, server, tenant_client, monkeypatch):
        client = tenant_client("acme")
        accepted = count_accepts(server, monkeypatch)
        client.insert("doc", 0)
        for step in range(1, 5):
            client.update("doc", step)
        for _ in range(5):
            client.provenance("doc")
        assert len(accepted) == 1

    def test_stale_connection_is_replaced(self, server_factory, monkeypatch):
        monkeypatch.setattr(_RequestHandler, "timeout", 0.2)
        server = server_factory()
        accepted = count_accepts(server, monkeypatch)
        with ServiceClient(server.base_url, token=tenant_token(server)) as client:
            client.insert("doc", 1)
            time.sleep(0.6)  # the server closes the idle connection
            client.update("doc", 2)
            assert chain_of(client, "doc") == [0, 1]
        assert len(accepted) == 3  # the admin's, then two of the client's

    def test_failed_send_on_a_reused_connection_is_sent_again(
        self, server, tenant_client, monkeypatch
    ):
        """A send that fails never reached the server, so the client
        resends it once on a fresh connection; it is applied once."""
        client = tenant_client("acme")
        client.insert("doc", 1)
        accepted = count_accepts(server, monkeypatch)
        [idle] = client._idle
        idle.sock.shutdown(socket.SHUT_WR)  # the next send on it fails
        # As if the server's close raced the client's check for it.
        monkeypatch.setattr(client_module, "_readable", lambda sock: False)
        client.update("doc", 2)
        assert chain_of(client, "doc") == [0, 1]
        assert len(accepted) == 1

    def test_stopped_server_ends_kept_alive_connections(self, server_factory):
        server = server_factory()
        with ServiceClient(server.base_url, token=tenant_token(server)) as client:
            client.insert("doc", 1)
            server.stop()
            with pytest.raises(ConnectionError):  # not served by a closed service
                client.insert("late", 1)

    def test_lost_reply_is_raised_not_resent(self):
        """The server reads the second POST on a kept-alive connection
        and hangs up without replying: the client raises, and the
        server has seen that request exactly once."""
        listener = socket.create_server(("127.0.0.1", 0))
        seen = []

        def serve_one_connection():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                head = [stream.readline()]
                while head[-1] not in (b"\r\n", b""):
                    head.append(stream.readline())
                length = next(int(h.split(b":")[1]) for h in head
                              if h.lower().startswith(b"content-length"))
                seen.append(stream.read(length))
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                seen.append(stream.readline())
                # ...and hang up without answering the second request.

        thread = threading.Thread(target=serve_one_connection, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        try:
            with ServiceClient(url, token="t", retries=3, timeout=5) as client:
                assert client.insert("doc", 1) == {}
                with pytest.raises((ConnectionError, http.client.HTTPException)):
                    client.update("doc", 2)
            thread.join(timeout=5)
            assert not thread.is_alive()
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):  # no second connection
                listener.accept()
        finally:
            listener.close()
        assert len(seen) == 2 and seen[1].startswith(b"POST /v1/record")


class TestUnreadableBodies:
    """A body the server will not read is refused promptly, the
    connection is closed, and the next connection works."""

    @pytest.mark.parametrize("framing, sent, status", [
        ("Content-Length: 1099511627776", b"", 413),
        ("Content-Length: 50000000", b"0123456789", 413),
        ("Content-Length: -5", b"", 400),
        ("Content-Length: abc", b"", 400),
        ("Content-Length: 2\r\nContent-Length: 3", b"{}", 400),
        ("Transfer-Encoding: chunked", b"2\r\n{}\r\n0\r\n\r\n", 411),
    ], ids=("2**40", "50MB-sent-10", "negative", "non-numeric",
            "repeated", "chunked"))
    def test_answered_and_closed(self, server, tenant_client, framing, sent, status):
        client = tenant_client("acme")
        head = (
            "POST /v1/record HTTP/1.1\r\nHost: test\r\n"
            f"Authorization: Bearer {client.token}\r\n"
            f"Content-Type: application/json\r\n{framing}\r\n\r\n"
        ).encode()
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            began = time.perf_counter()
            sock.sendall(head + sent)
            with sock.makefile("rb") as reply:
                got, headers, body = read_reply(reply)
                elapsed = time.perf_counter() - began
                try:
                    rest = reply.read()
                except ConnectionResetError:  # closed with our bytes unread
                    rest = b""
        assert (got, rest) == (status, b"")
        assert headers["connection"] == "close"
        assert "error" in json.loads(body)
        assert elapsed < 1.0
        client.insert("after", 1)
        assert chain_of(client, "after") == [0]

    def test_stalled_body_times_out(self, server_factory, monkeypatch):
        monkeypatch.setattr(_RequestHandler, "timeout", 0.2)
        server = server_factory()
        head = (
            "POST /v1/record HTTP/1.1\r\nHost: test\r\n"
            f"Authorization: Bearer {tenant_token(server)}\r\n"
            "Content-Length: 100\r\n\r\n"
        ).encode()
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(head + b'{"op": ')
            with sock.makefile("rb") as reply:
                status, headers, _ = read_reply(reply)
        assert status == 408 and headers["connection"] == "close"


class TestOneSendPerReply:
    """A reply leaves in one send: head and body in one buffer, so the
    handler thread gives up and wins back the GIL once per reply."""

    @pytest.fixture
    def sends(self, monkeypatch):
        sent = []
        write = socketserver._SocketWriter.write

        def recording(writer, data):
            sent.append(bytes(data))
            return write(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", recording)
        return sent

    def test_a_200_is_one_send(self, server, tenant_client, sends):
        client = tenant_client("acme")
        client.insert("a", 1)
        sends.clear()
        body = client.request("GET", "/v1/provenance/a").raw
        assert len(sends) == 1
        assert sends[0].startswith(b"HTTP/1.1 200 ") and sends[0].endswith(body)

    def test_a_refused_body_with_connection_close_is_one_send(self, server, sends):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"POST /v1/record HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 1099511627776\r\n\r\n")
            status, headers, body = read_reply(sock.makefile("rb"))
        assert status == 413 and headers["connection"] == "close"
        assert len(sends) == 1 and sends[0].endswith(body)

    def test_the_prometheus_text_reply_is_one_send(self, server, admin, sends):
        sends.clear()
        reply = admin.request("GET", "/v1/metrics")
        assert reply.headers["Content-Type"].startswith("text/plain")
        assert len(sends) == 1 and sends[0].endswith(reply.raw)
