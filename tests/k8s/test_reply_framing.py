"""Reply framing: every reply either HTTP frontend writes leaves in one
send, so no reply body waits behind Nagle's algorithm for the peer's
~40 ms delayed ACK.

The deterministic checks count ``sendall`` calls on the frontend's own
(server-side) sockets per reply; the loopback checks time keep-alive
round trips from a ``TCP_NODELAY`` client, where a two-send reply costs
about 44 ms and a one-send reply a few milliseconds.
"""

from __future__ import annotations

import collections
import copy
import json
import socket
import statistics
import time

import pytest

from repro.core.pipeline import generate_policy
from repro.core.proxy import HttpKubeFenceProxy, HttpUpstream, ProxyStats, WireRequest
from repro.helm.chart import render_chart
from repro.k8s.apiserver import APIServer, Cluster, User
from repro.k8s.http import HttpApiServer
from repro.operators import get_chart

#: A median RTT above this means a reply stalled behind a delayed ACK.
STALL_FREE_MS = 20.0

_SERVICES = b"/api/v1/namespaces/default/services"
_HEADERS = (b"Host: x\r\nX-Remote-User: nginx-operator\r\n"
            b"X-Remote-Groups: system:masters\r\nContent-Type: application/json\r\n")


@pytest.fixture(scope="module")
def nginx():
    chart = get_chart("nginx")
    service = next(m for m in render_chart(chart) if m["kind"] == "Service")
    return generate_policy(chart), service


@pytest.fixture()
def stack(nginx, leak_checker):
    validator, _ = nginx
    cluster = Cluster()
    token = leak_checker.begin()
    with HttpApiServer(cluster.api) as server:
        with HttpKubeFenceProxy(server.base_url, validator) as proxy:
            yield server, proxy
    leak_checker.end(token)


@pytest.fixture()
def sends(monkeypatch):
    """``sendall`` calls per local port: a frontend's replies count
    under its listening port, client and upstream sockets under their
    ephemeral ones."""
    counts: collections.Counter = collections.Counter()
    original = socket.socket.sendall

    def sendall(sock, data, *args):
        try:
            counts[sock.getsockname()[1]] += 1
        except OSError:
            pass
        return original(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", sendall)
    return counts


def _request(method: bytes, path: bytes, body: bytes | None = None,
             extra: bytes = b"") -> bytes:
    length = b"Content-Length: %d\r\n" % len(body) if body is not None else b""
    return (method + b" " + path + b" HTTP/1.1\r\n" + _HEADERS + length + extra
            + b"\r\n" + (body or b""))


def _read_reply(sock: socket.socket, head_only: bool = False) -> tuple[int, dict, bytes]:
    """One complete reply off *sock*: ``(status, headers, body)``;
    status 0 when the peer closed before a complete head."""
    received = b""
    while b"\r\n\r\n" not in received:
        chunk = sock.recv(65536)
        if not chunk:
            return 0, {}, received
        received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    length = 0 if head_only else int(headers["Content-Length"])
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return int(status_line.split()[1]), headers, body


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _exchange(port: int, request: bytes, head_only: bool = False) -> tuple[int, dict, bytes]:
    with _connect(port) as sock:
        sock.sendall(request)
        return _read_reply(sock, head_only)


def _sends_per_reply(sends, port: int, cases) -> dict[str, tuple[int, int]]:
    """``case -> (status, sends the frontend made for its reply)``."""
    seen = {}
    for name, request, head_only in cases:
        before = sends[port]
        status, _, _ = _exchange(port, request, head_only)
        seen[name] = (status, sends[port] - before)
    return seen


def _service(nginx, name: str) -> bytes:
    """The chart's Service renamed to *name* (the policy admits any
    ``<string>-nginx``)."""
    manifest = copy.deepcopy(nginx[1])
    manifest["metadata"]["name"] = name
    return json.dumps(manifest).encode()


_HOST_NETWORK_POD = json.dumps({
    "apiVersion": "v1", "kind": "Pod",
    "metadata": {"name": "escape", "namespace": "default"},
    "spec": {"hostNetwork": True, "containers": [{"name": "c", "image": "busybox"}]},
}).encode()


def _shared_cases(nginx, name: str) -> list[tuple[str, bytes, bool]]:
    """(case, raw request, reply has no body) served by both frontends."""
    service = nginx[1]["metadata"]["name"]
    return [
        ("201 POST", _request(b"POST", _SERVICES, _service(nginx, name)), False),
        ("200 GET", _request(b"GET", _SERVICES + b"/" + name.encode()), False),
        ("404", _request(b"GET", b"/api/v1/namespaces/default/nosuchkinds"), False),
        ("400 framing", _request(b"POST", _SERVICES, extra=b"Content-Length: abc\r\n"), False),
        ("411 framing", _request(b"PUT", _SERVICES + b"/" + service.encode()), False),
        ("413 framing", _request(b"POST", _SERVICES, extra=b"Content-Length: 99999999999\r\n"),
         False),
        ("HEAD /metrics", _request(b"HEAD", b"/metrics"), True),
        ("405 HEAD api", _request(b"HEAD", _SERVICES), True),
        ("/obs/traces", _request(b"GET", b"/obs/traces"), False),
        ("501 junk method", b"JUNK / HTTP/1.1\r\nHost: x\r\n\r\n", False),
        ("400 request line", b"GET / HTTP/9.x\r\n\r\n", False),
    ]


_EXPECTED = {"201 POST": 201, "200 GET": 200, "404": 404, "400 framing": 400,
             "411 framing": 411, "413 framing": 413, "HEAD /metrics": 200,
             "405 HEAD api": 405, "/obs/traces": 200, "501 junk method": 501,
             "400 request line": 400}


class TestOneSendPerReply:
    def test_api_server(self, stack, sends, nginx):
        server, _ = stack
        seen = _sends_per_reply(sends, server.address[1], _shared_cases(nginx, "direct-nginx"))
        assert seen == {case: (code, 1) for case, code in _EXPECTED.items()}

    def test_proxy(self, stack, sends, nginx):
        _, proxy = stack
        port = proxy.address[1]
        cases = _shared_cases(nginx, "proxied-nginx") + [
            ("403 deny", _request(b"POST", b"/api/v1/namespaces/default/pods",
                                  _HOST_NETWORK_POD), False),
        ]
        seen = _sends_per_reply(sends, port, cases)
        assert seen == {**{case: (code, 1) for case, code in _EXPECTED.items()},
                        "403 deny": (403, 1)}

    def test_saturation_reply(self, sends):
        with HttpApiServer(APIServer(), workers=1, queue_size=1) as server:
            port = server.address[1]
            pool = server._httpd._queue
            holders = [_connect(port)]
            try:
                # A partial request pins the single worker ...
                holders[0].sendall(b"GET /healthz HTTP/1.1\r\n")
                deadline = time.monotonic() + 5
                while not (pool.unfinished_tasks == 1 and pool.qsize() == 0):
                    assert time.monotonic() < deadline, "worker never picked up"
                    time.sleep(0.01)
                # ... a second connection parks in the hand-off queue ...
                holders.append(_connect(port))
                while not pool.full():
                    assert time.monotonic() < deadline, "queue never filled"
                    time.sleep(0.01)
                # ... and the third is answered on the accept path.
                before = sends[port]
                status, headers, body = _exchange(port, _request(b"GET", b"/healthz"))
                assert (status, sends[port] - before) == (503, 1)
                assert headers["Connection"] == "close"
                assert json.loads(body)["reason"] == "ServerSaturated"
            finally:
                for sock in holders:
                    sock.close()


class TestNoDelayedAckStall:
    """Keep-alive round trips on loopback, where a reply held behind a
    delayed ACK costs ~44 ms and a one-send reply a few ms."""

    def _median_rtt_ms(self, port: int, requests: list[bytes]) -> float:
        rtts = []
        with _connect(port) as sock:
            for request in requests:
                started = time.perf_counter()
                sock.sendall(request)
                status, _, _ = _read_reply(sock)
                rtts.append((time.perf_counter() - started) * 1000)
                assert status in (200, 201), status
        return statistics.median(rtts)

    @pytest.mark.parametrize("frontend", ["apiserver", "proxy"])
    def test_get_and_put_median_rtt(self, stack, nginx, frontend):
        server, proxy = stack
        name = nginx[1]["metadata"]["name"].encode()
        body = _service(nginx, name.decode())
        _exchange(server.address[1], _request(b"POST", _SERVICES, body))
        port = (server if frontend == "apiserver" else proxy).address[1]
        get = _request(b"GET", _SERVICES + b"/" + name)
        put = _request(b"PUT", _SERVICES + b"/" + name, body)
        assert self._median_rtt_ms(port, [get] * 20) < STALL_FREE_MS
        assert self._median_rtt_ms(port, [put] * 20) < STALL_FREE_MS

    def test_proxied_post_reaches_upstream_in_one_rtt(self, stack, nginx):
        _, proxy = stack
        posts = [_request(b"POST", _SERVICES, _service(nginx, f"svc{i}-nginx")) for i in range(20)]
        assert self._median_rtt_ms(proxy.address[1], posts) < STALL_FREE_MS

    def test_pooled_upstream_socket_disables_nagle(self, stack):
        """``http.client`` writes a forwarded request's head and body in
        two sends; the pooled connection must not hold the body for an
        ACK."""
        server, _ = stack
        upstream = HttpUpstream(server.base_url, request_timeout=5.0)
        upstream.stats = ProxyStats()
        request = WireRequest(verb="get", kind="Service", user=User("u"),
                              method="GET", path="/healthz")
        assert upstream.handle(request).code == 200
        sock = upstream._pool.conn.sock
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        upstream._pool.conn.close()
