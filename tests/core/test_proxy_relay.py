"""The HTTP proxy relays an upstream reply's bytes as received instead
of decoding and re-encoding them -- and still parses them: garbage is a
502, and fail-static serves its stale reads from the parsed copy."""

from __future__ import annotations

import json
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import HTTPError

import pytest

from repro.core.pipeline import generate_policy
from repro.core.proxy import HttpKubeFenceProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import Cluster
from repro.k8s.http import HttpApiServer
from repro.operators import get_chart
from repro.resilience import ResilienceConfig, RetryPolicy

_IDENTITY = {"X-Remote-User": "nginx-operator", "X-Remote-Groups": "system:masters",
             "Content-Type": "application/json"}

#: Valid JSON no ``json.dumps`` would produce: odd spacing, a newline,
#: a non-ASCII character left unescaped.
_ODD_JSON = b'{"kind":"Service" , "metadata": {"name":"caf\xc3\xa9-nginx"},\n "spec":{}}'


@pytest.fixture(scope="module")
def nginx():
    chart = get_chart("nginx")
    service = next(m for m in render_chart(chart) if m["kind"] == "Service")
    return generate_policy(chart), service


def _call(base_url: str, method: str, path: str,
          body: bytes | None = None) -> tuple[int, dict, bytes]:
    """``(status, headers, raw body bytes)`` of one request."""
    request = urllib.request.Request(base_url + path, data=body, method=method,
                                     headers=_IDENTITY)
    try:
        with urllib.request.urlopen(request, timeout=5) as reply:
            return reply.status, dict(reply.headers), reply.read()
    except HTTPError as err:
        return err.code, dict(err.headers), err.read()


class _Stub:
    """An upstream that answers every request with a settable
    ``(status, body bytes)``."""

    def __init__(self, status: int, body: bytes):
        self.reply = (status, body)
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def _answer(self):
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                status, payload = stub.reply
                self.wfile.write(
                    b"HTTP/1.1 %d X\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % (status, len(payload)) + payload
                )

            do_GET = do_PUT = do_POST = _answer

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        return "http://127.0.0.1:%d" % self.server.server_address[1]

    def __enter__(self) -> "_Stub":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()


_PATH = "/api/v1/namespaces/default/services/x-nginx"


class TestRelayIsByteExact:
    def test_get_list_put_carry_the_api_servers_bytes(self, nginx):
        validator, service = nginx
        name = service["metadata"]["name"]
        path = f"/api/v1/namespaces/default/services/{name}"
        body = json.dumps(service).encode()
        with HttpApiServer(Cluster().api) as server, \
                HttpKubeFenceProxy(server.base_url, validator) as proxy:
            assert _call(server.base_url, "POST", "/api/v1/namespaces/default/services",
                         body)[0] == 201
            for what in (path, "/api/v1/namespaces/default/services"):
                direct = _call(server.base_url, "GET", what)
                proxied = _call(proxy.base_url, "GET", what)
                assert direct[0] == proxied[0] == 200
                assert proxied[2] == direct[2], what
            status, _, put_reply = _call(proxy.base_url, "PUT", path, body)
            assert status == 200
            # The update's reply is the stored object, which a direct GET
            # now returns byte for byte.
            assert put_reply == _call(server.base_url, "GET", path)[2]

    @pytest.mark.parametrize("method", ["GET", "PUT"])
    def test_upstream_bytes_are_not_reencoded(self, nginx, method):
        validator, service = nginx
        body = json.dumps(service).encode() if method == "PUT" else None
        with _Stub(200, _ODD_JSON) as stub, \
                HttpKubeFenceProxy(stub.base_url, validator) as proxy:
            status, _, relayed = _call(proxy.base_url, method,
                                       f"/api/v1/namespaces/default/services/"
                                       f"{service['metadata']['name']}", body)
        assert status == 200
        assert relayed == _ODD_JSON


class TestRelayKeepsItsChecks:
    def test_non_json_upstream_is_bad_gateway(self, nginx):
        validator, _ = nginx
        with _Stub(200, b"<html>not json</html>") as stub, \
                HttpKubeFenceProxy(stub.base_url, validator) as proxy:
            series = 'kubefence_upstream_errors_total{kind="bad-payload"}'
            before = proxy.stats.registry.snapshot().get(series, 0)
            status, _, body = _call(proxy.base_url, "GET", _PATH)
            assert status == 502
            assert json.loads(body)["reason"] == "BadGateway"
            assert proxy.stats.registry.snapshot().get(series, 0) == before + 1

    def test_fail_static_serves_the_parsed_copy(self, nginx):
        validator, _ = nginx
        static = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.001, max_delay=0.002),
            request_timeout=1.0, request_deadline=2.0,
            failure_threshold=1, recovery_timeout=60.0,
            degraded_mode="fail-static",
        )
        with _Stub(200, _ODD_JSON) as stub, \
                HttpKubeFenceProxy(stub.base_url, validator, resilience=static) as proxy:
            status, headers, relayed = _call(proxy.base_url, "GET", _PATH)
            assert (status, relayed) == (200, _ODD_JSON)
            assert "X-KubeFence-Degraded" not in headers
            # Lights out: the first 503 opens the breaker.
            stub.reply = (503, b'{"kind":"Status","code":503}')
            status, headers, stale = _call(proxy.base_url, "GET", _PATH)
        assert status == 200
        assert headers["X-KubeFence-Degraded"].startswith("stale-read")
        # Encoded locally from the parsed copy, not the relayed bytes.
        assert stale == json.dumps(json.loads(_ODD_JSON)).encode()
