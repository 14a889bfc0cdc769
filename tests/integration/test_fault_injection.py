"""Fault injection: the enforcement path must fail closed and stay up.

A security proxy that crashes, hangs, or fails open under malformed
input is itself an attack surface.  These tests throw hostile and
broken inputs at every layer: the validator, the in-process proxy and
the HTTP topology.
"""

import json
from urllib import request as urllib_request
from urllib.error import HTTPError

import pytest

from repro.core.pipeline import generate_policy
from repro.core.proxy import HttpKubeFenceProxy, KubeFenceProxy
from repro.k8s.apiserver import ApiRequest, Cluster, User
from repro.k8s.errors import ApiError
from repro.k8s.http import HttpApiServer
from repro.operators import get_chart


@pytest.fixture(scope="module")
def validator():
    return generate_policy(get_chart("nginx"))


def deep_manifest(depth: int) -> dict:
    node: dict = {"leaf": True}
    for _ in range(depth):
        node = {"nested": node}
    return {"apiVersion": "apps/v1", "kind": "Deployment",
            "metadata": {"name": "bomb", "namespace": "default"},
            "spec": node}


class TestValidatorRobustness:
    def test_deeply_nested_manifest_denied_not_crashed(self, validator):
        result = validator.validate(deep_manifest(500))
        assert not result.allowed  # denied (unknown field), never raises

    def test_depth_bomb_under_known_map_field(self, validator):
        """Nested garbage placed under a map-typed field (labels) is a
        type violation, not a recursion crash."""
        manifest = deep_manifest(5)
        manifest["spec"] = {}
        deep_labels = {"app": "x"}
        for _ in range(400):
            deep_labels = {"l": deep_labels}
        manifest["metadata"]["labels"] = deep_labels
        result = validator.validate(manifest)
        assert not result.allowed

    @pytest.mark.parametrize(
        "junk",
        [
            {},
            {"kind": ""},
            {"kind": None},
            {"kind": 42},
            {"kind": "Deployment", "spec": "not-a-dict"},
            {"kind": "Deployment", "metadata": "nope"},
            {"kind": "Deployment", "spec": {"replicas": [[[]]]}},
            {"kind": "Deployment", "spec": {"template": [1, 2, 3]}},
        ],
    )
    def test_junk_never_raises_never_allows(self, validator, junk):
        result = validator.validate(junk)
        assert result.allowed is False

    def test_huge_flat_manifest_handled(self, validator):
        manifest = {"apiVersion": "apps/v1", "kind": "Deployment",
                    "metadata": {"name": "wide", "namespace": "default"},
                    "spec": {f"field{i}": i for i in range(5000)}}
        result = validator.validate(manifest)
        assert not result.allowed
        assert len(result.violations) >= 5000

    def test_empty_body_defers_to_server_validation(self, validator):
        """A bare {kind} carries no disallowed fields, so the policy
        passes it; the API server then rejects it (name required).
        Defense in depth, each layer checking what it owns."""
        bare = {"kind": "Deployment"}
        assert validator.validate(bare).allowed
        cluster = Cluster()
        proxy = KubeFenceProxy(cluster.api, validator)
        response = proxy.submit(
            ApiRequest("create", "Deployment", User.admin(), body=bare)
        )
        assert response.code == 422  # server: metadata.name is required


class TestProxyFailsClosed:
    def test_admission_exception_becomes_api_error(self, validator):
        cluster = Cluster()

        def broken_plugin(request, obj):
            raise ApiError(500, "InternalError", "backend exploded")

        cluster.api.register_admission_plugin(broken_plugin)
        proxy = KubeFenceProxy(cluster.api, validator)
        from repro.helm.chart import render_chart

        deployment = next(m for m in render_chart(get_chart("nginx"))
                          if m["kind"] == "Deployment")
        response = proxy.submit(ApiRequest.from_manifest(deployment, User.admin()))
        assert response.code == 500
        assert not cluster.store.list("Deployment")

    def test_non_dict_body_rejected(self, validator):
        cluster = Cluster()
        proxy = KubeFenceProxy(cluster.api, validator)
        request = ApiRequest("create", "Deployment", User.admin(), body=None)
        response = proxy.submit(request)
        assert response.code == 400


class TestHttpRobustness:
    @pytest.fixture()
    def http_stack(self, validator, leak_checker):
        cluster = Cluster()
        token = leak_checker.begin()
        server = HttpApiServer(cluster.api).start()
        proxy = HttpKubeFenceProxy(server.base_url, validator).start()
        yield cluster, server, proxy
        proxy.stop()
        server.stop()
        leak_checker.end(token)

    def _post(self, url: str, path: str, payload: bytes) -> tuple[int, dict]:
        req = urllib_request.Request(
            url + path, data=payload, method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib_request.urlopen(req) as resp:
                return resp.status, json.loads(resp.read() or b"{}")
        except HTTPError as err:
            return err.code, json.loads(err.read() or b"{}")

    def test_malformed_json_is_400(self, http_stack):
        _, _, proxy = http_stack
        status, body = self._post(
            proxy.base_url, "/apis/apps/v1/namespaces/default/deployments",
            b"{not json",
        )
        assert status == 400
        assert "not valid JSON" in body["message"]

    def test_non_object_body_is_400(self, http_stack):
        _, _, proxy = http_stack
        status, body = self._post(
            proxy.base_url, "/apis/apps/v1/namespaces/default/deployments",
            b'[1, 2, 3]',
        )
        assert status == 400

    def test_malformed_json_to_api_server_is_400(self, http_stack):
        _, server, _ = http_stack
        status, body = self._post(
            server.base_url, "/api/v1/namespaces/default/pods", b"\xff\xfe{{",
        )
        assert status == 400

    def test_proxy_still_serves_after_garbage(self, http_stack):
        cluster, _, proxy = http_stack
        self._post(proxy.base_url, "/api/v1/namespaces/default/pods", b"{bad")
        from repro.k8s.http import HttpClient
        from repro.helm.chart import render_chart

        client = HttpClient(proxy.base_url)
        manifest = next(m for m in render_chart(get_chart("nginx"))
                        if m["kind"] == "Service")
        status, _ = client.apply(manifest)
        assert status == 201


def _raw_exchange(base_url: str, request: bytes) -> tuple[int, dict, bytes]:
    """Send *request* on a fresh socket and read until the server
    closes it: ``(status, Status body, bytes after the first reply)``.
    A server that keeps the connection open fails the recv timeout."""
    import socket
    from urllib.parse import urlsplit

    netloc = urlsplit(base_url)
    with socket.create_connection((netloc.hostname, netloc.port), timeout=3) as sock:
        sock.sendall(request)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, rest = received.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    length = int(headers["Content-Length"])
    assert headers["Connection"] == "close"
    return int(status_line.split()[1]), json.loads(rest[:length]), rest[length:]


_MALICIOUS = json.dumps({
    "apiVersion": "v1", "kind": "Pod",
    "metadata": {"name": "smuggled", "namespace": "default"},
    "spec": {"hostNetwork": True,
             "containers": [{"name": "c", "image": "busybox"}]},
}).encode()

_PODS = b"/api/v1/namespaces/default/pods"
_IDENTITY = b"Host: x\r\nX-Remote-User: eve\r\nContent-Type: application/json\r\n"

#: (case, raw request, expected status).  The chunked case carries a
#: manifest the policy would deny (and the bare API server would
#: admit): neither frontend decodes chunked, so neither may act on it.
_MALFORMED_FRAMING = [
    ("non-integer-length",
     b"POST " + _PODS + b" HTTP/1.1\r\n" + _IDENTITY
     + b"Content-Length: abc\r\n\r\n" + _MALICIOUS, 400),
    ("negative-length",
     b"POST " + _PODS + b" HTTP/1.1\r\n" + _IDENTITY
     + b"Content-Length: -1\r\n\r\n" + _MALICIOUS, 400),
    ("oversize-length",
     b"POST " + _PODS + b" HTTP/1.1\r\n" + _IDENTITY
     + b"Content-Length: 99999999999\r\n\r\n", 413),
    ("chunked-no-length",
     b"POST " + _PODS + b" HTTP/1.1\r\n" + _IDENTITY
     + b"Transfer-Encoding: chunked\r\n\r\n"
     + hex(len(_MALICIOUS))[2:].encode() + b"\r\n" + _MALICIOUS
     + b"\r\n0\r\n\r\n", 411),
    ("write-without-length",
     b"PUT " + _PODS + b"/smuggled HTTP/1.1\r\n" + _IDENTITY + b"\r\n", 411),
    ("write-with-empty-body",
     b"POST " + _PODS + b" HTTP/1.1\r\n" + _IDENTITY
     + b"Content-Length: 0\r\n\r\n", 411),
]


class TestMalformedFramingFailsClosed:
    """Raw-socket regressions for the shared body reader: malformed
    framing is answered locally with ``Connection: close`` -- before
    this, a bad length dropped the connection with a traceback, a
    negative one parked a pool worker, and a chunked write was
    forwarded upstream *unvalidated* with its bytes then parsed as the
    next request on the keep-alive socket."""

    @pytest.fixture()
    def http_stack(self, validator, leak_checker):
        cluster = Cluster()
        token = leak_checker.begin()
        with HttpApiServer(cluster.api) as server:
            with HttpKubeFenceProxy(server.base_url, validator) as proxy:
                yield cluster, server, proxy
        leak_checker.end(token)

    @staticmethod
    def _series_total(snapshot: dict, name: str) -> float:
        return sum(v for series, v in snapshot.items() if series.startswith(name))

    @pytest.mark.parametrize("frontend", ["apiserver", "proxy"])
    @pytest.mark.parametrize(
        "request_bytes,expected", [case[1:] for case in _MALFORMED_FRAMING],
        ids=[case[0] for case in _MALFORMED_FRAMING],
    )
    def test_answered_locally_and_connection_closed(
        self, http_stack, frontend, request_bytes, expected
    ):
        cluster, server, proxy = http_stack
        target = server if frontend == "apiserver" else proxy
        status, body, trailing = _raw_exchange(target.base_url, request_bytes)
        assert status == expected
        assert body["kind"] == "Status" and body["code"] == expected
        # Exactly one reply: the unread bytes were not parsed as a
        # second request on the same connection.
        assert trailing == b""
        assert not cluster.store.list("Pod")  # nothing committed
        # Never reached the decision path or the upstream ...
        assert proxy.stats.requests_total == 0
        assert not proxy.denials
        upstream = cluster.api.metrics.snapshot()
        assert self._series_total(
            upstream, "kubefence_apiserver_requests_total") == 0
        # ... but is on the access counter of whoever answered.
        registry = (
            cluster.api.metrics if frontend == "apiserver"
            else proxy.stats.registry
        )
        method = request_bytes.split(b" ", 1)[0].decode()
        assert registry.snapshot()[
            f'http_requests_total{{method="{method}",code="{expected}"}}'
        ] == 1

    def test_frontends_keep_serving_after_malformed_framing(self, http_stack):
        from repro.helm.chart import render_chart
        from repro.k8s.http import HttpClient

        cluster, server, proxy = http_stack
        for _, request_bytes, _ in _MALFORMED_FRAMING:
            _raw_exchange(proxy.base_url, request_bytes)
        manifest = next(m for m in render_chart(get_chart("nginx"))
                        if m["kind"] == "Service")
        status, _ = HttpClient(proxy.base_url).apply(manifest)
        assert status == 201
