"""Integration tests for the continuous-profiling surfaces over the
real-network topology (PR 10 acceptance criteria).

Drives load through HTTP client -> KubeFence HTTP proxy -> HTTP API
server with the sampler running, then asserts:

- ``/obs/profile`` on *both* components returns non-empty collapsed
  stacks;
- at least one OpenMetrics exemplar joins a
  ``kubefence_validation_latency_ns`` bucket to a trace retrievable via
  ``/obs/traces?trace_id=``;
- the ``kubefence_phase_ns_total`` phase shares sum to >=90% of the
  handler-measured wall time on both components;
- HEAD works on ``/metrics`` and ``/obs/*`` (correct Content-Length, no
  body) and the ``repro top`` CLI renders the live ring.

Load runs over a single keep-alive connection on purpose: every fresh
client connection is pinned to one proxy pool worker, and each proxy
worker holds its own keep-alive upstream connection that occupies one
API-server pool worker for its lifetime.  Spraying short-lived client
connections (as ``HttpClient`` does) across N proxy workers therefore
pins N server workers; one keep-alive client connection pins exactly
one of each, leaving the server pool free for the scrape requests this
test makes directly.
"""

import http.client
import json
import re
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.core.pipeline import generate_policy
from repro.core.proxy import HttpKubeFenceProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import Cluster
from repro.k8s.http import HttpApiServer, HttpClient
from repro.obs.profile import PHASES, PROFILER, phase_totals
from repro.operators import get_chart


class KeepAliveClient(HttpClient):
    """`HttpClient` path/identity logic over one persistent connection
    (see the module docstring for why the tests need exactly one)."""

    def __init__(self, base_url: str, **kwargs):
        super().__init__(base_url, **kwargs)
        parts = urlsplit(base_url)
        self._conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=30
        )

    def _request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        self._conn.request(
            method, path, body=data,
            headers={
                "Content-Type": "application/json",
                "X-Remote-User": self.username,
                "X-Remote-Groups": ",".join(self.groups),
            },
        )
        response = self._conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def close(self):
        self._conn.close()


def _get(base_url: str, path: str, method: str = "GET"):
    """One short-lived request; returns (status, headers, body bytes)."""
    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def profiled_stack(leak_checker):
    """Server + proxy with the sampler at 100 Hz and a fast ring tick,
    warmed by 30 validated releases over one keep-alive connection.

    100 Hz (not higher): each sweep walks every thread's frame stack
    under the GIL, and this stack runs ~70 threads on whatever CPU the
    suite gets.  The bench gate covers high-rate overhead; here the
    sampler only needs enough sweeps to populate ``/obs/profile``.
    """
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_PROFILE_HZ", "100")
    mp.setenv("REPRO_TS_INTERVAL", "0.1")
    PROFILER.reset()
    chart = get_chart("nginx")
    validator = generate_policy(chart)
    cluster = Cluster()
    token = leak_checker.begin()
    server = HttpApiServer(cluster.api).start()
    proxy = HttpKubeFenceProxy(server.base_url, validator).start()
    client = KeepAliveClient(proxy.base_url, username="nginx-operator")
    for i in range(30):
        for manifest in render_chart(chart, release_name=f"prof{i}"):
            status, body = client.apply(manifest)
            assert status in (200, 201), body
    time.sleep(0.25)  # let the sampler and ring tick over the load
    yield cluster, server, proxy
    client.close()
    proxy.stop()
    server.stop()
    leak_checker.end(token)
    mp.undo()


class TestDisabledRegression:
    """Runs before any ``profiled_stack`` test on purpose: the sampler
    is process-global, so asserting its absence only works while no
    other component in the process has acquired it."""

    def test_hz_zero_serves_without_sampler_thread(self, leak_checker,
                                                   monkeypatch):
        """`REPRO_PROFILE_HZ=0` keeps the full HTTP surface up -- just
        no profiler thread and a 0-sample profile payload."""
        monkeypatch.setenv("REPRO_PROFILE_HZ", "0")
        chart = get_chart("nginx")
        validator = generate_policy(chart)
        cluster = Cluster()
        token = leak_checker.begin()
        server = HttpApiServer(cluster.api).start()
        proxy = HttpKubeFenceProxy(server.base_url, validator).start()
        try:
            assert not any(
                t.name == "repro-profiler" for t in threading.enumerate()
            )
            client = KeepAliveClient(proxy.base_url, username="nginx-operator")
            for manifest in render_chart(chart, release_name="cold"):
                status, body = client.apply(manifest)
                assert status in (200, 201), body
            client.close()
            status, _, body = _get(proxy.base_url, "/obs/profile")
            assert status == 200
            assert json.loads(body)["running"] is False
        finally:
            proxy.stop()
            server.stop()
        leak_checker.end(token)


class TestProfileEndpoint:
    def test_collapsed_stacks_on_both_components(self, profiled_stack):
        _, server, proxy = profiled_stack
        for base in (proxy.base_url, server.base_url):
            status, headers, body = _get(base, "/obs/profile?format=collapsed")
            assert status == 200, base
            lines = body.decode().strip().splitlines()
            assert lines, f"{base} returned an empty profile"
            assert all(re.fullmatch(r".+;.+ \d+", l) for l in lines[:5])
            status, _, body = _get(base, "/obs/profile")
            payload = json.loads(body)
            assert payload["samples"] > 0
            assert payload["functions"]

    def test_sampler_thread_runs_while_serving(self, profiled_stack):
        assert any(
            t.name == "repro-profiler" for t in threading.enumerate()
        )
        assert PROFILER.running


class TestExemplarJoin:
    def test_slow_bucket_exemplar_resolves_to_live_trace(self, profiled_stack):
        _, _, proxy = profiled_stack
        status, headers, body = _get(
            proxy.base_url, "/metrics?format=openmetrics"
        )
        assert status == 200
        om = body.decode()
        assert om.endswith("# EOF\n")
        assert headers["Content-Type"].startswith("application/openmetrics-text")
        exemplar_lines = [
            l for l in om.splitlines()
            if l.startswith("kubefence_validation_latency_ns_bucket")
            and " # {" in l
        ]
        assert exemplar_lines, "no exemplar on any latency bucket"
        trace_id = re.search(r'trace_id="([0-9a-f]+)"', exemplar_lines[0]).group(1)
        status, _, body = _get(
            proxy.base_url, f"/obs/traces?trace_id={trace_id}"
        )
        assert status == 200
        traces = json.loads(body)
        assert traces and traces[0]["trace_id"] == trace_id

    def test_classic_scrape_has_no_openmetrics_artifacts(self, profiled_stack):
        _, _, proxy = profiled_stack
        status, headers, body = _get(proxy.base_url, "/metrics")
        assert status == 200
        text = body.decode()
        assert headers["Content-Type"].startswith("text/plain")
        assert "# EOF" not in text
        assert "trace_id" not in text


class TestPhaseAttribution:
    def test_coverage_at_least_90_percent_on_both_components(
        self, profiled_stack
    ):
        """Phase shares sum to >=90% of wall **for validated writes**.

        Measured over a delta window of fresh releases driven right
        here, not over the module's cumulative counters: earlier test
        classes scrape ``/metrics``/``/obs/*`` concurrently, and any
        GIL hand-off that lands in the few unstamped glue instructions
        charges a full scheduler quantum to wall but to no phase.  A
        quiet window measures the attribution machinery, not the
        test-ordering luck of the draw.
        """
        cluster, _, proxy = profiled_stack
        registries = {
            "proxy": proxy.stats.registry,
            "apiserver": cluster.api.metrics,
        }
        before = {name: phase_totals(reg) for name, reg in registries.items()}
        chart = get_chart("nginx")
        client = KeepAliveClient(proxy.base_url, username="nginx-operator")
        try:
            for i in range(10):
                for manifest in render_chart(chart, release_name=f"cov{i}"):
                    status, body = client.apply(manifest)
                    assert status in (200, 201), body
        finally:
            client.close()
        # cache-probe/validation are proxy phases: the API server never
        # consults a decision cache or walks the policy engine.
        expected_phases = {
            "proxy": set(PHASES),
            "apiserver": {"authn", "upstream", "telemetry", "serialization"},
        }
        for name, registry in registries.items():
            totals = {
                key: value - before[name][key]
                for key, value in phase_totals(registry).items()
            }
            wall = totals.pop("wall")
            assert wall > 0, name
            coverage = sum(totals.values()) / wall
            assert coverage >= 0.90, (
                f"{name} phase coverage {100 * coverage:.1f}% < 90%: {totals}"
            )
            # Every phase the component owns saw real time.
            assert all(
                totals[phase] > 0 for phase in expected_phases[name]
            ), (name, totals)

    def test_phase_counters_scrapeable(self, profiled_stack):
        _, _, proxy = profiled_stack
        _, _, body = _get(proxy.base_url, "/metrics")
        assert 'kubefence_phase_ns_total{phase="validation"}' in body.decode()


class TestHeadRequests:
    @pytest.mark.parametrize(
        "path", ["/metrics", "/obs/profile", "/obs/timeseries", "/healthz"]
    )
    def test_head_sets_length_omits_body(self, profiled_stack, path):
        _, _, proxy = profiled_stack
        head_status, head_headers, head_body = _get(
            proxy.base_url, path, method="HEAD"
        )
        get_status, _, get_body = _get(proxy.base_url, path)
        assert head_status == get_status == 200
        assert head_body == b""
        # Content-Length advertises the GET body the HEAD suppressed.
        # (Dynamic payloads shift between requests, so compare loosely.)
        assert int(head_headers["Content-Length"]) > 0

    def test_head_on_rest_path_is_405(self, profiled_stack):
        _, _, proxy = profiled_stack
        status, headers, body = _get(
            proxy.base_url,
            "/api/v1/namespaces/default/configmaps/prof0-nginx-config",
            method="HEAD",
        )
        assert status == 405
        assert "GET" in headers["Allow"]
        assert body == b""


class TestTimeseriesAndTop:
    def test_ring_accumulates_and_filters(self, profiled_stack):
        _, server, proxy = profiled_stack
        for base in (proxy.base_url, server.base_url):
            status, _, body = _get(base, "/obs/timeseries")
            payload = json.loads(body)
            assert status == 200
            assert payload["running"] is True
            assert payload["points"], base
            status, _, body = _get(base, "/obs/timeseries?series=phase&limit=3")
            filtered = json.loads(body)
            assert len(filtered["points"]) <= 3
            assert all(
                "phase" in key
                for point in filtered["points"]
                for key in point["values"]
            )

    def test_top_cli_renders_dashboard(self, profiled_stack, capsys):
        from repro.cli import main

        _, _, proxy = profiled_stack
        assert main(
            ["top", proxy.base_url, "--iterations", "1", "--interval", "0"]
        ) == 0
        frame = capsys.readouterr().out
        assert "repro top" in frame
        assert "requests" in frame

    def test_top_cli_json_mode(self, profiled_stack, capsys):
        from repro.cli import main

        _, _, proxy = profiled_stack
        assert main(
            ["top", proxy.base_url, "--iterations", "1", "--interval", "0",
             "--json"]
        ) == 0
        point = json.loads(capsys.readouterr().out)
        assert "ts" in point and "values" in point

    def test_top_cli_unreachable_url_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(
            ["top", "http://127.0.0.1:9", "--iterations", "1"]
        ) == 1
        assert "top:" in capsys.readouterr().err
