"""End-to-end observability acceptance (PR 2).

Deploy a chart through the real-HTTP KubeFence topology, trigger one
denial, then verify the whole telemetry story:

- ``GET /metrics`` on the proxy returns valid Prometheus text with
  ``kubefence_requests_total``,
  ``kubefence_denials_total{operator,kind,reason}``,
  ``kubefence_validation_latency_ns_bucket`` and the decision-cache
  hit/miss counters -- and the numbers match the observed traffic;
- ``GET /metrics`` on the API server carries the server-side series
  and the ``http_requests_total`` access-log counter;
- ``/healthz``/``/readyz`` answer on both components;
- the ``X-Trace-Id`` forwarded by the proxy correlates the audit log:
  the denied request never reaches the server, while every allowed
  write's audit event carries a ``trace_id`` that matches a recorded
  proxy-side trace with the paper-relevant spans.
"""

from __future__ import annotations

import json
from urllib import request as urllib_request

import pytest

from repro.core.pipeline import generate_policy
from repro.core.proxy import KubeFenceProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import ApiRequest, Cluster, User
from repro.k8s.http import HttpApiServer, HttpClient
from repro.obs import TRACES
from repro.operators import get_chart
from repro.yamlutil import deep_copy, set_path


def _get(url: str) -> tuple[int, dict[str, str], bytes]:
    with urllib_request.urlopen(url) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _parse_exposition(text: str) -> dict[str, float]:
    """Minimal Prometheus text parser: ``{'name{labels}': value}``."""
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        series[name] = float(value)
    return series


@pytest.fixture(scope="module")
def deployed(leak_checker):
    """One deploy + one denial through the HTTP topology."""
    from repro.core.proxy import HttpKubeFenceProxy

    TRACES.clear()
    chart = get_chart("nginx")
    validator = generate_policy(chart)
    manifests = render_chart(chart)
    cluster = Cluster()
    token = leak_checker.begin()
    server = HttpApiServer(cluster.api).start()
    proxy = HttpKubeFenceProxy(server.base_url, validator).start()
    client = HttpClient(proxy.base_url, username=f"{chart.name}-operator")

    statuses = [client.apply(m)[0] for m in manifests]

    # One malicious mutation: hostNetwork is outside the workload's
    # allowed configuration space, so the proxy must 403 it.
    bad = deep_copy(next(m for m in manifests if m["kind"] == "Deployment"))
    set_path(bad, "spec.template.spec.hostNetwork", True)
    denial_status, denial_body = client.apply(bad)

    yield {
        "chart": chart,
        "cluster": cluster,
        "server": server,
        "proxy": proxy,
        "statuses": statuses,
        "denial_status": denial_status,
        "denial_body": denial_body,
        "manifests": manifests,
    }
    proxy.stop()
    server.stop()
    leak_checker.end(token)


class TestEndToEndScrape:
    def test_benign_deploy_succeeds_and_denial_blocked(self, deployed):
        assert all(s < 300 for s in deployed["statuses"]), deployed["statuses"]
        assert deployed["denial_status"] == 403
        body = deployed["denial_body"]
        assert "KubeFence policy for workload 'nginx' denied" in body["message"]
        assert any("hostNetwork" in v for v in body["details"]["violations"])

    def test_proxy_metrics_match_traffic(self, deployed):
        status, headers, body = _get(deployed["proxy"].base_url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        series = _parse_exposition(body.decode())

        stats = deployed["proxy"].stats
        # apply() = GET probe + write per manifest, plus the denial.
        assert series["kubefence_requests_total"] == stats.requests.value
        assert series["kubefence_requests_total"] >= len(deployed["manifests"]) + 1
        assert series["kubefence_requests_validated_total"] == stats.validated.value
        assert series["kubefence_requests_denied_total"] == 1
        denial_series = (
            'kubefence_denials_total{operator="nginx",kind="Deployment",'
            'reason="value-not-allowed"}'
        )
        assert series[denial_series] == 1
        # Decision-cache counters: every distinct body misses once.
        assert series["kubefence_cache_misses_total"] == stats.cache_misses.value
        assert series["kubefence_cache_hits_total"] == stats.cache_hits.value
        # Latency histogram: one miss-sample per validated body.
        miss_count = series['kubefence_validation_latency_ns_count{outcome="miss"}']
        assert miss_count == stats.cache_misses.value
        assert any(
            name.startswith("kubefence_validation_latency_ns_bucket{")
            for name in series
        )
        inf_bucket = (
            'kubefence_validation_latency_ns_bucket{outcome="miss",le="+Inf"}'
        )
        assert series[inf_bucket] == miss_count

    def test_apiserver_metrics_and_access_log_counter(self, deployed):
        status, _headers, body = _get(deployed["server"].base_url + "/metrics")
        assert status == 200
        series = _parse_exposition(body.decode())
        creates = series.get('kubefence_apiserver_requests_total{verb="create",code="201"}', 0)
        assert creates == len(deployed["manifests"])
        assert series["kubefence_audit_events_total"] == len(
            deployed["cluster"].api.audit_log
        )
        # The access log is a counter, not a stderr stream (old
        # log_message black hole).
        posts = series.get('http_requests_total{method="POST",code="201"}', 0)
        assert posts == len(deployed["manifests"])
        assert series["kubefence_apiserver_latency_ns_count"] > 0

    def test_health_endpoints(self, deployed):
        for base in (deployed["proxy"].base_url, deployed["server"].base_url):
            status, _h, body = _get(base + "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            status, _h, body = _get(base + "/readyz")
            assert status == 200
            assert json.loads(body)["failed"] == []

    def test_traces_endpoint_serves_json(self, deployed):
        status, headers, body = _get(deployed["proxy"].base_url + "/obs/traces")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        traces = json.loads(body)
        assert traces, "no traces recorded"
        assert all("trace_id" in t and "spans" in t for t in traces)

    def test_audit_log_correlates_with_proxy_traces(self, deployed):
        """Every allowed write's audit event carries the trace id the
        proxy forwarded in X-Trace-Id; the denied request never reached
        the server, so no audit event records a hostNetwork body."""
        events = deployed["cluster"].api.audit_log.events()
        writes = [e for e in events if e.verb in ("create", "update")]
        assert writes
        recorded = {t.trace_id: t for t in TRACES.traces()}
        for event in writes:
            assert event.trace_id, f"audit event without trace id: {event.request_uri}"
            assert event.trace_id in recorded
            assert event.latency_ns is not None and event.latency_ns > 0
            annotations = event.to_dict()["annotations"]
            assert annotations["kubefence.io/trace-id"] == event.trace_id
        # The proxy-side trace for an allowed write carries the
        # validation spans the paper's overhead analysis names.
        proxy_side = [
            t for t in TRACES.traces()
            if t.name == "proxy.request" and t.trace_id in {e.trace_id for e in writes}
        ]
        assert proxy_side
        span_names = {s.name for t in proxy_side for s in t.spans}
        assert "proxy.validate" in span_names
        assert "proxy.forward" in span_names
        # No denied payload ever reached the store or the audit log.
        assert not any(
            (e.request_object or {}).get("spec", {}).get("template", {})
            .get("spec", {}).get("hostNetwork")
            for e in events
        )


class TestInProcessCorrelation:
    def test_single_trace_spans_proxy_and_apiserver(self):
        """In-process, the API server joins the proxy's trace: one id
        end-to-end, with the full span tree."""
        TRACES.clear()
        chart = get_chart("nginx")
        validator = generate_policy(chart)
        cluster = Cluster()
        proxy = KubeFenceProxy(cluster.api, validator)
        deployment = next(
            m for m in render_chart(chart) if m["kind"] == "Deployment"
        )
        response = proxy.submit(
            ApiRequest.from_manifest(deployment, User.admin(), "create")
        )
        assert response.ok

        assert len(TRACES) == 1
        finished = TRACES.traces()[0]
        event = cluster.api.audit_log.events()[-1]
        assert event.trace_id == finished.trace_id

        def names(spans):
            out = set()
            for s in spans:
                out.add(s.name)
                out.update(names(s.children))
            return out

        seen = names(finished.spans)
        for required in ("proxy.validate", "cache.lookup", "engine.match",
                         "admission.chain", "store.commit"):
            assert required in seen, (required, seen)
