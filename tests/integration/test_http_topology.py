"""Integration tests for the real-network topology: HTTP client ->
KubeFence HTTP proxy -> HTTP API server (the paper's mitmproxy
deployment, over genuine TCP sockets)."""

import pytest

from repro.core.pipeline import generate_policy
from repro.core.proxy import HttpKubeFenceProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import Cluster
from repro.k8s.http import HttpApiServer, HttpClient
from repro.operators import get_chart
from repro.yamlutil import deep_copy, set_path


@pytest.fixture(scope="module")
def topology(leak_checker):
    chart = get_chart("nginx")
    validator = generate_policy(chart)
    cluster = Cluster()
    token = leak_checker.begin()
    server = HttpApiServer(cluster.api).start()
    proxy = HttpKubeFenceProxy(server.base_url, validator).start()
    yield chart, cluster, server, proxy
    proxy.stop()
    server.stop()
    leak_checker.end(token)


class TestHttpMediation:
    def test_benign_deploy_through_proxy(self, topology):
        chart, cluster, server, proxy = topology
        client = HttpClient(proxy.base_url, username="nginx-operator")
        for manifest in render_chart(chart, release_name="net"):
            status, body = client.apply(manifest)
            assert status in (200, 201), body
        assert cluster.store.exists("Deployment", "default", "net-nginx")

    def test_malicious_request_denied_with_403(self, topology):
        chart, cluster, server, proxy = topology
        client = HttpClient(proxy.base_url, username="eve")
        bad = deep_copy(
            next(m for m in render_chart(chart, release_name="evil") if m["kind"] == "Deployment")
        )
        set_path(bad, "spec.template.spec.hostNetwork", True)
        status, body = client.apply(bad)
        assert status == 403
        assert "KubeFence" in body["message"]
        assert not cluster.store.exists("Deployment", "default", "evil-nginx")
        assert proxy.denials

    def test_reads_proxied_transparently(self, topology):
        chart, cluster, server, proxy = topology
        client = HttpClient(proxy.base_url)
        status, body = client.get("Deployment", "net-nginx")
        assert status == 200
        assert body["metadata"]["name"] == "net-nginx"

    def test_direct_server_access_bypasses_policy(self, topology):
        """Demonstrates *why* complete mediation matters: hitting the
        API server directly (firewalling not simulated) admits the
        malicious spec -- the deployment topology must route all
        clients through the proxy."""
        chart, cluster, server, proxy = topology
        client = HttpClient(server.base_url, username="eve")
        bad = deep_copy(
            next(m for m in render_chart(chart, release_name="sneak") if m["kind"] == "Deployment")
        )
        set_path(bad, "spec.template.spec.hostPID", True)
        status, _ = client.apply(bad)
        assert status in (200, 201)
        cluster.store.delete("Deployment", "default", "sneak-nginx")


class TestKeepAliveAndCache:
    """HTTP/1.1 keep-alive forwarding and the proxy decision cache."""

    def _post(self, conn, method, path, manifest):
        import http.client  # noqa: F401  (documents the client type)
        import json

        conn.request(
            method,
            path,
            body=json.dumps(manifest).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Remote-User": "nginx-operator",
                "X-Remote-Groups": "system:masters",
            },
        )
        response = conn.getresponse()
        payload = response.read()  # drain so the connection can be reused
        return response.status, payload

    def test_keepalive_client_reuses_upstream_connection(self, topology):
        """One client TCP connection is served by one proxy thread whose
        pooled upstream connection is opened once and then reused."""
        import http.client
        from urllib.parse import urlsplit

        chart, cluster, server, proxy = topology
        opened_before = proxy.stats.connections_opened.value
        reused_before = proxy.stats.connections_reused.value

        manifest = next(
            m
            for m in render_chart(chart, release_name="keep")
            if m["kind"] == "Deployment"
        )
        netloc = urlsplit(proxy.base_url)
        conn = http.client.HTTPConnection(netloc.hostname, netloc.port)
        try:
            collection = "/apis/apps/v1/namespaces/default/deployments"
            status, _ = self._post(conn, "POST", collection, manifest)
            assert status in (200, 201)
            for _ in range(3):
                status, _ = self._post(
                    conn, "PUT", f"{collection}/{manifest['metadata']['name']}", manifest
                )
                assert status == 200
        finally:
            conn.close()

        assert proxy.stats.connections_opened.value == opened_before + 1
        assert proxy.stats.connections_reused.value >= reused_before + 3

    def test_http_proxy_decision_cache_hits(self, topology):
        """Identical bodies resubmitted over HTTP are decided from the
        proxy's cache; the latency percentiles are populated."""
        chart, cluster, server, proxy = topology
        hits_before = proxy.stats.cache_hits.value
        client = HttpClient(proxy.base_url, username="nginx-operator")
        manifest = next(
            m
            for m in render_chart(chart, release_name="cached")
            if m["kind"] == "Service"
        )
        for _ in range(3):
            status, _ = client.apply(manifest)
            assert status in (200, 201)
        assert proxy.stats.cache_hits.value >= hits_before + 2
        assert proxy.stats.latency_miss.quantile(0.99) >= proxy.stats.latency_miss.quantile(0.5) > 0


# -- transport parity ------------------------------------------------------
#
# One decision path, two transports: the same scripted traffic through
# KubeFenceProxy (in-process) and HttpKubeFenceProxy (real sockets) must
# produce the same answers, audit trail, counters and decision events.

_NS = "/api/v1/namespaces/default/services"
_DEPLOYMENTS = "/apis/apps/v1/namespaces/default/deployments"


def _parity_config():
    from repro.resilience import ResilienceConfig, RetryPolicy

    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                          jitter="none"),
        request_timeout=2.0,
        request_deadline=4.0,
        failure_threshold=2,
        recovery_timeout=60.0,  # once open, stays open for the test
        degraded_mode="fail-static",
    )


class _InProcessArm:
    """KubeFenceProxy over a FaultyAPIServer."""

    def __init__(self, validator, stack, plan):
        from repro.core.proxy import KubeFenceProxy
        from repro.faults import FaultInjector, FaultyAPIServer
        from repro.obs.analytics.events import EventBus

        self.cluster = Cluster()
        self.injector = FaultInjector(plan, seed=7)
        self.bus = EventBus()
        self.proxy = KubeFenceProxy(
            FaultyAPIServer(self.cluster.api, self.injector), validator,
            resilience=_parity_config(), event_bus=self.bus,
        )

    def send(self, method, path, user, groups, manifest=None):
        from repro.k8s.apiserver import ApiRequest, User
        from repro.k8s.gvk import registry
        from repro.k8s.http import parse_rest_path, rest_verb

        kind, namespace, name = parse_rest_path(path, registry)
        response = self.proxy.submit(ApiRequest(
            verb=rest_verb(method, name), kind=kind, user=User(user, groups),
            namespace=namespace or "default", name=name, body=manifest,
        ))
        return response.code, response.body


class _HttpArm:
    """HttpKubeFenceProxy in front of an HttpApiServer."""

    def __init__(self, validator, stack, plan):
        from repro.faults import FaultInjector
        from repro.obs.analytics.events import EventBus

        self.cluster = Cluster()
        self.injector = FaultInjector(plan, seed=7)
        self.bus = EventBus()
        self.server = stack.enter_context(
            HttpApiServer(self.cluster.api, fault_injector=self.injector)
        )
        self.proxy = stack.enter_context(HttpKubeFenceProxy(
            self.server.base_url, validator,
            resilience=_parity_config(), event_bus=self.bus,
        ))

    def send(self, method, path, user, groups, manifest=None):
        import http.client
        import json
        from urllib.parse import urlsplit

        netloc = urlsplit(self.proxy.base_url)
        conn = http.client.HTTPConnection(netloc.hostname, netloc.port, timeout=10)
        try:
            conn.request(
                method, path,
                body=json.dumps(manifest).encode() if manifest is not None else None,
                headers={"Content-Type": "application/json",
                         "X-Remote-User": user,
                         "X-Remote-Groups": ",".join(groups)},
            )
            reply = conn.getresponse()
            return reply.status, json.loads(reply.read() or b"{}")
        finally:
            conn.close()


def _comparable_counters(snapshot):
    """Every ``kubefence_*`` series that counts something.  Left out:
    series whose value is a duration (latency sums and buckets, phase
    and wall nanoseconds), the upstream connection pool (it exists
    over HTTP only) and the SLO gauges (the HTTP proxy owns an
    SloEngine by default, the in-process proxy none)."""
    import re

    timed = re.compile(r"_ns_(sum|bucket|total)\b")
    return {
        series: value for series, value in snapshot.items()
        if series.startswith("kubefence_")
        and not timed.search(series)
        and not series.startswith(("kubefence_connections_", "kubefence_slo_"))
    }


def _comparable_event(event):
    detail = {k: v for k, v in event.detail.items() if k != "path"}
    return (event.user, event.verb, event.resource, event.name,
            event.namespace, event.outcome, event.code, detail)


def _parity_script(arm, chart):
    """Allowed create (its first upstream attempt is answered 503, the
    retry succeeds), repeat (cache hit), malicious create, get, then an
    upstream blackout: passed-through 503, refused write, same-identity
    stale read, other-identity refusal.  Returns the status codes in
    order and the reply bodies by step."""
    from repro.faults import FaultPlan

    operator = ("nginx-operator", ("system:masters",))
    manifests = render_chart(chart, release_name="parity")
    service = next(m for m in manifests if m["kind"] == "Service")
    name = service["metadata"]["name"]
    bad = deep_copy(next(m for m in manifests if m["kind"] == "Deployment"))
    set_path(bad, "spec.template.spec.hostNetwork", True)

    codes = []
    bodies = {}

    def step(label, *args, **kwargs):
        status, body = arm.send(*args, **kwargs)
        codes.append((label, status))
        bodies[label] = body

    step("create", "POST", _NS, *operator, manifest=service)
    step("repeat", "PUT", f"{_NS}/{name}", *operator, manifest=service)
    step("malicious", "POST", _DEPLOYMENTS, "eve", (), manifest=bad)
    step("get", "GET", f"{_NS}/{name}", *operator)
    # Lights out.  The first write exhausts its retries on the
    # upstream's own 503 (passed through) and trips the breaker.
    arm.injector.plan = FaultPlan(name="dark", error_rate=1.0)
    step("dark-write", "PUT", f"{_NS}/{name}", *operator, manifest=service)
    step("refused-write", "PUT", f"{_NS}/{name}", *operator, manifest=service)
    step("stale-get", "GET", f"{_NS}/{name}", *operator)
    step("other-identity-get", "GET", f"{_NS}/{name}", "eve", ("system:masters",))
    return codes, bodies


class TestTransportParity:
    def test_same_script_same_decisions_on_both_transports(self):
        from contextlib import ExitStack

        from repro.faults import FaultPlan
        from repro.obs import delta

        chart = get_chart("nginx")
        validator = generate_policy(chart)
        observed = {}
        with ExitStack() as stack:
            for arm_type in (_InProcessArm, _HttpArm):
                # A failure *result* is retried for every verb on both
                # transports: the create's first attempt gets a 503.
                arm = arm_type(
                    validator, stack, FaultPlan(name="hiccup", fail_first=1)
                )
                before = arm.proxy.stats.registry.snapshot()
                codes, bodies = _parity_script(arm, chart)
                observed[arm_type] = {
                    "codes": codes,
                    "bodies": bodies,
                    "denials": list(arm.proxy.denials),
                    "counters": _comparable_counters(
                        delta(before, arm.proxy.stats.registry.snapshot())
                    ),
                    "events": [
                        _comparable_event(e) for e in arm.bus.events(kind="decision")
                    ],
                    "stored": sorted(
                        (o.kind, o.name) for o in arm.cluster.store.list("Service")
                    ),
                }
        inproc, http = observed[_InProcessArm], observed[_HttpArm]
        assert [code for _, code in inproc["codes"]] == [
            201, 200, 403, 200, 503, 503, 200, 503,
        ]
        assert http["codes"] == inproc["codes"]
        assert http["denials"] == inproc["denials"]
        assert http["stored"] == inproc["stored"]
        # Paper Sec. V-B: the 403 names the offending fields, on the
        # wire too, in the same words.
        denial = http["bodies"]["malicious"]
        assert denial == inproc["bodies"]["malicious"]
        assert denial["details"]["violations"] == list(
            http["denials"][0].violations
        )
        assert any("hostNetwork" in v for v in denial["details"]["violations"])
        assert http["counters"] == inproc["counters"]
        assert http["counters"]["kubefence_retries_total"] == 2
        assert http["counters"][
            'kubefence_degraded_requests_total{mode="stale-read"}'] == 1
        assert http["events"] == inproc["events"]
        assert [e[5] for e in http["events"]] == [
            "allow", "allow", "deny", "allow",
            "error", "degraded", "degraded", "degraded",
        ]

    def test_transport_error_replays_a_post_in_process_but_not_over_http(self):
        """The one intended difference.  The in-process chaos wrapper
        raises *instead of* handling, so replaying is safe for every
        verb; after a reset on a real wire it is unknown whether the
        upstream applied the POST, so the HTTP transport never replays
        it -- it refuses closed."""
        from contextlib import ExitStack

        from repro.faults import FaultPlan

        chart = get_chart("nginx")
        validator = generate_policy(chart)
        service = next(
            m for m in render_chart(chart, release_name="replay")
            if m["kind"] == "Service"
        )
        outcome = {}
        with ExitStack() as stack:
            for arm_type in (_InProcessArm, _HttpArm):
                arm = arm_type(validator, stack, FaultPlan(
                    name="one-reset", fail_first=1, fail_first_kind="reset"
                ))
                status, _ = arm.send(
                    "POST", _NS, "nginx-operator", ("system:masters",),
                    manifest=service,
                )
                outcome[arm_type] = (
                    status,
                    arm.proxy.stats.retries.value,
                    arm.cluster.store.exists(
                        "Service", "default", service["metadata"]["name"]
                    ),
                )
        assert outcome[_InProcessArm] == (201, 1, True)
        assert outcome[_HttpArm] == (503, 0, False)
