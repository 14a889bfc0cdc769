"""Chaos: deploy a chart through the enforcement stack while a seeded
fault injector mauls the upstream, over real sockets and in-process.

The one invariant (the reason KubeFence can sit in-line at all): no
matter what the injector does -- resets, 5xx bursts, truncated reads,
hangs, total blackout -- a request the policy would deny is *never*
admitted.  Denied (403) or refused (503), but never allowed.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.proxy import HttpKubeFenceProxy
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SCENARIOS,
    hostile_mutations,
    run_scenario,
)
from repro.helm.chart import render_chart
from repro.k8s.apiserver import Cluster
from repro.k8s.http import HttpApiServer, HttpClient
from repro.resilience import ResilienceConfig, RetryPolicy

#: Tight timings so a full chaos pass stays CI-friendly.
TIGHT = ResilienceConfig(
    retry=RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01),
    request_timeout=1.0,
    request_deadline=3.0,
    failure_threshold=5,
    recovery_timeout=0.05,
)

SEED = 1337


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode()


# ---------------------------------------------------------------------------
# In-process scenarios (the `repro chaos` path)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_survives_with_zero_fail_open(name, nginx_chart, nginx_validator):
    report = run_scenario(
        SCENARIOS[name], chart=nginx_chart, validator=nginx_validator,
        seed=SEED, rounds=4,
    )
    assert report.fail_open == 0
    assert report.denied == report.denial_attempts
    assert report.survived


def test_scenarios_are_deterministic(nginx_chart, nginx_validator):
    def run(name):
        r = run_scenario(SCENARIOS[name], chart=nginx_chart,
                         validator=nginx_validator, seed=SEED, rounds=3)
        return (r.requests_total, r.benign_ok, r.benign_refused, r.denied,
                r.fail_open, r.retries, r.breaker_opens, r.injected)

    for name in ("error-burst", "reset-storm", "blackout"):
        assert run(name) == run(name)


def test_blackout_trips_the_breaker_and_refuses_closed(nginx_chart, nginx_validator):
    report = run_scenario(
        SCENARIOS["blackout"], chart=nginx_chart, validator=nginx_validator,
        seed=SEED, rounds=3,
    )
    assert report.benign_ok == 0  # upstream fully dark
    assert report.benign_refused > 0  # refused with 5xx, not admitted
    assert report.breaker_opens >= 1
    assert report.degraded_refused > 0
    assert report.survived


# ---------------------------------------------------------------------------
# Real sockets: client -> HTTP proxy -> faulty HTTP API server
# ---------------------------------------------------------------------------


@pytest.fixture()
def faulty_http_stack(nginx_validator):
    """client -> HttpKubeFenceProxy -> HttpApiServer(faulty upstream)."""
    cluster = Cluster()
    injector = FaultInjector(
        FaultPlan(name="mixed", error_rate=0.2, reset_rate=0.1, partial_rate=0.1),
        seed=SEED,
    )
    with HttpApiServer(cluster.api, fault_injector=injector) as upstream:
        with HttpKubeFenceProxy(
            upstream.base_url, nginx_validator, resilience=TIGHT
        ) as proxy:
            yield cluster, injector, proxy


def test_http_chaos_zero_fail_open(faulty_http_stack, nginx_chart):
    cluster, injector, proxy = faulty_http_stack
    operator = HttpClient(proxy.base_url, username="nginx-operator")
    attacker = HttpClient(proxy.base_url, username="eve", groups=())
    manifests = render_chart(nginx_chart)
    workload = next(m for m in manifests if m["kind"] == "Deployment")

    benign_ok = benign_refused = 0
    for _round in range(4):
        for manifest in manifests:
            status, _ = operator.apply(manifest)
            if 200 <= status < 300:
                benign_ok += 1
            elif status >= 500:
                benign_refused += 1
        for bad in hostile_mutations(workload):
            status, body = attacker.apply(bad)
            # Denied or refused -- never admitted.
            assert status in (403, 503), (status, body)

    assert injector.faults_injected > 0  # chaos actually happened
    assert benign_ok > 0  # retries pulled benign traffic through

    # End-state audit: no hostile marker reached the store.
    from repro.yamlutil import get_path

    for stored in cluster.store.list("Deployment"):
        spec = stored.data if hasattr(stored, "data") else stored
        for path in ("spec.template.spec.hostNetwork",
                     "spec.template.spec.hostPID",
                     "spec.template.spec.hostIPC"):
            assert not get_path(spec, path, None)


def test_http_chaos_metrics_surface_retries(faulty_http_stack, nginx_chart):
    _cluster, injector, proxy = faulty_http_stack
    operator = HttpClient(proxy.base_url, username="nginx-operator")
    for _round in range(6):
        for manifest in render_chart(nginx_chart):
            operator.apply(manifest)

    exposition = fetch(proxy.base_url + "/metrics")
    snapshot = proxy.stats.registry.snapshot()
    if injector.counts["error"] or injector.counts["reset"] or injector.counts["partial"]:
        assert snapshot.get("kubefence_retries_total", 0) > 0
        assert "kubefence_retries_total" in exposition
    assert "kubefence_breaker_state" in exposition


def test_http_blackout_breaker_opens_then_recovers(nginx_validator, nginx_chart):
    """Drive the breaker open against a dead upstream, then restore the
    upstream and watch the half-open probe close it again."""
    import time

    cluster = Cluster()
    injector = FaultInjector(FaultPlan(name="dark", error_rate=1.0), seed=SEED)
    with HttpApiServer(cluster.api, fault_injector=injector) as upstream:
        with HttpKubeFenceProxy(
            upstream.base_url, nginx_validator, resilience=TIGHT
        ) as proxy:
            client = HttpClient(proxy.base_url, username="nginx-operator")
            manifest = next(
                m for m in render_chart(nginx_chart) if m["kind"] == "Service"
            )

            # Blackout: every attempt 503s until the breaker trips.
            refused = 0
            for _ in range(6):
                status, _ = client.apply(manifest)
                if status >= 500:
                    refused += 1
            assert refused > 0
            assert proxy.breaker is not None
            assert proxy.breaker.state == "open"
            snapshot = proxy.stats.registry.snapshot()
            assert snapshot.get("kubefence_breaker_state") == 1.0
            assert snapshot.get(
                'kubefence_degraded_requests_total{mode="refused"}', 0
            ) > 0

            # Heal the upstream, wait out the recovery window, probe.
            injector.plan = FaultPlan(name="healed")
            time.sleep(TIGHT.recovery_timeout * 2)
            status, _ = client.apply(manifest)
            assert 200 <= status < 300
            assert proxy.breaker.state == "closed"
            assert proxy.stats.registry.snapshot().get("kubefence_breaker_state") == 0.0


def test_dead_upstream_refuses_closed_and_still_denies(
    dead_port, nginx_validator, nginx_chart
):
    """Proxy pointed at a port nothing listens on (connection refused
    on every attempt): allowed writes refuse 503, denials still 403.
    ``dead_port`` stays bound-but-not-listening for the whole test, so
    no other process can claim it mid-run."""
    with HttpKubeFenceProxy(
        f"http://127.0.0.1:{dead_port}", nginx_validator, resilience=TIGHT
    ) as proxy:
        operator = HttpClient(proxy.base_url, username="nginx-operator")
        attacker = HttpClient(proxy.base_url, username="eve", groups=())
        manifests = render_chart(nginx_chart)
        workload = next(m for m in manifests if m["kind"] == "Deployment")

        status, body = operator.create(manifests[0])
        assert status == 503, body  # fail-closed, not a hang or a 200
        for bad in hostile_mutations(workload):
            status, _ = attacker.apply(bad)
            assert status in (403, 503)  # local denial unaffected

        snapshot = proxy.stats.registry.snapshot()
        assert snapshot.get(
            'kubefence_degraded_requests_total{mode="refused"}', 0
        ) > 0


def test_http_write_not_replayed_after_transport_error(
    nginx_validator, nginx_chart
):
    """A reset/truncation mid-write leaves it unknown whether the
    upstream already applied the request, so the proxy must NOT
    re-send it (a single client create could be applied twice).
    Reads are idempotent and still retry through transport faults."""
    cluster = Cluster()
    injector = FaultInjector(
        FaultPlan(name="one-reset", fail_first=1, fail_first_kind="reset"),
        seed=SEED,
    )
    with HttpApiServer(cluster.api, fault_injector=injector) as upstream:
        with HttpKubeFenceProxy(
            upstream.base_url, nginx_validator, resilience=TIGHT
        ) as proxy:
            client = HttpClient(proxy.base_url, username="nginx-operator")
            manifest = next(
                m for m in render_chart(nginx_chart) if m["kind"] == "Service"
            )

            # POST hits the scripted reset: exactly one upstream
            # attempt (no transport-level replay), refused closed.
            status, body = client.create(manifest)
            assert status == 503, body
            assert injector.requests_seen == 1
            assert proxy.stats.registry.snapshot().get(
                "kubefence_retries_total", 0
            ) == 0

            # Same fault against a GET: retried through the reset.
            injector.reset()
            status, _ = client.get("Service", manifest["metadata"]["name"])
            assert injector.requests_seen >= 2  # transport retry happened
            assert status == 404  # the POST was never applied upstream
            assert proxy.stats.registry.snapshot().get(
                "kubefence_retries_total", 0
            ) >= 1


def test_http_fail_static_serves_stale_reads(nginx_validator, nginx_chart):
    """fail-static mode: GETs survive a blackout from the stale cache
    (flagged via X-KubeFence-Degraded); writes still refuse closed."""
    static = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.001, max_delay=0.005),
        request_timeout=1.0,
        request_deadline=2.0,
        failure_threshold=2,
        recovery_timeout=60.0,  # stays open for the whole test
        degraded_mode="fail-static",
    )
    cluster = Cluster()
    injector = FaultInjector(FaultPlan(name="healthy"), seed=SEED)
    with HttpApiServer(cluster.api, fault_injector=injector) as upstream:
        with HttpKubeFenceProxy(
            upstream.base_url, nginx_validator, resilience=static
        ) as proxy:
            client = HttpClient(proxy.base_url, username="nginx-operator")
            manifest = next(
                m for m in render_chart(nginx_chart) if m["kind"] == "Service"
            )
            name = manifest["metadata"]["name"]
            status, _ = client.apply(manifest)
            assert 200 <= status < 300
            status, _ = client.get("Service", name)
            assert status == 200  # warm the read cache

            # Lights out.
            injector.plan = FaultPlan(name="dark", error_rate=1.0)

            # Writes refuse closed ...
            for _ in range(4):
                write_status, _ = client.apply(manifest)
            assert write_status == 503

            # ... reads serve stale with the degraded header -- but
            # only for the exact identity that warmed the cache.
            path = f"/api/v1/namespaces/default/services/{name}"
            req = urllib.request.Request(
                proxy.base_url + path,
                headers={"X-Remote-User": "nginx-operator",
                         "X-Remote-Groups": "system:masters"},
            )
            with urllib.request.urlopen(req, timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers.get("X-KubeFence-Degraded", "").startswith(
                    "stale-read"
                )
                body = json.loads(resp.read())
            assert body["metadata"]["name"] == name
            assert proxy.stats.registry.snapshot().get(
                'kubefence_degraded_requests_total{mode="stale-read"}', 0
            ) > 0

            # A different identity must NOT receive the cached 200:
            # the upstream authorizes per user, so serving another
            # user's cached read would convert an RBAC denial into an
            # allow.  Same path, different user/groups -> 503.
            for headers in (
                {"X-Remote-User": "eve", "X-Remote-Groups": "system:masters"},
                {"X-Remote-User": "nginx-operator"},  # groups differ
                {"X-Remote-User": "nginx-operator",
                 "X-Remote-Groups": "system:authenticated"},
            ):
                other = urllib.request.Request(
                    proxy.base_url + path, headers=headers
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(other, timeout=5)
                assert excinfo.value.code == 503
