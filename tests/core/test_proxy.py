"""Unit tests for the enforcement proxy (complete mediation)."""

from repro.core.pipeline import generate_policy
from repro.core.proxy import KubeFenceProxy, MultiPolicyProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import ApiRequest, Cluster, User
from repro.operators import get_chart
from repro.operators.client import OperatorClient
from repro.yamlutil import deep_copy, set_path


def _setup():
    chart = get_chart("nginx")
    validator = generate_policy(chart)
    cluster = Cluster()
    proxy = KubeFenceProxy(cluster.api, validator)
    return chart, cluster, proxy


class TestMediation:
    def test_benign_deployment_forwarded(self):
        chart, cluster, proxy = _setup()
        client = OperatorClient(proxy)
        result = client.deploy_chart(chart)
        assert result.all_ok
        assert cluster.store.list("Deployment")
        assert proxy.stats.requests_denied == 0
        assert proxy.stats.requests_validated == len(result.responses)

    def test_malicious_write_denied_before_api_server(self):
        chart, cluster, proxy = _setup()
        manifests = render_chart(chart)
        bad = deep_copy(next(m for m in manifests if m["kind"] == "Deployment"))
        set_path(bad, "spec.template.spec.hostNetwork", True)
        response = proxy.submit(ApiRequest.from_manifest(bad, User("eve")))
        assert response.code == 403
        assert "KubeFence" in response.body["message"]
        # Complete mediation: the object never reached the store.
        assert not cluster.store.list("Deployment")

    def test_denial_logged_with_details(self):
        chart, cluster, proxy = _setup()
        bad = deep_copy(next(m for m in render_chart(chart) if m["kind"] == "Service"))
        set_path(bad, "spec.externalIPs", ["203.0.113.9"])
        proxy.submit(ApiRequest.from_manifest(bad, User("eve")))
        assert len(proxy.denials) == 1
        record = proxy.denials[0]
        assert record.kind == "Service"
        assert record.username == "eve"
        assert any("externalIPs" in v for v in record.violations)

    def test_reads_pass_through_unvalidated(self):
        chart, cluster, proxy = _setup()
        OperatorClient(proxy).deploy_chart(chart)
        validated_before = proxy.stats.requests_validated
        response = proxy.submit(ApiRequest("list", "Deployment", User("eve")))
        assert response.ok
        assert proxy.stats.requests_validated == validated_before

    def test_updates_validated(self):
        chart, cluster, proxy = _setup()
        client = OperatorClient(proxy)
        client.deploy_chart(chart)
        bad = deep_copy(
            next(m for m in render_chart(chart) if m["kind"] == "Deployment")
        )
        set_path(bad, "spec.template.spec.containers[0].securityContext.privileged", True)
        response = client.submit_manifest("nginx", bad, verb="update")
        assert response.code == 403

    def test_unknown_kind_denied_by_policy_not_server(self):
        chart, cluster, proxy = _setup()
        cronjob = {
            "apiVersion": "batch/v1",
            "kind": "CronJob",
            "metadata": {"name": "evil", "namespace": "default"},
            "spec": {"schedule": "* * * * *"},
        }
        response = proxy.submit(ApiRequest.from_manifest(cronjob, User("eve")))
        assert response.code == 403
        assert "not used by this workload" in response.body["message"]

    def test_stats_accumulate(self):
        chart, cluster, proxy = _setup()
        OperatorClient(proxy).deploy_chart(chart)
        assert proxy.stats.requests_total == proxy.stats.requests_validated
        assert proxy.stats.validation_seconds > 0


class TestProxyDecisionCache:
    """The proxy-level decision cache (satellite of the compiled
    engine): identical bodies are decided once per policy revision."""

    def _deployment(self, chart):
        return next(m for m in render_chart(chart) if m["kind"] == "Deployment")

    def test_identical_body_hits_cache(self):
        chart, cluster, proxy = _setup()
        deployment = self._deployment(chart)
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "create"))
        assert (proxy.stats.cache_misses, proxy.stats.cache_hits) == (1, 0)
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "update"))
        assert (proxy.stats.cache_misses, proxy.stats.cache_hits) == (1, 1)
        assert proxy.stats.cache_hit_rate == 0.5

    def test_cached_denial_still_denied_and_logged(self):
        chart, cluster, proxy = _setup()
        bad = deep_copy(self._deployment(chart))
        set_path(bad, "spec.template.spec.hostNetwork", True)
        first = proxy.submit(ApiRequest.from_manifest(bad, User("eve")))
        second = proxy.submit(ApiRequest.from_manifest(bad, User("eve")))
        assert first.code == second.code == 403
        assert proxy.stats.cache_hits == 1
        # The audit trail records every denied request, cached or not.
        assert len(proxy.denials) == 2

    def test_install_validator_drops_cached_decisions(self):
        chart, cluster, proxy = _setup()
        deployment = self._deployment(chart)
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "create"))
        replacement = generate_policy(chart)
        proxy.install_validator(replacement)
        assert proxy.validator is replacement
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "update"))
        assert (proxy.stats.cache_misses, proxy.stats.cache_hits) == (2, 0)

    def test_policy_revision_bump_invalidates(self):
        chart, cluster, proxy = _setup()
        deployment = self._deployment(chart)
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "create"))
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "update"))
        assert proxy.stats.cache_hits == 1
        proxy.validator.invalidate_compiled()  # in-place policy edit
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "update"))
        assert (proxy.stats.cache_misses, proxy.stats.cache_hits) == (2, 1)

    def test_uncacheable_body_validated_every_time(self):
        chart, cluster, proxy = _setup()
        weird = {
            "kind": "Deployment",
            "apiVersion": "apps/v1",
            "metadata": {"name": "weird"},
            "spec": object(),  # not JSON-serializable -> no cache key
        }
        for _ in range(2):
            proxy.submit(ApiRequest.from_manifest(weird, User.admin(), "create"))
        assert proxy.stats.requests_validated == 2
        assert (proxy.stats.cache_misses, proxy.stats.cache_hits) == (0, 0)

    def test_cache_disabled(self):
        chart = get_chart("nginx")
        proxy = KubeFenceProxy(Cluster().api, generate_policy(chart), cache_size=0)
        deployment = self._deployment(chart)
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "create"))
        proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "update"))
        assert (proxy.stats.cache_misses, proxy.stats.cache_hits) == (0, 0)
        assert proxy.stats.requests_validated == 2

    def test_validation_latency_percentiles_recorded(self):
        chart, cluster, proxy = _setup()
        OperatorClient(proxy).deploy_chart(chart)
        assert proxy.stats.validation_ns_p50 > 0
        assert proxy.stats.validation_ns_p99 >= proxy.stats.validation_ns_p50


class TestFailStaticDegradation:
    """In-process fail-static (previously silently ignored by
    KubeFenceProxy): during an outage, stale reads are served -- but
    only to the exact identity that originally fetched them, because
    the upstream authorizes reads per user."""

    @staticmethod
    def _static_stack():
        from repro.faults import FaultInjector, FaultPlan, FaultyAPIServer
        from repro.resilience import ResilienceConfig, RetryPolicy

        chart = get_chart("nginx")
        cluster = Cluster()
        injector = FaultInjector(FaultPlan(name="healthy"), seed=7)
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                              jitter="none"),
            request_deadline=2.0,
            failure_threshold=2,
            recovery_timeout=60.0,  # breaker stays open for the test
            degraded_mode="fail-static",
        )
        proxy = KubeFenceProxy(
            FaultyAPIServer(cluster.api, injector),
            generate_policy(chart),
            resilience=config,
        )
        return chart, cluster, injector, proxy

    def test_stale_read_served_to_same_identity_only(self):
        from repro.faults import FaultPlan

        chart, cluster, injector, proxy = self._static_stack()
        operator = User("nginx-operator")
        manifest = next(m for m in render_chart(chart) if m["kind"] == "Service")
        name = manifest["metadata"]["name"]
        assert proxy.submit(ApiRequest.from_manifest(manifest, operator)).ok
        read = ApiRequest("get", "Service", operator, name=name)
        assert proxy.submit(read).code == 200  # warm the stale cache

        # Lights out: every upstream call 503s until the breaker trips.
        injector.plan = FaultPlan(name="dark", error_rate=1.0)
        update = ApiRequest.from_manifest(manifest, operator, "update")
        assert proxy.submit(update).code == 503  # trips the breaker
        assert proxy.breaker is not None and proxy.breaker.state == "open"

        # Writes keep refusing closed ...
        assert proxy.submit(update).code == 503
        # ... the same identity gets its stale read back ...
        stale = proxy.submit(read)
        assert stale.code == 200
        assert stale.body["metadata"]["name"] == name
        # ... but a different identity is refused, never served another
        # user's cached 200 (an upstream RBAC denial must not become an
        # allow during an outage).
        for other_user in (
            User("eve"),
            User("nginx-operator", ("system:masters",)),  # groups differ
        ):
            other = proxy.submit(
                ApiRequest("get", "Service", other_user, name=name)
            )
            assert other.code == 503, other_user

    def test_stale_payload_is_isolated_from_caller_mutation(self):
        from repro.faults import FaultPlan

        chart, cluster, injector, proxy = self._static_stack()
        operator = User("nginx-operator")
        manifest = next(m for m in render_chart(chart) if m["kind"] == "Service")
        name = manifest["metadata"]["name"]
        proxy.submit(ApiRequest.from_manifest(manifest, operator))
        read = ApiRequest("get", "Service", operator, name=name)
        warm = proxy.submit(read)
        warm.body["metadata"]["name"] = "tampered"  # caller-side mutation

        injector.plan = FaultPlan(name="dark", error_rate=1.0)
        proxy.submit(ApiRequest.from_manifest(manifest, operator, "update"))
        stale = proxy.submit(read)
        assert stale.code == 200
        assert stale.body["metadata"]["name"] == name  # copy, not alias
        stale.body["metadata"]["name"] = "tampered-again"
        assert proxy.submit(read).body["metadata"]["name"] == name

    def test_fail_closed_mode_never_serves_stale(self):
        from repro.faults import FaultInjector, FaultPlan, FaultyAPIServer
        from repro.resilience import ResilienceConfig, RetryPolicy

        chart = get_chart("nginx")
        injector = FaultInjector(FaultPlan(name="healthy"), seed=7)
        proxy = KubeFenceProxy(
            FaultyAPIServer(Cluster().api, injector),
            generate_policy(chart),
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0,
                                  max_delay=0.0, jitter="none"),
                failure_threshold=2,
                recovery_timeout=60.0,
            ),
        )
        operator = User("nginx-operator")
        manifest = next(m for m in render_chart(chart) if m["kind"] == "Service")
        name = manifest["metadata"]["name"]
        proxy.submit(ApiRequest.from_manifest(manifest, operator))
        read = ApiRequest("get", "Service", operator, name=name)
        assert proxy.submit(read).code == 200

        injector.plan = FaultPlan(name="dark", error_rate=1.0)
        proxy.submit(ApiRequest.from_manifest(manifest, operator, "update"))
        assert proxy.submit(read).code == 503  # no stale cache in fail-closed


class TestMultiPolicyProxy:
    def test_two_operators_one_proxy(self):
        cluster = Cluster()
        charts = {name: get_chart(name) for name in ("nginx", "postgresql")}
        proxy = MultiPolicyProxy(
            cluster.api,
            {f"{name}-operator": generate_policy(chart) for name, chart in charts.items()},
        )
        client = OperatorClient(proxy)
        for chart in charts.values():
            assert client.deploy_chart(chart).all_ok

        # nginx's identity cannot write postgres's kinds.
        statefulset = next(m for m in render_chart(charts["postgresql"])
                           if m["kind"] == "StatefulSet")
        cross = client.submit_manifest("nginx", statefulset, verb="update")
        assert cross.code == 403

    def test_unbound_identity_default_denied(self):
        cluster = Cluster()
        proxy = MultiPolicyProxy(cluster.api, {})
        manifest = {"apiVersion": "v1", "kind": "ConfigMap",
                    "metadata": {"name": "c"}, "data": {}}
        response = OperatorClient(proxy, username="stranger").submit_manifest(
            "stranger", manifest
        )
        assert response.code == 403
        assert proxy.unbound_denials

    def test_unbound_reads_pass_with_read_through(self):
        cluster = Cluster()
        proxy = MultiPolicyProxy(cluster.api, {})
        response = proxy.submit(ApiRequest("list", "Pod", User("auditor")))
        assert response.ok

    def test_bind_later(self):
        cluster = Cluster()
        proxy = MultiPolicyProxy(cluster.api, {})
        chart = get_chart("nginx")
        proxy.bind("nginx-operator", generate_policy(chart))
        assert OperatorClient(proxy).deploy_chart(chart).all_ok
