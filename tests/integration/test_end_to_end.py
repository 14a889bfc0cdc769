"""Full-system integration: the paper's deployment topology end to end.

Covers the complete KubeFence lifecycle on one cluster: policy
generation offline, proxy-mediated Day-1 install, Day-2 operations,
insider attack, and audit/forensic trails -- all the moving parts wired together.
"""

from repro.attacks import build_malicious_manifests
from repro.core.pipeline import generate_policy
from repro.core.proxy import KubeFenceProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import ApiRequest, Cluster, User
from repro.k8s.vulndb import ExploitEngine
from repro.operators import get_chart
from repro.operators.client import DirectTransport, OperatorClient
from repro.rbac import RBACAuthorizer, infer_policy


class TestFullLifecycle:
    def test_kubefence_protected_cluster_lifecycle(self):
        chart = get_chart("postgresql")
        validator = generate_policy(chart)

        cluster = Cluster()
        engine = ExploitEngine()
        cluster.api.register_admission_plugin(engine)
        proxy = KubeFenceProxy(cluster.api, validator)
        client = OperatorClient(proxy)

        # Day 1: install through the proxy.
        result = client.deploy_chart(chart)
        assert result.all_ok

        # Day 2: reconcile (get/update) passes validation.
        responses = client.reconcile(result)
        assert all(r.ok for r in responses)

        # Insider attack: every malicious manifest bounces off the proxy.
        malicious = build_malicious_manifests(chart.name, render_chart(chart))
        for item in malicious:
            response = client.submit_manifest(chart.name, item.manifest, verb="update")
            assert response.code == 403, item.attack.attack_id

        # Nothing fired, everything logged.
        assert engine.events == []
        assert len(proxy.denials) == len(malicious)
        assert {d.verb for d in proxy.denials} == {"update"}

        # The denial log names the offending field for forensics
        # (Sec. V-B: "Violations are logged with details of the
        # offending field").
        e1 = next(d for d in proxy.denials
                  if any("hostNetwork" in v for v in d.violations))
        assert e1.kind in ("Deployment", "StatefulSet")

    def test_rbac_and_kubefence_stacked(self):
        """Defence in depth: RBAC authorizer *and* KubeFence proxy.
        Benign operator traffic passes both; a foreign user fails RBAC;
        the operator's own malicious spec fails KubeFence."""
        chart = get_chart("nginx")

        # Learn RBAC policy from an attack-free run.
        learn = Cluster()
        learn_client = OperatorClient(DirectTransport(learn.api))
        learn_result = learn_client.deploy_chart(chart)
        learn_client.reconcile(learn_result)
        rbac_policy = infer_policy(learn.api.audit_log, "nginx-operator")

        cluster = Cluster(authorizer=RBACAuthorizer(rbac_policy))
        proxy = KubeFenceProxy(cluster.api, generate_policy(chart))
        client = OperatorClient(proxy)
        assert client.deploy_chart(chart).all_ok

        # Foreign user: passes KubeFence (benign body) but fails RBAC.
        manifests = render_chart(chart)
        deployment = next(m for m in manifests if m["kind"] == "Deployment")
        foreign = proxy.submit(
            ApiRequest.from_manifest(deployment, User("mallory"), "update")
        )
        assert foreign.code == 403
        message = (foreign.body or {}).get("message", "")
        assert "KubeFence" not in message  # denied by RBAC, not the proxy
        assert "cannot update" in message

        # Operator user with a malicious body: blocked by KubeFence
        # even though RBAC would allow the (user, verb, resource).
        from repro.yamlutil import deep_copy, set_path

        bad = deep_copy(deployment)
        set_path(bad, "spec.template.spec.hostPID", True)
        response = client.submit_manifest("nginx", bad, verb="update")
        assert response.code == 403
        assert "KubeFence" in response.body["message"]

    def test_two_operators_isolated_policies(self):
        """Each workload's proxy only admits its own kinds/shapes."""
        nginx, postgresql = get_chart("nginx"), get_chart("postgresql")
        cluster = Cluster()
        nginx_proxy = KubeFenceProxy(cluster.api, generate_policy(nginx))
        postgres_manifests = render_chart(postgresql)
        statefulset = next(m for m in postgres_manifests if m["kind"] == "StatefulSet")
        response = nginx_proxy.submit(
            ApiRequest.from_manifest(statefulset, User("nginx-operator"))
        )
        assert response.code == 403  # nginx never uses StatefulSet

    def test_audit_log_supports_forensics_after_attack(self):
        """Denied attacks appear in the proxy log; accepted requests in
        the server audit log -- together a complete trail."""
        chart = get_chart("mlflow")
        cluster = Cluster()
        proxy = KubeFenceProxy(cluster.api, generate_policy(chart))
        client = OperatorClient(proxy)
        client.deploy_chart(chart)
        malicious = build_malicious_manifests(chart.name, render_chart(chart))
        client.submit_manifest(chart.name, malicious[0].manifest, verb="update")

        server_verbs = {e.verb for e in cluster.api.audit_log.events()}
        assert server_verbs == {"create"}  # the attack never reached the server
        assert len(proxy.denials) == 1
