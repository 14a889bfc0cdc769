#!/usr/bin/env python3
"""The grand tour: every enforcement layer of the reproduction in one
scenario.

Workflow (the paper's recommended stack, Sec. V + Sec. VIII):

1. **lint** the chart before policy generation (KubeLinter role);
2. **generate** the KubeFence policy from the chart;
3. stand up a **hardened cluster**: an audit2rbac-inferred RBAC policy,
   the CVE exploit engine in the admission chain, the KubeFence proxy
   and anomaly monitoring in front of it;
4. **deploy** the operator through the whole stack, then run its Day-2
   **reconcile** loop;
5. launch the **attack catalog** and watch each layer do its job.

Run:  python examples/full_stack_tour.py
"""

from repro.attacks import build_malicious_manifests
from repro.core.anomaly import AnomalyMonitoringTransport, ApiAnomalyDetector
from repro.core.pipeline import generate_policy
from repro.core.proxy import KubeFenceProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import Cluster
from repro.k8s.vulndb import ExploitEngine
from repro.lint import lint_chart
from repro.operators import get_chart
from repro.operators.client import DirectTransport, OperatorClient
from repro.rbac import RBACAuthorizer, infer_policy


def main() -> None:
    chart = get_chart("postgresql")
    operator = f"{chart.name}-operator"

    # 1. Pre-deployment static analysis.
    report = lint_chart(chart)
    print(f"[lint]      {len(report.errors)} errors, {len(report.warnings)} warnings "
          f"({', '.join(sorted(report.by_rule())) or 'clean'})")
    assert not report.errors, "fix chart errors before generating a policy"

    # 2. Policy generation.
    validator = generate_policy(chart)
    print(f"[policy]    kinds={sorted(validator.kinds)}, "
          f"{len(validator.locks)} security locks")

    # 3. The hardened cluster: RBAC learned from an attack-free run.
    learn = Cluster()
    learn_client = OperatorClient(DirectTransport(learn.api))
    learn_client.reconcile(learn_client.deploy_chart(chart))
    rbac_policy = infer_policy(learn.api.audit_log, operator)
    rules = sum(len(role.rules) for role in rbac_policy.roles)
    print(f"[rbac]      {rules} rules inferred for {operator}")

    cluster = Cluster(authorizer=RBACAuthorizer(rbac_policy))
    engine = ExploitEngine()
    cluster.api.register_admission_plugin(engine)
    proxy = KubeFenceProxy(cluster.api, validator)
    transport = AnomalyMonitoringTransport(
        proxy, ApiAnomalyDetector(), learn_online=True
    )
    client = OperatorClient(transport)

    # 4. Day-1 deploy, then the Day-2 reconcile loop.
    result = client.deploy_chart(chart)
    print(f"[deploy]    {len(result.succeeded)}/{len(result.responses)} manifests "
          "applied through RBAC + KubeFence")
    responses = client.reconcile(result)
    print(f"[reconcile] {sum(r.ok for r in responses)}/{len(responses)} "
          "get/update requests passed")

    # 5. The attack campaign against the full stack.
    malicious = build_malicious_manifests(chart.name, render_chart(chart))
    blocked = sum(
        not client.submit_manifest(chart.name, item.manifest, verb="update").ok
        for item in malicious
    )
    print(f"[attack]    {blocked}/{len(malicious)} malicious manifests blocked; "
          f"CVEs fired: {sorted(engine.triggered_cves()) or 'none'}; "
          f"proxy denials: {len(proxy.denials)}; "
          f"anomaly alerts: {len(transport.alerts)}")


if __name__ == "__main__":
    main()
