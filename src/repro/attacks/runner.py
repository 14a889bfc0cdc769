"""The attack campaign: Table III's experiment.

For one operator, two protected configurations are attacked with the
full catalog of malicious manifests:

**RBAC baseline** (Sec. VI-D, "Native K8s RBAC setup"):

1. the operator is deployed attack-free on an audit-enabled cluster,
   including a day-2 reconcile pass (operators continuously get/update
   their resources);
2. ``audit2rbac`` infers the workload's least-privilege policy;
3. a fresh cluster is configured with that policy, the workload is
   re-deployed, and the malicious manifests are submitted as the
   operator's own user (the insider threat model).

**KubeFence** (Sec. VI-D, "KubeFence setup"):

1. the workload policy (validator) is generated from the Helm chart;
2. the workload is deployed *through* the KubeFence proxy (complete
   mediation) -- all benign requests must pass;
3. the same malicious manifests are submitted through the proxy.

An attack is *mitigated* when its API request is rejected.  The live
:class:`~repro.k8s.vulndb.ExploitEngine` sits in the admission chain of
both clusters, so the result also reports which CVEs actually fired
when requests got through.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.attacks.catalog import ATTACKS, AttackSpec
from repro.attacks.injector import MaliciousManifest, build_malicious_manifests
from repro.core.anomaly import (
    AnomalyAlert,
    AnomalyMonitoringTransport,
    ApiAnomalyDetector,
)
from repro.core.enforcement import Validator
from repro.core.pipeline import generate_policy
from repro.core.proxy import KubeFenceProxy
from repro.helm.chart import Chart, render_chart
from repro.k8s.apiserver import Cluster
from repro.k8s.vulndb import ExploitEngine
from repro.obs.analytics.events import EventBus, SecurityEvent
from repro.operators.client import DirectTransport, OperatorClient
from repro.rbac import RBACAuthorizer, infer_policy


@dataclass
class AttackOutcome:
    """One attack against one protected configuration."""

    attack: AttackSpec
    mitigated: bool
    response_code: int
    exploit_fired: bool
    detail: str = ""


@dataclass
class CampaignResult:
    """Table III row material for one operator."""

    operator: str
    rbac: list[AttackOutcome] = field(default_factory=list)
    kubefence: list[AttackOutcome] = field(default_factory=list)
    validator: Validator | None = None
    #: Detection-mode alerts from the KubeFence phase, when the
    #: campaign ran with ``anomaly=True``.
    anomaly_alerts: list[AnomalyAlert] = field(default_factory=list)

    def mitigated_counts(self, outcomes: list[AttackOutcome]) -> tuple[int, int]:
        """(mitigated CVE exploits, mitigated misconfigurations)."""
        cves = sum(1 for o in outcomes if o.attack.is_cve and o.mitigated)
        misconfigs = sum(1 for o in outcomes if not o.attack.is_cve and o.mitigated)
        return cves, misconfigs

    @property
    def rbac_counts(self) -> tuple[int, int]:
        return self.mitigated_counts(self.rbac)

    @property
    def kubefence_counts(self) -> tuple[int, int]:
        return self.mitigated_counts(self.kubefence)


def _deploy_and_reconcile(client: OperatorClient, chart: Chart) -> Any:
    result = client.deploy_chart(chart)
    if not result.all_ok:
        denied = [(m.get("kind"), r.code) for m, r in result.denied]
        raise RuntimeError(f"benign deployment of {chart.name} was blocked: {denied}")
    client.reconcile(result)
    return result


def _attack(
    client: OperatorClient,
    malicious: list[MaliciousManifest],
    engine: ExploitEngine,
    event_bus: Any | None = None,
    identity: str = "",
) -> list[AttackOutcome]:
    outcomes: list[AttackOutcome] = []
    for item in malicious:
        engine.clear()
        if event_bus is not None and event_bus.enabled:
            # Campaign marker: keys the forensics engine's timeline
            # split -- everything between this marker and the next one
            # belongs to this attack.
            event_bus.publish(
                SecurityEvent(
                    kind="marker",
                    source="campaign",
                    ts=time.time(),
                    user=identity,
                    detail={
                        "attack_id": item.attack.attack_id,
                        "reference": item.attack.reference,
                        "title": item.attack.title,
                        "targeted_fields": list(item.attack.targeted_fields),
                        "user": identity,
                    },
                )
            )
        response = client.submit_manifest(item.operator, item.manifest, verb="update")
        fired = item.attack.reference in engine.triggered_cves()
        outcomes.append(
            AttackOutcome(
                attack=item.attack,
                mitigated=not response.ok,
                response_code=response.code,
                exploit_fired=fired,
                detail="" if response.ok else str((response.body or {}).get("message", "")),
            )
        )
    return outcomes


def run_campaign(
    chart: Chart,
    attacks: tuple[AttackSpec, ...] = ATTACKS,
    validator: Validator | None = None,
    event_bus: Any | None = None,
    anomaly: bool = False,
) -> CampaignResult:
    """Run the full Table III experiment for one operator chart.

    With an ``event_bus``, the KubeFence phase publishes the unified
    security-event stream (campaign markers + audit events + proxy
    decisions) into it, ready for
    :class:`~repro.obs.analytics.forensics.ForensicsEngine`.  With
    ``anomaly=True``, an :class:`ApiAnomalyDetector` is bootstrapped
    from the attack-free learning phase and runs in detection mode in
    front of the proxy; its alerts land in
    :attr:`CampaignResult.anomaly_alerts` (and on the bus).
    """
    result = CampaignResult(operator=chart.name)
    legitimate = render_chart(chart)
    malicious = build_malicious_manifests(chart.name, legitimate, attacks)

    # ---- RBAC baseline ---------------------------------------------------
    # Phase A: attack-free run on an audit-enabled permissive cluster.
    learn_cluster = Cluster()
    learn_client = OperatorClient(DirectTransport(learn_cluster.api))
    _deploy_and_reconcile(learn_client, chart)
    username = f"{chart.name}-operator"
    rbac_policy = infer_policy(learn_cluster.api.audit_log, username)

    # Phase B: fresh cluster protected by the inferred RBAC policy.
    rbac_cluster = Cluster(authorizer=RBACAuthorizer(rbac_policy))
    rbac_engine = ExploitEngine()
    rbac_cluster.api.register_admission_plugin(rbac_engine)
    rbac_client = OperatorClient(DirectTransport(rbac_cluster.api))
    _deploy_and_reconcile(rbac_client, chart)
    result.rbac = _attack(rbac_client, malicious, rbac_engine)

    # ---- KubeFence ------------------------------------------------------
    validator = validator or generate_policy(chart)
    result.validator = validator
    bus = event_bus if event_bus is not None else EventBus()
    kf_cluster = Cluster(event_bus=bus)
    kf_engine = ExploitEngine()
    kf_cluster.api.register_admission_plugin(kf_engine)
    proxy = KubeFenceProxy(kf_cluster.api, validator, event_bus=bus)
    transport: Any = proxy
    monitor: AnomalyMonitoringTransport | None = None
    if anomaly:
        detector = ApiAnomalyDetector()
        detector.learn_from_audit(learn_cluster.api.audit_log, username)
        monitor = AnomalyMonitoringTransport(
            proxy, detector,
            registry=proxy.stats.registry, event_bus=bus,
        )
        transport = monitor
    kf_client = OperatorClient(transport)
    _deploy_and_reconcile(kf_client, chart)
    result.kubefence = _attack(
        kf_client, malicious, kf_engine, event_bus=bus, identity=username
    )
    if monitor is not None:
        result.anomaly_alerts = list(monitor.alerts)
    return result
