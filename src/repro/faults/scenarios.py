"""Scripted chaos scenarios and the survival report.

A scenario is a :class:`~repro.faults.injector.FaultPlan` plus a
deterministic driver: deploy an operator chart through a KubeFence
proxy whose upstream is wrapped in a :class:`~repro.faults.injector.
FaultyAPIServer`, interleave hostile mutations (which the policy must
deny), and tally what came out the other side.

The one invariant every scenario must uphold -- the reason this
harness exists -- is **zero fail-open decisions**: a request the
policy would deny is either denied (403) or refused (503), never
admitted, no matter what the injector does to the upstream.  The
store is audited afterwards for hostile markers as a second,
end-state check.

``repro chaos`` (the CLI) and ``tests/integration/test_chaos.py``
both drive these entry points; the CLI prints
:func:`render_survival_report`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.faults.injector import FaultInjector, FaultPlan, FaultyAPIServer

__all__ = [
    "SCENARIOS",
    "ScenarioReport",
    "hostile_mutations",
    "render_survival_report",
    "run_scenario",
]

#: The built-in chaos menu.  Rates are chosen so that every scenario
#: finishes in well under a second in-process while still exercising
#: retries, breaker trips, and degradation.
SCENARIOS: dict[str, FaultPlan] = {
    "baseline": FaultPlan(name="baseline"),
    "latency": FaultPlan(name="latency", latency_rate=0.5, latency_ms=1.0),
    "error-burst": FaultPlan(name="error-burst", error_rate=0.3, fail_first=3),
    "reset-storm": FaultPlan(name="reset-storm", reset_rate=0.35),
    "partial-response": FaultPlan(name="partial-response", partial_rate=0.3),
    "hang": FaultPlan(name="hang", hang_rate=0.2, hang_seconds=0.01),
    "blackout": FaultPlan(name="blackout", error_rate=1.0),
}


def hostile_mutations(manifest: dict[str, Any]) -> list[dict[str, Any]]:
    """Mutations of a workload manifest that sit outside any generated
    policy's allowed configuration space (host namespace escapes)."""
    from repro.yamlutil import deep_copy, set_path

    mutations = []
    for path, value in (
        ("spec.template.spec.hostNetwork", True),
        ("spec.template.spec.hostPID", True),
        ("spec.template.spec.hostIPC", True),
    ):
        bad = deep_copy(manifest)
        set_path(bad, path, value)
        mutations.append(bad)
    return mutations


@dataclass
class ScenarioReport:
    """What survived one scripted chaos scenario."""

    name: str
    seed: int
    rounds: int
    requests_total: int = 0
    benign_ok: int = 0
    benign_refused: int = 0
    denial_attempts: int = 0
    denied: int = 0
    fail_open: int = 0
    retries: int = 0
    degraded_refused: int = 0
    breaker_opens: int = 0
    injected: dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def survived(self) -> bool:
        """The security invariant: no would-be denial was admitted."""
        return self.fail_open == 0 and self.denied == self.denial_attempts


def run_scenario(
    plan: FaultPlan,
    *,
    chart: Any | None = None,
    validator: Any | None = None,
    seed: int = 1337,
    rounds: int = 10,
    resilience: Any | None = None,
) -> ScenarioReport:
    """Drive one scenario through the in-process enforcement stack.

    Each round applies every chart manifest (benign traffic) and every
    hostile mutation of the workload Deployment (traffic the policy
    must deny), while the injector mauls the upstream according to
    *plan*.  Deterministic for a fixed ``(plan, seed, rounds)``.
    """
    from repro.core.pipeline import generate_policy
    from repro.core.proxy import KubeFenceProxy
    from repro.helm.chart import render_chart
    from repro.k8s.apiserver import ApiRequest, Cluster, User
    from repro.operators import get_chart
    from repro.resilience import ResilienceConfig, RetryPolicy
    from repro.yamlutil import get_path

    chart = chart if chart is not None else get_chart("nginx")
    validator = validator if validator is not None else generate_policy(chart)
    if resilience is None:
        # Tight timings: chaos scenarios must be fast enough for CI.
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01),
            request_deadline=2.0,
            failure_threshold=5,
            recovery_timeout=0.02,
        )

    cluster = Cluster()
    injector = FaultInjector(plan, seed=seed)
    proxy = KubeFenceProxy(
        FaultyAPIServer(cluster.api, injector), validator, resilience=resilience
    )
    manifests = render_chart(chart)
    workload = next(m for m in manifests if m["kind"] == "Deployment")
    hostile = hostile_mutations(workload)
    operator = User(f"{chart.name}-operator")
    attacker = User("eve")

    report = ScenarioReport(name=plan.name, seed=seed, rounds=rounds)
    started = time.perf_counter()
    for round_index in range(rounds):
        verb = "create" if round_index == 0 else "update"
        for manifest in manifests:
            response = proxy.submit(
                ApiRequest.from_manifest(manifest, operator, verb)
            )
            report.requests_total += 1
            if response.ok:
                report.benign_ok += 1
            elif response.code >= 500:
                report.benign_refused += 1
            # 4xx on benign traffic (e.g. 409 conflict after a retried
            # create) is neither a success nor a refusal; it is counted
            # in requests_total only.
        for bad in hostile:
            response = proxy.submit(ApiRequest.from_manifest(bad, attacker, "update"))
            report.requests_total += 1
            report.denial_attempts += 1
            if response.code == 403:
                report.denied += 1
            elif response.ok:
                report.fail_open += 1
    report.duration_s = time.perf_counter() - started

    # End-state audit: no hostile marker may have reached the store.
    for stored in cluster.store.list("Deployment"):
        spec = stored.data if hasattr(stored, "data") else stored
        for path in ("spec.template.spec.hostNetwork",
                     "spec.template.spec.hostPID",
                     "spec.template.spec.hostIPC"):
            if get_path(spec, path, None):
                report.fail_open += 1

    snapshot = proxy.stats.registry.snapshot()
    report.retries = int(snapshot.get("kubefence_retries_total", 0))
    report.degraded_refused = int(
        snapshot.get('kubefence_degraded_requests_total{mode="refused"}', 0)
    )
    report.breaker_opens = int(
        snapshot.get('kubefence_breaker_transitions_total{state="open"}', 0)
    )
    report.injected = {
        kind: count for kind, count in injector.counts.items()
        if kind != "none" and count
    }
    return report


def render_survival_report(reports: list[ScenarioReport]) -> str:
    """The ``repro chaos`` table: one row per scenario."""
    header = (
        f"{'scenario':<18} {'reqs':>5} {'ok':>5} {'refused':>7} "
        f"{'denied':>6} {'fail-open':>9} {'retries':>7} {'brk-open':>8} "
        f"{'faults':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        faults = sum(r.injected.values())
        verdict = "SURVIVED" if r.survived else "FAIL-OPEN"
        lines.append(
            f"{r.name:<18} {r.requests_total:>5} {r.benign_ok:>5} "
            f"{r.benign_refused:>7} {r.denied:>6}/{r.denial_attempts:<3}"
            f"{r.fail_open:>6} {r.retries:>7} {r.breaker_opens:>8} "
            f"{faults:>6}  {verdict}"
        )
    total_open = sum(r.fail_open for r in reports)
    lines.append("-" * len(header))
    lines.append(
        f"{len(reports)} scenario(s), {sum(r.requests_total for r in reports)} "
        f"requests, {total_open} fail-open decision(s) "
        f"-- {'OK' if total_open == 0 else 'SECURITY INVARIANT VIOLATED'}"
    )
    return "\n".join(lines)
