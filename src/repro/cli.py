"""Command-line interface: ``python -m repro <command>``.

Commands mirror how a downstream user would operate KubeFence:

- ``generate``  -- build a validator from an operator chart (built-in
  name or a chart directory) and write it as YAML.
- ``validate``  -- check manifest files against a validator.
- ``campaign``  -- run the Table III attack campaign for an operator.
- ``surface``   -- print the Fig. 9 usage heatmap and Table I.
- ``coverage``  -- print the Fig. 5 e2e-coverage analysis.
- ``overhead``  -- measure the Table IV RTT overhead.
- ``obs``       -- dump a metrics/trace snapshot (docs/OBSERVABILITY.md).
- ``crashtest`` -- SIGKILL a durable API-server child at WAL commit
  points and verify crash/restart recovery (docs/RESILIENCE.md).
- ``operators`` -- list the built-in evaluation operators.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import yaml


def _load_chart(ref: str):
    from repro.helm.chart import Chart
    from repro.operators import OPERATOR_NAMES, get_chart

    if ref in OPERATOR_NAMES:
        return get_chart(ref)
    path = Path(ref)
    if (path / "Chart.yaml").exists():
        return Chart.from_directory(path)
    raise SystemExit(
        f"error: {ref!r} is neither a built-in operator {OPERATOR_NAMES} "
        "nor a chart directory"
    )


def cmd_operators(_args: argparse.Namespace) -> int:
    from repro.helm.chart import render_chart
    from repro.operators import all_charts

    for name, chart in all_charts().items():
        kinds = sorted({m["kind"] for m in render_chart(chart)})
        print(f"{name:12s} v{chart.version:10s} kinds: {', '.join(kinds)}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.pipeline import PolicyGenerator

    source = Path(args.chart)
    if source.is_dir() and (source / "kustomization.yaml").exists():
        return _generate_from_kustomize(source, args)
    chart = _load_chart(args.chart)
    generator = PolicyGenerator(explore_booleans=args.explore_booleans)
    report = generator.generate(chart)
    text = report.validator.to_yaml()
    if args.output:
        Path(args.output).write_text(text)
        print(
            f"wrote validator for {chart.name!r} to {args.output} "
            f"({len(report.variants)} variants, "
            f"{len(report.manifests)} manifests merged, "
            f"kinds: {', '.join(report.kinds)})"
        )
    else:
        print(text)
    return 0


def _generate_from_kustomize(source: Path, args: argparse.Namespace) -> int:
    """Kustomize mode: the directory is an overlay (or a base when it
    has no overlays); sibling ``--overlay`` directories are the
    configuration variants."""
    from repro.kustomize import Kustomization, generate_policy_from_kustomize

    base = Kustomization.from_directory(source)
    overlays = [Kustomization.from_directory(path) for path in args.overlay or []]
    validator = generate_policy_from_kustomize(base, overlays or None)
    text = validator.to_yaml()
    if args.output:
        Path(args.output).write_text(text)
        layers = ", ".join(validator.meta["overlays"])
        print(f"wrote kustomize validator for {validator.operator!r} to "
              f"{args.output} (layers: {layers})")
    else:
        print(text)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.enforcement import Validator

    validator = Validator.from_yaml(Path(args.validator).read_text())
    failures = 0
    for manifest_file in args.manifests:
        for document in yaml.safe_load_all(Path(manifest_file).read_text()):
            if not isinstance(document, dict) or not document.get("kind"):
                continue
            name = document.get("metadata", {}).get("name", "?")
            result = validator.validate(document)
            status = "ALLOWED" if result.allowed else "DENIED "
            print(f"[{status}] {document['kind']}/{name}  ({manifest_file})")
            for violation in result.violations:
                print(f"    - {violation}")
            failures += 0 if result.allowed else 1
    return 1 if failures else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_chart, lint_manifests

    source = Path(args.target)
    if source.is_file():
        manifests = [
            doc
            for doc in yaml.safe_load_all(source.read_text())
            if isinstance(doc, dict) and doc.get("kind")
        ]
        report = lint_manifests(manifests, ignore=frozenset(args.ignore or []))
    else:
        chart = _load_chart(args.target)
        report = lint_chart(chart, ignore=frozenset(args.ignore or []))
    print(report.render())
    return 1 if report.errors else 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.enforcement import Validator
    from repro.core.inspect import summarize

    validator = Validator.from_yaml(Path(args.validator).read_text())
    print(summarize(validator).render())
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.core.enforcement import Validator
    from repro.core.inspect import diff_validators

    old = Validator.from_yaml(Path(args.old).read_text())
    new = Validator.from_yaml(Path(args.new).read_text())
    drift = diff_validators(old, new)
    print(drift.render())
    return 0 if drift.is_empty else 2


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table3
    from repro.attacks.runner import run_campaign
    from repro.operators import OPERATOR_NAMES

    names = [args.operator] if args.operator else list(OPERATOR_NAMES)
    results = []
    for name in names:
        chart = _load_chart(name)
        result = run_campaign(chart, anomaly=args.anomaly)
        results.append(result)
        fired = sorted({o.attack.reference for o in result.rbac if o.exploit_fired})
        line = (f"{name}: RBAC mitigated {sum(result.rbac_counts)}/15, "
                f"KubeFence {sum(result.kubefence_counts)}/15; "
                f"CVEs fired under RBAC: {len(fired)}")
        if args.anomaly:
            line += f"; anomaly alerts: {len(result.anomaly_alerts)}"
        print(line)
        if args.anomaly:
            for alert in result.anomaly_alerts:
                print(f"    anomaly: {alert.username} {alert.verb} "
                      f"{alert.kind}/{alert.name} -- {alert.report.summary()}")
    print()
    print(render_table3(results))
    return 0


def cmd_surface(_args: argparse.Namespace) -> int:
    from repro.analysis.reduction import compute_reduction
    from repro.analysis.report import render_fig9, render_table1
    from repro.analysis.surface import ANALYSIS_KINDS, usage_matrix
    from repro.core.pipeline import generate_policy
    from repro.operators import all_charts

    validators = {n: generate_policy(c) for n, c in all_charts().items()}
    matrix = usage_matrix(validators)
    print(render_fig9(matrix, ANALYSIS_KINDS))
    print()
    print(render_table1([compute_reduction(matrix[n]) for n in sorted(matrix)]))
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    from repro.analysis.coverage import fig5_analysis
    from repro.analysis.report import render_fig5
    from repro.k8s.e2e import E2ECorpus

    print(render_fig5(fig5_analysis(E2ECorpus(seed=args.seed))))
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Telemetry snapshot: drive a representative workload through the
    enforcement stack and dump the Prometheus exposition plus the
    request traces it produced (see docs/OBSERVABILITY.md)."""
    import json as _json

    from repro.core.pipeline import generate_policy
    from repro.core.proxy import KubeFenceProxy
    from repro.helm.chart import render_chart
    from repro.k8s.apiserver import ApiRequest, Cluster, User
    from repro.obs import TRACES
    from repro.operators.client import OperatorClient
    from repro.yamlutil import deep_copy, set_path

    chart = _load_chart(args.operator or "nginx")
    validator = generate_policy(chart)
    cluster = Cluster()
    proxy = KubeFenceProxy(cluster.api, validator)

    TRACES.clear()
    result = OperatorClient(proxy).deploy_chart(chart)
    if not result.all_ok:
        print("warning: benign deployment was not fully admitted", file=sys.stderr)
    # One denied request, so denial metrics and a denied trace appear.
    bad = deep_copy(
        next(m for m in render_chart(chart) if m["kind"] == "Deployment")
    )
    set_path(bad, "spec.template.spec.hostNetwork", True)
    proxy.submit(ApiRequest.from_manifest(bad, User("eve"), "update"))

    if args.json:
        print(_json.dumps({
            "metrics": proxy.stats.registry.snapshot(),
            "apiserver_metrics": cluster.api.metrics.snapshot(),
            "traces": [t.to_dict() for t in TRACES.traces()[-args.traces:]],
        }, indent=2, sort_keys=True))
        return 0

    print("# ---- proxy /metrics " + "-" * 40)
    print(proxy.stats.registry.expose(), end="")
    print("# ---- api-server /metrics " + "-" * 35)
    print(cluster.api.metrics.expose(), end="")
    print(f"# ---- last {args.traces} traces " + "-" * 38)
    for finished in TRACES.traces()[-args.traces:]:
        stages = ", ".join(
            f"{s.name}={s.duration_ns / 1000:.1f}us" for s in _walk_spans(finished.spans)
        )
        print(f"{finished.trace_id}  {finished.name:16s} "
              f"{finished.duration_ns / 1000:9.1f}us  [{stages}]")
    return 0


def _walk_spans(spans):
    for s in spans:
        yield s
        yield from _walk_spans(s.children)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run scripted chaos scenarios against the enforcement stack and
    print the survival report (see docs/RESILIENCE.md).

    Exit code 1 if any scenario recorded a fail-open decision."""
    import json as _json

    from repro.core.pipeline import generate_policy
    from repro.faults import SCENARIOS, render_survival_report, run_scenario

    names = args.scenario or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(available: {', '.join(SCENARIOS)})",
            file=sys.stderr,
        )
        return 2

    chart = _load_chart(args.operator or "nginx")
    validator = generate_policy(chart)
    reports = [
        run_scenario(
            SCENARIOS[name],
            chart=chart,
            validator=validator,
            seed=args.seed,
            rounds=args.rounds,
        )
        for name in names
    ]
    if args.json:
        print(_json.dumps(
            [
                {
                    "scenario": r.name,
                    "seed": r.seed,
                    "rounds": r.rounds,
                    "requests_total": r.requests_total,
                    "benign_ok": r.benign_ok,
                    "benign_refused": r.benign_refused,
                    "denied": r.denied,
                    "denial_attempts": r.denial_attempts,
                    "fail_open": r.fail_open,
                    "retries": r.retries,
                    "degraded_refused": r.degraded_refused,
                    "breaker_opens": r.breaker_opens,
                    "injected": r.injected,
                    "survived": r.survived,
                }
                for r in reports
            ],
            indent=2,
        ))
    else:
        print(render_survival_report(reports))
    return 0 if all(r.survived for r in reports) else 1


def cmd_crashtest(args: argparse.Namespace) -> int:
    """SIGKILL a durable API-server child at WAL commit points across
    seeded kill/restart cycles; verify the crash-only invariants
    (no acknowledged write lost, no unacknowledged write resurrected,
    no fail-open during the blackout).  Exit 1 on any violation."""
    import json as _json

    from repro.core.pipeline import generate_policy
    from repro.faults import render_crash_report, run_crashtest

    chart = _load_chart(args.operator or "nginx")
    validator = generate_policy(chart)
    cycles = max(10, args.cycles) if args.smoke else args.cycles
    writes = 4 if args.smoke else args.writes
    report = run_crashtest(
        chart,
        validator,
        seed=args.seed,
        cycles=cycles,
        writes_per_cycle=writes,
        data_dir=args.data_dir,
        fsync=args.fsync,
    )
    payload = report.to_dict()
    if args.output:
        Path(args.output).write_text(_json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(_json.dumps(payload, indent=2))
    else:
        print(render_crash_report(report))
    return 0 if report.survived else 1


def cmd_slo(args: argparse.Namespace) -> int:
    """Drive traffic through the enforcement stack, feed the security
    event stream into an SLO engine, and evaluate burn-rate alerts.

    A clean run stays silent (exit 0); ``--chaos`` injects upstream
    faults so the upstream-error / degraded SLIs burn through their
    budget and the multi-window alert fires (exit 1)."""
    import json as _json

    from repro.core.pipeline import generate_policy
    from repro.core.proxy import KubeFenceProxy
    from repro.faults import SCENARIOS, FaultInjector, FaultyAPIServer
    from repro.k8s.apiserver import Cluster
    from repro.obs.analytics import EventBus, SloEngine
    from repro.operators.client import OperatorClient

    chart = _load_chart(args.operator or "nginx")
    validator = generate_policy(chart)
    bus = EventBus()
    engine = SloEngine()
    bus.subscribe(engine.observe)

    # Populate the cluster attack-free (store contents are needed for
    # the reconcile traffic) before any fault injection starts.
    cluster = Cluster(event_bus=bus)
    deployed = OperatorClient(
        KubeFenceProxy(cluster.api, validator)
    ).deploy_chart(chart)
    if not deployed.all_ok:
        print("warning: benign deployment was not fully admitted", file=sys.stderr)

    upstream = cluster.api
    if args.chaos:
        plan = SCENARIOS[args.scenario or "blackout"]
        upstream = FaultyAPIServer(cluster.api, FaultInjector(plan, seed=args.seed))
    proxy = KubeFenceProxy(upstream, validator, event_bus=bus)
    client = OperatorClient(proxy)
    for _ in range(args.rounds):
        client.reconcile(deployed)

    report = engine.evaluate()
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 1 if report.firing else 0


def cmd_refine(args: argparse.Namespace) -> int:
    """Run the audit-driven policy-refinement loop end to end.

    Deploys the operator through the enforcement stack with field
    observation on, profiles live traffic into the observed-vs-
    permitted matrix, synthesizes a tightened candidate policy, shadow-
    evaluates it against further live traffic, and prints the
    promotion verdict (``--promote`` installs the candidate when the
    verdict clears the gate).  Exit 1 when the candidate would widen
    deny divergence -- i.e. shadow-denies traffic the active policy
    allows beyond tolerance."""
    import json as _json

    from repro.core.pipeline import generate_policy
    from repro.core.proxy import KubeFenceProxy
    from repro.k8s.apiserver import Cluster
    from repro.obs.analytics import EventBus, SloEngine
    from repro.obs.refine import RefineController
    from repro.operators.client import OperatorClient

    chart = _load_chart(args.operator or "nginx")
    validator = generate_policy(chart)
    bus = EventBus()
    engine = SloEngine()
    bus.subscribe(engine.observe)

    cluster = Cluster(event_bus=bus)
    proxy = KubeFenceProxy(cluster.api, validator, event_bus=bus)
    controller = RefineController(
        proxy,
        slo=engine,
        min_samples=args.min_samples,
        shadow_fraction=args.shadow_fraction,
        shadow_min_samples=args.min_shadow_samples,
    )
    client = OperatorClient(proxy)

    # Phase 1: profile live traffic against the active policy.
    deployed = client.deploy_chart(chart)
    if not deployed.all_ok:
        print("warning: benign deployment was not fully admitted", file=sys.stderr)
    for _ in range(args.rounds):
        client.reconcile(deployed)

    # Phase 2: synthesize the tightened candidate.
    candidate = controller.build_candidate()

    # Phase 3: shadow-evaluate the candidate on further live traffic.
    controller.start_shadow()
    for _ in range(args.rounds):
        client.reconcile(deployed)
    verdict = controller.verdict()

    promoted_revision = None
    if args.promote and verdict.promote:
        promoted_revision = controller.promote()

    if args.json:
        payload = controller.status()
        payload["verdict"] = verdict.to_dict()
        payload["promoted_revision"] = promoted_revision
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(controller.profiler.usage().render())
        print()
        print(
            f"candidate policy: {candidate.pruned} field(s) pruned, "
            f"{candidate.specialized} placeholder(s) specialized "
            f"(base revision {candidate.base_revision} -> "
            f"{candidate.validator.policy_revision})"
        )
        for action in candidate.actions:
            print(f"  {action.action:10s} {action.kind}.{action.path}")
        print()
        print(f"shadow verdict: {verdict.decision}")
        for reason in verdict.reasons:
            print(f"  - {reason}")
        if promoted_revision is not None:
            print(f"promoted: active policy_revision is now {promoted_revision}")
        elif args.promote:
            print("not promoted: verdict did not clear the gate")
    return 1 if verdict.widens_deny_divergence else 0


def cmd_forensics(args: argparse.Namespace) -> int:
    """Reconstruct per-identity attack timelines from the unified
    security-event stream.

    Default mode runs the Table III campaign for one operator with the
    analytics bus attached; ``--events FILE.jsonl`` replays a recorded
    stream instead.  Exit 1 when any timeline shows post-denial
    activity (events after the attack was supposedly mitigated)."""
    import json as _json

    from repro.obs.analytics import (
        EventBus,
        ForensicsEngine,
        render_forensics_report,
    )

    engine = ForensicsEngine()
    if args.events:
        from repro.obs.analytics.events import load_jsonl

        engine.ingest_many(load_jsonl(Path(args.events).read_text()))
    else:
        from repro.attacks.runner import run_campaign

        bus = EventBus()
        bus.subscribe(engine.ingest)
        chart = _load_chart(args.operator or "nginx")
        result = run_campaign(chart, event_bus=bus, anomaly=args.anomaly)
        print(
            f"campaign: KubeFence mitigated {sum(result.kubefence_counts)}/"
            f"{len(result.kubefence)}; {len(engine)} event(s) on the bus",
            file=sys.stderr,
        )

    timelines = engine.timelines(args.identity)
    if args.json:
        print(_json.dumps(engine.report(args.identity), indent=2, sort_keys=True))
    else:
        print(render_forensics_report(timelines))
    return 1 if any(t.post_denial for t in timelines) else 0


def _series_sum(values: dict, name: str) -> float:
    """Sum every label set of ``name`` in one time-series point."""
    prefix = name + "{"
    return sum(
        v for k, v in values.items() if k == name or k.startswith(prefix)
    )


def _bucket_deltas(values: dict, name: str) -> list[tuple[float, float]]:
    """Aggregate ``<name>{...,le="..."}`` cells into sorted cumulative
    ``(le, count)`` pairs.  Deltas of cumulative buckets stay cumulative
    in ``le``, so :func:`~repro.obs.metrics.bucket_quantile` works on
    ring deltas as-is."""
    import re as _re

    buckets: dict[float, float] = {}
    prefix = name + "{"
    for key, value in values.items():
        if not key.startswith(prefix):
            continue
        match = _re.search(r'le="([^"]+)"', key)
        if not match:
            continue
        le = float("inf") if match.group(1) == "+Inf" else float(match.group(1))
        buckets[le] = buckets.get(le, 0.0) + value
    return sorted(buckets.items())


def render_top(payload: dict, url: str = "") -> str:
    """Render one ``repro top`` frame from an ``/obs/timeseries`` payload.

    Pure so tests can feed it canned payloads; ``cmd_top`` owns the
    fetch/clear/sleep loop."""
    from repro.obs.metrics import bucket_quantile

    points = payload.get("points") or []
    interval = float(payload.get("interval_s") or 1.0) or 1.0
    state = "running" if payload.get("running") else "stopped"
    header = (
        f"repro top -- {url or 'timeseries'}  "
        f"(interval {interval:g}s, {len(points)}/{payload.get('retention', '?')} "
        f"points, {state})"
    )
    if not points:
        return header + "\n\n  no samples yet -- is the ring started?"
    values = points[-1].get("values", {})
    lines = [header, ""]

    requests = (
        _series_sum(values, "kubefence_requests_total")
        or _series_sum(values, "kubefence_apiserver_requests_total")
    )
    denied = _series_sum(values, "kubefence_requests_denied_total")
    hits = _series_sum(values, "kubefence_cache_hits_total")
    misses = _series_sum(values, "kubefence_cache_misses_total")
    probes = hits + misses
    hit_pct = f"{100.0 * hits / probes:5.1f}%" if probes else "    --"
    lines.append(
        f"  requests {requests / interval:>9.1f}/s   denied "
        f"{denied / interval:>7.1f}/s   cache hit {hit_pct}"
    )

    for metric, tag in (
        ("kubefence_validation_latency_ns", "validation"),
        ("kubefence_apiserver_latency_ns", "apiserver"),
    ):
        buckets = _bucket_deltas(values, metric + "_bucket")
        if buckets and buckets[-1][1] > 0:
            p50 = bucket_quantile(buckets, 0.50) / 1e3
            p99 = bucket_quantile(buckets, 0.99) / 1e3
            lines.append(
                f"  latency  p50 {p50:>8.1f}us   p99 {p99:>8.1f}us   ({tag})"
            )
            break

    import re as _re

    phase_ns: dict[str, float] = {}
    for key, value in values.items():
        if key.startswith("kubefence_phase_ns_total{"):
            match = _re.search(r'phase="([^"]+)"', key)
            if match:
                phase_ns[match.group(1)] = phase_ns.get(match.group(1), 0.0) + value
    wall_ns = _series_sum(values, "kubefence_request_wall_ns_total")
    denominator = wall_ns or sum(phase_ns.values())
    if phase_ns and denominator > 0:
        lines.append("")
        for phase, ns in sorted(phase_ns.items(), key=lambda kv: -kv[1]):
            share = ns / denominator
            bar = "#" * max(1, int(round(share * 24))) if ns else ""
            lines.append(f"  {phase:<13s} {bar:<24s} {100.0 * share:5.1f}%")
        attributed = sum(phase_ns.values())
        if wall_ns:
            lines.append(
                f"  {'(attributed)':<13s} {'':<24s} "
                f"{100.0 * attributed / wall_ns:5.1f}% of wall"
            )

    footer: list[str] = []
    breaker = values.get("kubefence_breaker_state")
    if breaker is not None:
        names = {0: "closed", 1: "open", 2: "half-open"}
        footer.append(f"breaker {names.get(int(breaker), breaker)}")
    degraded = _series_sum(values, "kubefence_degraded_requests_total")
    if degraded:
        footer.append(f"degraded {degraded / interval:.1f}/s")
    burn = _series_sum(values, "kubefence_slo_burn_rate")
    if burn:
        footer.append(f"slo burn {burn:.2f}")
    divergence = _series_sum(values, "kubefence_shadow_divergence_total")
    if divergence:
        footer.append(f"shadow divergence {divergence / interval:.1f}/s")
    findings = values.get("kubefence_scan_open_findings")
    if findings:
        footer.append(f"open CVE findings {int(findings)}")
    if footer:
        lines.extend(["", "  " + "   ".join(footer)])
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over ``GET <url>/obs/timeseries``; the
    in-process ring (``REPRO_TS_RETENTION``) is the only data source, so
    it works against any running proxy or API server."""
    import json as _json
    import time as _time
    import urllib.request

    base = args.url.rstrip("/")
    count = 0
    while True:
        try:
            with urllib.request.urlopen(
                base + "/obs/timeseries", timeout=5
            ) as response:
                payload = _json.loads(response.read())
        except (OSError, ValueError) as err:
            print(f"top: {base}/obs/timeseries: {err}", file=sys.stderr)
            return 1
        if args.json:
            last = payload["points"][-1] if payload.get("points") else {}
            print(_json.dumps(last, sort_keys=True))
        else:
            if sys.stdout.isatty():  # pragma: no cover - interactive only
                print("\x1b[2J\x1b[H", end="")
            print(render_top(payload, base))
        count += 1
        if args.iterations and count >= args.iterations:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    from repro.analysis.overhead import OverheadConfig, measure_overhead
    from repro.analysis.report import render_table4
    from repro.operators import OPERATOR_NAMES

    config = OverheadConfig(
        repetitions=args.repetitions, network_delay_ms=args.network_delay_ms
    )
    names = [args.operator] if args.operator else list(OPERATOR_NAMES)
    rows = []
    for name in names:
        print(f"measuring {name} ({config.repetitions} repetitions) ...")
        rows.append(measure_overhead(_load_chart(name), config))
    print()
    print(render_table4(sorted(rows, key=lambda r: r.operator)))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    """The continuous CVE scanner service (docs/SECURITY_SCANNING.md).

    Deploys the operator (through KubeFence by default), then runs the
    scanner loop against the live store: every tick refreshes the
    vulndb feed, matches version-live CVE triggers against a store
    snapshot, and publishes ``kind="scan"`` events +
    ``kubefence_scan_findings_total`` metrics.  ``--once`` runs a
    single tick; ``--ticks N`` a bounded loop; default loops until
    interrupted.  Exit 1 when findings at or above ``--fail-severity``
    are unmitigated (not fenced by the active policy)."""
    import json as _json

    from repro.attacks.catalog import cve_attacks
    from repro.attacks.injector import build_malicious_manifests
    from repro.core.pipeline import generate_policy
    from repro.core.proxy import KubeFenceProxy
    from repro.helm.chart import render_chart
    from repro.k8s.apiserver import Cluster
    from repro.obs.analytics import EventBus
    from repro.obs.metrics import REGISTRY
    from repro.operators.client import DirectTransport, OperatorClient
    from repro.scan import CVEScanner, JsonFeed

    chart = _load_chart(args.operator or "nginx")
    validator = generate_policy(chart)
    bus = EventBus()
    cluster = Cluster(event_bus=bus)
    if args.unprotected:
        client = OperatorClient(DirectTransport(cluster.api))
    else:
        client = OperatorClient(KubeFenceProxy(cluster.api, validator, event_bus=bus))
    deployed = client.deploy_chart(chart)
    if not deployed.all_ok:
        print("error: benign deployment was blocked", file=sys.stderr)
        return 2
    if args.hostile:
        # Pre-existing exposure: hostile manifests admitted straight
        # into the store (as if committed before KubeFence was added).
        direct = OperatorClient(DirectTransport(cluster.api))
        malicious = build_malicious_manifests(
            chart.name, render_chart(chart), tuple(cve_attacks()[: args.hostile])
        )
        for item in malicious:
            direct.submit_manifest(chart.name, item.manifest, verb="update")

    scanner = CVEScanner(
        cluster,
        feed=JsonFeed(args.feed) if args.feed else None,
        cluster_version=args.cluster_version,
        assume_vulnerable=args.assume_vulnerable,
        interval=args.interval,
        event_bus=bus,
        registry=REGISTRY,
        validator=None if args.unprotected else validator,
    )
    ticks = 1 if args.once else args.ticks
    try:
        report = scanner.run(ticks=ticks)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        report = scanner.latest
    if report is None:  # pragma: no cover - stop before first tick
        return 2
    scan_events = len(bus.events(kind="scan"))
    if args.json:
        print(_json.dumps(scanner.status(), indent=2, sort_keys=True))
    else:
        counts = report.counts
        print(
            f"scan tick {report.tick}: {report.objects_scanned} object(s) at "
            f"revision {report.store_revision}, feed serial "
            f"{report.feed_serial} ({report.feed_entries} entries, "
            f"{report.live_cves} live), {len(report.findings)} finding(s) "
            f"[{', '.join(f'{s}={n}' for s, n in counts.items() if n)}]"
            if report.findings else
            f"scan tick {report.tick}: {report.objects_scanned} object(s), "
            f"no findings ({report.live_cves} live CVE(s) checked)"
        )
        for finding in sorted(report.findings, key=lambda f: f.key):
            state = "mitigated" if finding.mitigated else "OPEN"
            print(
                f"  {finding.cve_id} [{finding.severity}] "
                f"{finding.kind}/{finding.name} {finding.field} ({state})"
            )
        print(f"  {scan_events} scan event(s) published on the bus",
              file=sys.stderr)
    failing = report.unmitigated(args.fail_severity)
    return 1 if failing else 0


def cmd_campaign_matrix(args: argparse.Namespace) -> int:
    """The scenario-diverse campaign matrix (docs/SECURITY_SCANNING.md).

    Runs attacks × {single, multi-tenant} × {no-chaos, chaos} ×
    delivery plus fuzz-variant cells; every cell's verdict comes from
    the forensics engine + the CVE scanner.  Exit 1 on any breached
    (non-contained) cell."""
    import json as _json

    from repro.attacks.catalog import get_attack
    from repro.attacks.matrix import MatrixConfig, run_matrix

    if args.smoke:
        config = MatrixConfig.smoke(
            seed=args.seed, operator=args.operator or "nginx"
        )
    else:
        config = MatrixConfig(
            operator=args.operator or "nginx", seed=args.seed
        )
    if args.attacks:
        config = replace(
            config,
            attacks=tuple(
                get_attack(a.strip()) for a in args.attacks.split(",")
            ),
        )
    if args.fuzz_variants is not None:
        config = replace(config, fuzz_variants=args.fuzz_variants)

    report = run_matrix(config)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json() + "\n")
        print(f"wrote {out}", file=sys.stderr)
    if args.bench_out:
        bench = Path(args.bench_out)
        bench.parent.mkdir(parents=True, exist_ok=True)
        bench.write_text(
            _json.dumps(report.bench_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {bench}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(
            f"campaign matrix: {len(report.cells)} cell(s), "
            f"{len(report.cells) - len(report.breached)} contained, "
            f"{len(report.breached)} breached "
            f"({report.containment_rate:.1%} containment) "
            f"in {report.wall_time_s:.1f}s"
        )
        print(
            f"unprotected baseline: {report.baseline_mitigated}/"
            f"{len(report.baseline)} mitigated -> mitigation gap "
            f"{report.mitigation_gap:.1%}"
        )
        for verdict in report.breached:
            print(f"  BREACH {verdict.cell.cell_id}: "
                  f"{_json.dumps(verdict.to_dict(), sort_keys=True)}")
    return 1 if report.breached else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KubeFence reproduction: workload-aware K8s API filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("operators", help="list built-in evaluation operators")

    generate = sub.add_parser(
        "generate", help="generate a validator from a chart or kustomization"
    )
    generate.add_argument(
        "chart",
        help="built-in operator name, chart directory, or kustomize directory",
    )
    generate.add_argument("-o", "--output", help="write the validator YAML here")
    generate.add_argument(
        "--explore-booleans",
        action="store_true",
        help="treat boolean values as two-valued enums during exploration",
    )
    generate.add_argument(
        "--overlay",
        action="append",
        help="kustomize mode: overlay directory (repeatable)",
    )

    validate = sub.add_parser("validate", help="validate manifests against a validator")
    validate.add_argument("validator", help="validator YAML produced by 'generate'")
    validate.add_argument("manifests", nargs="+", help="manifest YAML files")

    lint = sub.add_parser("lint", help="statically lint a chart or manifest file")
    lint.add_argument("target", help="operator name, chart directory, or manifest YAML")
    lint.add_argument("--ignore", action="append", help="rule id to skip (repeatable)")

    inspect = sub.add_parser("inspect", help="summarize a validator")
    inspect.add_argument("validator", help="validator YAML file")

    diff = sub.add_parser("diff", help="policy drift between two validators")
    diff.add_argument("old", help="previous validator YAML")
    diff.add_argument("new", help="regenerated validator YAML")

    campaign = sub.add_parser("campaign", help="run the Table III attack campaign")
    campaign.add_argument("operator", nargs="?", help="one operator (default: all five)")
    campaign.add_argument(
        "--anomaly", action="store_true",
        help="run the anomaly detector in detection mode during the "
             "KubeFence phase and report its alerts",
    )

    sub.add_parser("surface", help="print Fig. 9 and Table I")

    coverage = sub.add_parser("coverage", help="print the Fig. 5 analysis")
    coverage.add_argument("--seed", type=int, default=1337)

    overhead = sub.add_parser("overhead", help="measure Table IV overhead")
    overhead.add_argument("operator", nargs="?", help="one operator (default: all five)")
    overhead.add_argument("-r", "--repetitions", type=int, default=10)
    overhead.add_argument("--network-delay-ms", type=float, default=4.0)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a server's /obs/timeseries ring",
    )
    top.add_argument("url", help="base URL of a running proxy or API server")
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh seconds"
    )
    top.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N refreshes (0 = run until interrupted)",
    )
    top.add_argument(
        "--json", action="store_true",
        help="print the newest ring point as JSON instead of the dashboard",
    )

    obs = sub.add_parser(
        "obs", help="dump a metrics/trace snapshot of the enforcement stack"
    )
    obs.add_argument("operator", nargs="?", help="operator to exercise (default: nginx)")
    obs.add_argument("--traces", type=int, default=8, help="trace count to print")
    obs.add_argument("--json", action="store_true", help="machine-readable output")

    chaos = sub.add_parser(
        "chaos", help="run fault-injection scenarios; print the survival report"
    )
    chaos.add_argument(
        "operator", nargs="?", help="operator chart to deploy (default: nginx)"
    )
    chaos.add_argument(
        "--scenario", action="append",
        help="scenario name (repeatable; default: all built-in scenarios)",
    )
    chaos.add_argument("--seed", type=int, default=1337, help="fault-injector seed")
    chaos.add_argument("--rounds", type=int, default=10, help="apply rounds per scenario")
    chaos.add_argument("--json", action="store_true", help="machine-readable output")

    crashtest = sub.add_parser(
        "crashtest",
        help="kill/restart a durable API server at WAL commit points; "
             "verify no write is lost, resurrected, or failed open",
    )
    crashtest.add_argument(
        "operator", nargs="?", help="operator chart to deploy (default: nginx)"
    )
    crashtest.add_argument("--seed", type=int, default=1337, help="kill-schedule seed")
    crashtest.add_argument(
        "--cycles", type=int, default=10, help="kill/restart cycles"
    )
    crashtest.add_argument(
        "--writes", type=int, default=6,
        help="in-range writes per cycle (the kill ordinal is drawn from these)",
    )
    crashtest.add_argument(
        "--fsync", default="batch", choices=["always", "batch", "never"],
        help="WAL fsync policy for the child (default: batch)",
    )
    crashtest.add_argument(
        "--data-dir",
        help="durable state directory (default: fresh tempdir, removed after)",
    )
    crashtest.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: 10 cycles, 4 writes/cycle",
    )
    crashtest.add_argument("--json", action="store_true", help="machine-readable output")
    crashtest.add_argument("-o", "--output", help="write the JSON report here")

    slo = sub.add_parser(
        "slo", help="evaluate SLO burn-rate alerts over live traffic"
    )
    slo.add_argument(
        "operator", nargs="?", help="operator chart to deploy (default: nginx)"
    )
    slo.add_argument(
        "--chaos", action="store_true",
        help="inject upstream faults so the burn-rate alert fires",
    )
    slo.add_argument(
        "--scenario",
        help="fault scenario for --chaos (default: blackout)",
    )
    slo.add_argument("--seed", type=int, default=1337, help="fault-injector seed")
    slo.add_argument(
        "--rounds", type=int, default=3, help="reconcile rounds to drive"
    )
    slo.add_argument("--json", action="store_true", help="machine-readable output")

    refine = sub.add_parser(
        "refine",
        help="audit-driven policy refinement with shadow-mode canary",
    )
    refine.add_argument(
        "operator", nargs="?", help="operator chart to deploy (default: nginx)"
    )
    refine.add_argument(
        "--rounds", type=int, default=8,
        help="reconcile rounds per phase (profile, then shadow)",
    )
    refine.add_argument(
        "--shadow-fraction", type=float, default=1.0,
        help="fraction of live writes shadow-evaluated (default 1.0; "
             "production posture is 0.125)",
    )
    refine.add_argument(
        "--min-samples", type=int, default=5,
        help="minimum allowed requests per kind before refining it",
    )
    refine.add_argument(
        "--min-shadow-samples", type=int, default=10,
        help="minimum shadow evaluations before a promote/rollback verdict",
    )
    refine.add_argument(
        "--promote", action="store_true",
        help="install the candidate when the verdict clears the gate",
    )
    refine.add_argument("--json", action="store_true", help="machine-readable output")

    forensics = sub.add_parser(
        "forensics", help="reconstruct per-identity attack timelines"
    )
    forensics.add_argument(
        "operator", nargs="?", help="operator for campaign mode (default: nginx)"
    )
    forensics.add_argument(
        "--events", help="replay a recorded JSONL event stream instead"
    )
    forensics.add_argument(
        "--identity", help="only reconstruct this identity's timelines"
    )
    forensics.add_argument(
        "--anomaly", action="store_true",
        help="campaign mode: also run the anomaly detector",
    )
    forensics.add_argument("--json", action="store_true", help="machine-readable output")

    scan = sub.add_parser(
        "scan", help="continuous CVE scanning of the live cluster store"
    )
    scan.add_argument(
        "operator", nargs="?", help="operator chart to deploy (default: nginx)"
    )
    scan.add_argument(
        "--once", action="store_true", help="run exactly one scan tick"
    )
    scan.add_argument(
        "--ticks", type=int, default=None,
        help="run this many ticks then exit (default: loop until ^C)",
    )
    scan.add_argument(
        "--interval", type=float, default=5.0,
        help="seconds between ticks in looping mode (default 5)",
    )
    scan.add_argument(
        "--feed", help="JSON vulnerability feed file (re-read every tick)"
    )
    scan.add_argument(
        "--cluster-version", default="1.28.6",
        help="cluster version for the fixed-in predicate (default 1.28.6)",
    )
    scan.add_argument(
        "--assume-vulnerable", action="store_true",
        help="treat every triggerable CVE as live regardless of version "
             "(the Table II/III posture)",
    )
    scan.add_argument(
        "--unprotected", action="store_true",
        help="deploy without KubeFence in the path (findings stay "
             "unmitigated; demo/baseline mode)",
    )
    scan.add_argument(
        "--hostile", type=int, default=0, metavar="N",
        help="admit N hostile manifests directly into the store first "
             "(pre-existing exposure demo)",
    )
    scan.add_argument(
        "--fail-severity", default="critical",
        choices=("critical", "high", "medium", "low"),
        help="exit 1 when unmitigated findings at or above this severity "
             "remain (default: critical)",
    )
    scan.add_argument("--json", action="store_true", help="machine-readable output")

    matrix = sub.add_parser(
        "campaign-matrix",
        help="scenario-diverse attack matrix with forensics-proven containment",
    )
    matrix.add_argument(
        "operator", nargs="?", help="operator chart to attack (default: nginx)"
    )
    matrix.add_argument("--seed", type=int, default=1337, help="matrix seed")
    matrix.add_argument(
        "--smoke", action="store_true",
        help="CI-sized matrix (6 attacks, helm delivery only)",
    )
    matrix.add_argument(
        "--attacks", help="comma-separated attack ids (e.g. E1,E2,M1)"
    )
    matrix.add_argument(
        "--fuzz-variants", type=int, default=None,
        help="fuzz-variant cells per CVE attack (default 1)",
    )
    matrix.add_argument(
        "-o", "--output", help="write the deterministic matrix report here"
    )
    matrix.add_argument(
        "--bench-out",
        help="write BENCH_campaign.json headline figures here",
    )
    matrix.add_argument("--json", action="store_true", help="print the full report")

    return parser


_COMMANDS = {
    "operators": cmd_operators,
    "generate": cmd_generate,
    "validate": cmd_validate,
    "lint": cmd_lint,
    "inspect": cmd_inspect,
    "diff": cmd_diff,
    "campaign": cmd_campaign,
    "surface": cmd_surface,
    "coverage": cmd_coverage,
    "overhead": cmd_overhead,
    "top": cmd_top,
    "obs": cmd_obs,
    "chaos": cmd_chaos,
    "crashtest": cmd_crashtest,
    "slo": cmd_slo,
    "refine": cmd_refine,
    "forensics": cmd_forensics,
    "scan": cmd_scan,
    "campaign-matrix": cmd_campaign_matrix,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Standard CLI behaviour when piped into `head` and friends.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
