"""Table IV -- RBAC vs KubeFence average request latency.

Two measurements:

1. the Table IV regeneration: full-deploy RTT for each operator under
   RBAC and under the KubeFence proxy, 10 repetitions, with a modelled
   client<->control-plane link so relative overheads are comparable to
   the paper's two-VM testbed (expected shape: +10-30% on deploy RTT,
   absolute increases far below user-visible latency);
2. pytest-benchmark timings of the per-request validation cost itself
   (the quantity the paper attributes the overhead to).
"""

import statistics

from repro.analysis.overhead import OverheadConfig, measure_overhead
from repro.analysis.report import render_table4
from repro.core.pipeline import generate_policy
from repro.core.proxy import KubeFenceProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import ApiRequest, Cluster, User
from repro.operators import OPERATOR_NAMES, get_chart


def test_table4_overhead(benchmark, emit_artifact):
    config = OverheadConfig(repetitions=10, network_delay_ms=4.0)

    def measure_nginx():
        return measure_overhead(get_chart("nginx"), config)

    row = benchmark.pedantic(measure_nginx, rounds=1, iterations=1)
    assert row.kubefence_ms_mean > row.rbac_ms_mean

    rows = [row] + [
        measure_overhead(get_chart(name), config)
        for name in OPERATOR_NAMES
        if name != "nginx"
    ]
    rows.sort(key=lambda r: r.operator)
    for r in rows:
        assert 0 < r.increase_percent < 60, (r.operator, r.increase_percent)

    mean_pct = statistics.fmean(r.increase_percent for r in rows)
    emit_artifact(
        "table4_overhead",
        render_table4(rows)
        + f"\nmean relative overhead: {mean_pct:.2f}% (paper: ~21%)",
    )


def test_single_request_validation_cost(benchmark, validators):
    """The marginal cost KubeFence adds to one write request."""
    validator = validators["sonarqube"]  # largest validator
    deployment = next(
        m for m in render_chart(get_chart("sonarqube")) if m["kind"] == "Deployment"
    )
    result = benchmark(validator.validate, deployment)
    assert result.allowed


def test_proxied_request_roundtrip(benchmark, validators):
    """Full proxy path: validate + forward + persist (update verb).

    The proxy counters are checked as a *windowed* delta
    (``snapshot()`` before / after, diffed with :func:`repro.obs.delta`)
    rather than as absolute values: the warmup create is wiped by
    ``reset()``, so the window covers exactly the benchmarked traffic.
    """
    from repro.obs import delta

    cluster = Cluster()
    proxy = KubeFenceProxy(cluster.api, validators["nginx"])
    deployment = next(
        m for m in render_chart(get_chart("nginx")) if m["kind"] == "Deployment"
    )
    proxy.submit(ApiRequest.from_manifest(deployment, User.admin(), "create"))
    request = ApiRequest.from_manifest(deployment, User.admin(), "update")

    registry = proxy.stats.registry
    registry.reset()  # drop the warmup create from the window
    before = registry.snapshot()
    response = benchmark(proxy.submit, request)
    assert response.ok

    window = delta(before, registry.snapshot())
    requests_in_window = window.get("kubefence_requests_total", 0)
    assert requests_in_window >= 1
    assert window.get("kubefence_requests_validated_total", 0) == requests_in_window
    # Identical resubmissions are the decision cache's steady state:
    # after the first miss, every request in the window is a hit.
    assert window.get("kubefence_cache_hits_total", 0) >= requests_in_window - 1
    assert window.get("kubefence_requests_denied_total", 0) == 0


def test_unproxied_request_roundtrip(benchmark):
    """Baseline for the previous benchmark: same request, no proxy."""
    cluster = Cluster()
    deployment = next(
        m for m in render_chart(get_chart("nginx")) if m["kind"] == "Deployment"
    )
    cluster.api.handle(ApiRequest.from_manifest(deployment, User.admin(), "create"))
    request = ApiRequest.from_manifest(deployment, User.admin(), "update")

    response = benchmark(cluster.api.handle, request)
    assert response.ok


def test_table4_resource_usage(benchmark, emit_artifact):
    """The Table IV footnote: CPU and memory cost of the proxy.

    The paper reports +1.21% node CPU and +85.54 MiB for the mitmproxy
    container; in-process, the comparable quantities are the validation
    share of deploy CPU and the tracemalloc-attributed policy footprint.
    """
    from repro.analysis.overhead import measure_resource_usage

    usage = benchmark.pedantic(
        lambda: measure_resource_usage(get_chart("sonarqube"), repetitions=3),
        rounds=1,
        iterations=1,
    )
    emit_artifact(
        "table4_resource_usage",
        "\n".join(
            [
                "resource usage attributable to KubeFence (sonarqube):",
                f"  CPU overhead on deploy path : +{usage.cpu_overhead_percent:.1f}% of deploy compute",
                f"  validator memory            : {usage.validator_memory_bytes / 1024:.1f} KiB",
                f"  proxy runtime state         : {usage.proxy_state_memory_bytes / 1024:.1f} KiB",
                f"  total                       : {usage.memory_mib:.3f} MiB "
                "(paper: 85.54 MiB for the mitmproxy container)",
            ]
        ),
    )
