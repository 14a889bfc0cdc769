"""Runtime overhead measurement: RBAC vs KubeFence (Sec. VI-E, Table IV).

Measures the round-trip time of deploying each operator's full manifest
set (the ``kubectl apply`` of a Day-1 install), under two
configurations:

- **RBAC** -- requests go straight to the API server with the
  audit2rbac-inferred policy in place;
- **KubeFence** -- the same requests pass through the enforcement
  proxy, which validates each payload before forwarding.

Both arms run on the deterministic in-process transport (pure compute
cost); the real-socket figure comes from the end-to-end harness in
``benchmarks/e2e/``.  An optional simulated per-request network delay
models the client-to-control-plane link of the paper's two-VM testbed;
it is applied identically to both configurations, so the *absolute*
increase attributable to KubeFence is still honestly measured.

Counters ride the observability layer (:mod:`repro.obs`): per-proxy
``ProxyStats`` registries are merged across repetitions and the
resulting window snapshot is attached to each :class:`OverheadRow`, so
Table IV's cache/latency columns are the same series a ``/metrics``
scrape would report.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.enforcement import Validator
from repro.core.pipeline import generate_policy
from repro.core.proxy import KubeFenceProxy, ProxyStats
from repro.helm.chart import Chart, render_chart
from repro.k8s.apiserver import ApiRequest, ApiResponse, Cluster
from repro.operators.client import DirectTransport, OperatorClient
from repro.rbac import RBACAuthorizer, infer_policy


class DelayedTransport:
    """Wraps a transport, adding a fixed per-request delay (models the
    client <-> control-plane network link; applied to both arms)."""

    def __init__(self, inner: Any, delay_ms: float):
        self.inner = inner
        self.delay_s = delay_ms / 1000.0

    def submit(self, request: ApiRequest) -> ApiResponse:
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        return self.inner.submit(request)


@dataclass
class OverheadRow:
    """One Table IV row."""

    operator: str
    rbac_ms_mean: float
    rbac_ms_std: float
    kubefence_ms_mean: float
    kubefence_ms_std: float
    #: aggregated proxy counters across repetitions (where time goes).
    cache_hits: int = 0
    cache_misses: int = 0
    validation_ns_p50: float = 0.0
    validation_ns_p99: float = 0.0
    #: mean gate latency over *all* validated requests: cache hits
    #: contribute their lookup cost rather than being dropped, so this
    #: is the honest Table IV mean (see ProxyStats.validation_ns_mean).
    validation_ns_mean: float = 0.0
    #: windowed metrics delta for the KubeFence arm (registry series ->
    #: increment over the measurement window), for the obs trajectory.
    metrics_window: dict[str, float] = field(default_factory=dict)

    @property
    def increase_ms(self) -> float:
        return self.kubefence_ms_mean - self.rbac_ms_mean

    @property
    def increase_percent(self) -> float:
        if self.rbac_ms_mean == 0:
            return 0.0
        return 100.0 * self.increase_ms / self.rbac_ms_mean


@dataclass
class OverheadConfig:
    repetitions: int = 10
    #: simulated per-request network delay (both arms); 0 disables.
    network_delay_ms: float = 0.0
    #: cost of the proxy's localhost hop relative to the client link.
    localhost_hop_ratio: float = 0.1
    #: decision-cache capacity for the KubeFence arm (0 disables; the
    #: default measurement keeps it on, mirroring deployment).
    cache_size: int = 1024


def _learn_rbac_policy(chart: Chart) -> Any:
    cluster = Cluster()
    client = OperatorClient(DirectTransport(cluster.api))
    result = client.deploy_chart(chart)
    client.reconcile(result)
    return infer_policy(cluster.api.audit_log, f"{chart.name}-operator")


def _time_deploys(
    make_client: Callable[[], OperatorClient], chart: Chart, repetitions: int
) -> list[float]:
    """Time *repetitions* full deployments, each on a fresh cluster
    (deployments are create-heavy; reusing a cluster would measure
    conflicts instead)."""
    samples: list[float] = []
    manifests = render_chart(chart)
    for _ in range(repetitions):
        client = make_client()
        started = time.perf_counter()
        result = client.apply_manifests(chart.name, manifests)
        elapsed = time.perf_counter() - started
        if not result.all_ok:
            raise RuntimeError(f"benign deployment blocked during overhead run: {chart.name}")
        samples.append(elapsed * 1000.0)
    return samples


def measure_overhead(
    chart: Chart,
    config: OverheadConfig | None = None,
    validator: Validator | None = None,
) -> OverheadRow:
    """Measure RTT for one operator under RBAC and under KubeFence."""
    config = config or OverheadConfig()
    rbac_policy = _learn_rbac_policy(chart)
    validator = validator or generate_policy(chart)
    proxies: list[KubeFenceProxy] = []

    def rbac_client() -> OperatorClient:
        cluster = Cluster(authorizer=RBACAuthorizer(rbac_policy))
        transport: Any = DirectTransport(cluster.api)
        if config.network_delay_ms:
            transport = DelayedTransport(transport, config.network_delay_ms)
        return OperatorClient(transport)

    def kubefence_client() -> OperatorClient:
        cluster = Cluster()
        proxy = KubeFenceProxy(cluster.api, validator, cache_size=config.cache_size)
        proxies.append(proxy)
        transport: Any = proxy
        if config.network_delay_ms:
            # The proxy runs on the control-plane node (as the paper's
            # mitmproxy Pod does): the client->proxy leg costs the same
            # as the client->API-server link, and the proxy->API-server
            # leg is a cheap localhost hop.
            transport = DelayedTransport(
                transport, config.network_delay_ms * (1.0 + config.localhost_hop_ratio)
            )
        return OperatorClient(transport)

    rbac_samples = _time_deploys(rbac_client, chart, config.repetitions)
    kf_samples = _time_deploys(kubefence_client, chart, config.repetitions)
    # Fold the per-proxy registries into one façade: the
    # cross-repetition Table IV totals.
    totals = ProxyStats()
    for proxy in proxies:
        totals.merge(proxy.stats)
    return OverheadRow(
        operator=chart.name,
        rbac_ms_mean=statistics.fmean(rbac_samples),
        rbac_ms_std=statistics.pstdev(rbac_samples),
        kubefence_ms_mean=statistics.fmean(kf_samples),
        kubefence_ms_std=statistics.pstdev(kf_samples),
        cache_hits=totals.cache_hits,
        cache_misses=totals.cache_misses,
        validation_ns_p50=totals.validation_ns_p50,
        validation_ns_p99=totals.validation_ns_p99,
        validation_ns_mean=totals.validation_ns_mean,
        metrics_window=totals.snapshot(),
    )


# ---------------------------------------------------------------------------
# Resource usage (the paper's Table IV footnote: CPU +1.21%, +85.54 MiB)
# ---------------------------------------------------------------------------


@dataclass
class ResourceUsage:
    """CPU and memory cost attributable to KubeFence."""

    operator: str
    cpu_overhead_percent: float
    validator_memory_bytes: int
    proxy_state_memory_bytes: int

    @property
    def memory_mib(self) -> float:
        return (self.validator_memory_bytes + self.proxy_state_memory_bytes) / (1024 * 1024)


def measure_resource_usage(
    chart: Chart, repetitions: int = 5, validator: Validator | None = None
) -> ResourceUsage:
    """Measure KubeFence's CPU and memory footprint.

    CPU: process time of deploying the operator's manifests through the
    proxy vs directly, as a relative increase (the paper reports +1.21%
    for the mitmproxy container; an in-process proxy has no container
    baseline, so the validation share of deploy CPU is the comparable
    quantity).  Memory: tracemalloc-attributed size of the loaded
    validator plus the proxy's runtime state after the deployments.
    """
    import tracemalloc

    manifests = render_chart(chart)

    # -- memory: allocate the validator (and proxy) under tracemalloc.
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    validator = validator if validator is not None else generate_policy(chart)
    after_validator, _ = tracemalloc.get_traced_memory()
    cluster = Cluster()
    proxy = KubeFenceProxy(cluster.api, validator)
    client = OperatorClient(proxy)
    result = client.apply_manifests(chart.name, manifests)
    if not result.all_ok:
        tracemalloc.stop()
        raise RuntimeError(f"benign deployment blocked during resource run: {chart.name}")
    after_proxy, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # -- CPU: process-time comparison over fresh clusters.
    def cpu_of(make_client: Callable[[], OperatorClient]) -> float:
        started = time.process_time()
        for _ in range(repetitions):
            deploy_client = make_client()
            deploy_result = deploy_client.apply_manifests(chart.name, manifests)
            if not deploy_result.all_ok:
                raise RuntimeError("benign deployment blocked during CPU run")
        return time.process_time() - started

    direct_cpu = cpu_of(lambda: OperatorClient(DirectTransport(Cluster().api)))
    proxied_cpu = cpu_of(
        lambda: OperatorClient(KubeFenceProxy(Cluster().api, validator))
    )
    overhead = 100.0 * (proxied_cpu - direct_cpu) / direct_cpu if direct_cpu else 0.0
    return ResourceUsage(
        operator=chart.name,
        cpu_overhead_percent=max(overhead, 0.0),
        validator_memory_bytes=max(after_validator - before, 0),
        proxy_state_memory_bytes=max(after_proxy - after_validator, 0),
    )
