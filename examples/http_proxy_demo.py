#!/usr/bin/env python3
"""The paper's deployment topology over real TCP sockets.

Client --HTTP--> KubeFence proxy --HTTP--> mini K8s API server

This is the mitmproxy-style placement from Sec. V-B: all client traffic
goes through the proxy, which validates write payloads before
forwarding.  The script measures the round-trip latency with and
without the proxy (the Table IV quantity), then demonstrates a denial.

Run:  python examples/http_proxy_demo.py
"""

import time

from repro.core.pipeline import generate_policy
from repro.core.proxy import HttpKubeFenceProxy
from repro.helm.chart import render_chart
from repro.k8s.apiserver import Cluster
from repro.k8s.http import HttpApiServer, HttpClient
from repro.operators import get_chart
from repro.yamlutil import deep_copy, set_path


def time_deploy(client: HttpClient, manifests: list[dict]) -> float:
    started = time.perf_counter()
    for manifest in manifests:
        status, body = client.apply(manifest)
        assert status in (200, 201), (status, body)
    return (time.perf_counter() - started) * 1000.0


def main() -> None:
    chart = get_chart("rabbitmq")
    validator = generate_policy(chart)
    manifests = render_chart(chart, release_name="net")

    # Direct topology (baseline).
    direct_cluster = Cluster()
    with HttpApiServer(direct_cluster.api) as server:
        direct_ms = time_deploy(HttpClient(server.base_url), manifests)
        print(f"direct   client -> api-server        : {direct_ms:7.1f} ms "
              f"({len(manifests)} manifests)")

    # Proxied topology (KubeFence).
    proxied_cluster = Cluster()
    with HttpApiServer(proxied_cluster.api) as server:
        with HttpKubeFenceProxy(server.base_url, validator) as proxy:
            client = HttpClient(proxy.base_url, username="rabbitmq-operator")
            proxied_ms = time_deploy(client, manifests)
            print(f"proxied  client -> kubefence -> api : {proxied_ms:7.1f} ms "
                  f"(+{100 * (proxied_ms - direct_ms) / direct_ms:.1f}%)")

            # An attack over the wire: privileged container.
            bad = deep_copy(next(m for m in manifests if m["kind"] == "StatefulSet"))
            set_path(
                bad,
                "spec.template.spec.containers[0].securityContext.privileged",
                True,
            )
            status, body = client.apply(bad)
            print(f"\nattack over HTTP: status={status}")
            print(f"  {body['message'][:120]}...")
            stats = proxy.stats
            validation_ns = stats.latency_hit.sum + stats.latency_miss.sum
            print(f"proxy stats: {stats.requests.value:.0f} requests, "
                  f"{stats.denied.value:.0f} denied, "
                  f"{validation_ns / 1e6:.2f} ms total validation")


if __name__ == "__main__":
    main()
