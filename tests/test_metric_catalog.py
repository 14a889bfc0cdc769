"""Every family the live proxy and API server expose is documented, and
every documented one is exposed: the "Metric catalog" tables in
``docs/OBSERVABILITY.md`` are diffed both ways against the ``/metrics``
scrape of a loopback ``HttpKubeFenceProxy`` -> ``HttpApiServer`` after
one allowed and one denied write.  The documented denial reasons are
diffed against what ``denial_reason`` can return."""

import re
from pathlib import Path
from urllib import request as urllib_request

import pytest

from repro.core.pipeline import generate_policy
from repro.core.proxy import _DENIAL_REASONS, HttpKubeFenceProxy, denial_reason
from repro.helm.chart import render_chart
from repro.k8s.apiserver import Cluster
from repro.k8s.http import HttpApiServer, HttpClient
from repro.operators import get_chart
from repro.yamlutil import deep_copy, set_path

ROOT = Path(__file__).resolve().parent.parent
FIRST_CELL = re.compile(r"^\| `([a-z_-]+)`")


def _table(heading: str) -> set[str]:
    """The backticked first cells of the table under *heading*."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text.split(f"\n### {heading}", 1)[1].split("\n#", 1)[0]
    return {m.group(1) for line in section.splitlines() if (m := FIRST_CELL.match(line))}


def _families(base_url: str) -> set[str]:
    with urllib_request.urlopen(base_url + "/metrics") as reply:
        text = reply.read().decode()
    return {line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")}


@pytest.fixture(scope="module")
def scraped():
    chart = get_chart("nginx")
    deployment = next(m for m in render_chart(chart) if m["kind"] == "Deployment")
    denied = deep_copy(deployment)
    set_path(denied, "spec.template.spec.hostNetwork", True)
    with HttpApiServer(Cluster().api) as server:
        with HttpKubeFenceProxy(server.base_url, generate_policy(chart)) as proxy:
            client = HttpClient(proxy.base_url, username="nginx-operator")
            assert client.create(deployment)[0] == 201
            assert client.apply(denied)[0] == 403
            return {"proxy": _families(proxy.base_url),
                    "apiserver": _families(server.base_url)}


@pytest.mark.parametrize("component,heading", [("proxy", "Proxy"), ("apiserver", "API server")])
def test_catalog_table_matches_the_scrape_both_ways(scraped, component, heading):
    documented = _table(heading)
    assert scraped[component] - documented == set(), "exposed but not documented"
    assert documented - scraped[component] == set(), "documented but not exposed"


def test_documented_denial_reasons_are_denial_reasons_outputs():
    emitted = {denial_reason([needle]) for needle, _ in _DENIAL_REASONS}
    emitted |= {denial_reason(["no needle matches this"]), denial_reason([])}
    assert _table("Denial reasons") == emitted
