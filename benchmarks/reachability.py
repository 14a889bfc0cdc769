#!/usr/bin/env python3
"""Line-level reachability of ``src/repro`` under representative traffic.

The paper measures which parts of the Kubernetes API surface workloads
exercise (Fig. 5, Table I); this takes the same measurement of our own
code with the stdlib :mod:`trace` module.  Traffic: the ``CLI_SMOKE``
runs in-process through ``repro.cli.main``, then loopback HTTP client ->
``HttpKubeFenceProxy`` -> ``HttpApiServer`` (deploy, reconcile, attack,
read), with server threads traced via ``threading.settrace``.  Writes
``benchmarks/results/reachability.txt``, most never-executed lines
first.  A measurement tool, not a test:

    PYTHONPATH=src python benchmarks/reachability.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import threading
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
OUTPUT = ROOT / "benchmarks" / "results" / "reachability.txt"

CLI_SMOKE = (
    ["surface"],
    ["coverage", "--seed", "1337"],
    ["campaign", "nginx"],
    ["chaos", "--seed", "1337", "--rounds", "2"],
    ["campaign-matrix", "--smoke", "--seed", "1337"],
    ["scan", "--once"],
    ["refine"],
    ["slo"],
    ["obs"],
)


def cli_smoke() -> None:
    from repro.cli import main

    for argv in CLI_SMOKE:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main(argv)


def http_traffic() -> None:
    from repro.attacks import build_malicious_manifests
    from repro.core.pipeline import generate_policy
    from repro.core.proxy import HttpKubeFenceProxy
    from repro.helm.chart import render_chart
    from repro.k8s.apiserver import Cluster
    from repro.k8s.http import HttpApiServer, HttpClient
    from repro.operators import get_chart

    chart = get_chart("nginx")
    manifests = render_chart(chart)
    with HttpApiServer(Cluster().api) as server, \
            HttpKubeFenceProxy(server.base_url, generate_policy(chart)) as proxy:
        client = HttpClient(proxy.base_url)
        for manifest in manifests:  # Day-1 deploy
            client.create(manifest)
        for manifest in manifests:  # Day-2 reconcile: GET + PUT
            client.apply(manifest)
        for item in build_malicious_manifests(chart.name, manifests):
            client.apply(item.manifest)
        for manifest in manifests:
            client.get(manifest["kind"], manifest["metadata"]["name"])


def executable_lines(path: Path) -> set[int]:
    """Line numbers carrying bytecode, over every nested code object."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def report(counts: dict[tuple[str, int], int]) -> str:
    executed: dict[str, set[int]] = {}
    for filename, line in counts:
        executed.setdefault(str(Path(filename).resolve()), set()).add(line)
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        hit = len(lines & executed.get(str(path.resolve()), set()))
        rows.append((path.relative_to(PACKAGE.parent).as_posix(), len(lines), hit))
    rows.sort(key=lambda r: (r[2] - r[1], r[0]))
    rows.append(("TOTAL", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    out = [
        "# Line-level reachability of src/repro (stdlib trace). Traffic:",
        "# repro.cli.main " + " | ".join(" ".join(argv) for argv in CLI_SMOKE),
        "# + loopback HttpKubeFenceProxy -> HttpApiServer "
        "(deploy, reconcile, attack, read).",
        f"{'module':<44} {'executable':>10} {'executed':>9} {'never':>6} {'pct':>6}",
    ]
    for module, lines, hit in rows:
        pct = 100.0 * hit / lines if lines else 100.0
        out.append(f"{module:<44} {lines:>10} {hit:>9} {lines - hit:>6} {pct:>5.1f}%")
    return "\n".join(out) + "\n"


def main() -> int:
    # No ``ignoredirs``: trace caches its ignore verdict by bare module
    # name, so ignoring the stdlib would also drop repro's events.py,
    # parser.py, client.py, ...  The report filters by path instead.
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)
    try:
        tracer.runfunc(cli_smoke)
        tracer.runfunc(http_traffic)
    finally:
        threading.settrace(None)
    text = report(tracer.results().counts)
    OUTPUT.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
