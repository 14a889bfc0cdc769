"""Plain-text rendering of the paper's tables and figures.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.coverage import Fig5Data
from repro.analysis.overhead import OverheadRow
from repro.analysis.reduction import ReductionRow, average_improvement
from repro.analysis.surface import SurfaceUsage
from repro.attacks.runner import CampaignResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Simple aligned text table."""
    materialized = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def render_fig5(data: Fig5Data) -> str:
    """Fig. 5: tests covering vulnerable code, per CVE x category."""
    headers = ["CVE"] + data.categories
    rows = [
        [cve] + [data.rows[cve].get(cat, 0) for cat in data.categories]
        for cve in sorted(data.rows)
    ]
    excl_cov, excl_total = data.covering_excluding_largest
    footer = (
        f"\ncorpus: {data.total_tests} e2e tests; "
        f"{data.covering_tests} cover vulnerable code "
        f"({100 * data.covering_fraction:.2f}%); "
        f"excluding the largest category: {excl_cov}/{excl_total}; "
        f"CVEs with zero coverage: {len(data.uncovered_cves)}"
    )
    return format_table(headers, rows) + footer


def render_fig9(matrix: dict[str, SurfaceUsage], kinds: Sequence[str]) -> str:
    """Fig. 9: % of fields used per workload x endpoint."""
    headers = ["endpoint"] + list(matrix)
    rows = []
    for kind in kinds:
        rows.append(
            [kind] + [f"{matrix[op].usage_percent(kind):5.1f}%" for op in matrix]
        )
    return format_table(headers, rows)


def render_table1(rows: list[ReductionRow]) -> str:
    """Table I: attack surface reduction by RBAC vs KubeFence."""
    body = [
        [
            r.operator,
            f"{r.rbac_restrictable} / {r.total_fields}",
            f"{r.kubefence_restrictable} / {r.total_fields}",
            f"{r.rbac_percent:.2f} %",
            f"{r.kubefence_percent:.2f} %",
            f"+{r.improvement:.2f}",
        ]
        for r in rows
    ]
    table = format_table(
        ["Workload", "RBAC fields", "KubeFence fields", "RBAC", "KubeFence", "Δ (pp)"],
        body,
    )
    return table + f"\naverage improvement over RBAC: {average_improvement(rows):.2f} pp"


def render_table3(results: list[CampaignResult]) -> str:
    """Table III: mitigated CVEs and misconfigurations."""
    body = []
    for r in results:
        rc, rm = r.rbac_counts
        kc, km = r.kubefence_counts
        n_cve = sum(1 for o in r.rbac if o.attack.is_cve)
        n_mis = len(r.rbac) - n_cve
        body.append(
            [r.operator, f"{rc}/{n_cve}", f"{kc}/{n_cve}", f"{rm}/{n_mis}", f"{km}/{n_mis}"]
        )
    return format_table(
        ["Workload", "CVEs RBAC", "CVEs KubeFence", "Misconf RBAC", "Misconf KubeFence"],
        body,
    )


def render_table4(rows: list[OverheadRow]) -> str:
    """Table IV: RBAC vs KubeFence request latency.

    Besides the paper's RTT columns, each row reports where the
    KubeFence time goes: decision-cache hits/misses and the p50/p99 of
    the per-request validation latency of full validations.  The
    p50/p99 are read from ``kubefence_validation_latency_ns{outcome="miss"}``
    through :func:`repro.obs.metrics.bucket_quantile`, the
    bucket-interpolated estimate ``repro top`` and any Prometheus
    ``histogram_quantile`` over ``/metrics`` compute -- not from a
    separate sample ring.
    """
    body = [
        [
            r.operator,
            f"{r.rbac_ms_mean:.1f} ± {r.rbac_ms_std:.1f}",
            f"{r.kubefence_ms_mean:.1f} ± {r.kubefence_ms_std:.1f}",
            f"+{r.increase_ms:.1f} ({r.increase_percent:.2f}%)",
            f"{r.cache_hits}/{r.cache_misses}",
            f"{r.validation_ns_p50 / 1000:.0f}/{r.validation_ns_p99 / 1000:.0f}",
        ]
        for r in rows
    ]
    return format_table(
        [
            "Operator",
            "RBAC RTT (ms)",
            "KubeFence RTT (ms)",
            "Increase (ms, %)",
            "cache hit/miss",
            "valid. p50/p99 (µs)",
        ],
        body,
    )


def render_table2() -> str:
    """Table II: the catalog of malicious specifications."""
    from repro.attacks.catalog import ATTACKS

    body = [
        [a.attack_id, a.title, ", ".join(a.targeted_fields), a.reference]
        for a in ATTACKS
    ]
    return format_table(["ID", "Exploit/Misconfiguration", "Targeted API Field", "Ref."], body)
