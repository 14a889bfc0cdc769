"""Per-request phase attribution (``kubefence_phase_ns_total``).

The sampling profiler says where the *process* spends wall time; the
phase clock says where each *request* does.  Both hot paths (the
KubeFence proxy and the mini API server) stamp ``perf_counter_ns``
deltas into one of six phases:

======================  ====================================================
``authn``               identity extraction + authorization (proxy: path
                        routing + the identity it re-asserts upstream;
                        API server: routing + RBAC authorize)
``cache-probe``         decision-cache key + lookup (hits *and* the probe
                        cost of misses)
``validation``          the compiled policy-engine walk on a cache miss
``upstream``            the proxied upstream round trip (API server: the
                        admission chain + store commit it performs)
``telemetry``           event publication, shadow evaluation, audit, and
                        metric recording -- the in-process observability
                        cost the ROADMAP teardown tracks
``serialization``       request-body read/JSON parse + response encoding
======================  ====================================================

plus ``kubefence_request_wall_ns_total``, the handler-measured wall
time of the same requests, so coverage (``sum(phases)/wall``) is a
scrapeable honesty check -- the acceptance bar is >=90% for a
validated write.

Cost model: each phase attribute *is* the bound write handle's ``inc``
(per-thread lock-free cells, :meth:`_Metric.local`), so a phase stamp
is one attribute load plus one GIL-atomic float add.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "PHASES",
    "PHASE_METRIC",
    "PhaseClock",
    "WALL_METRIC",
    "phase_totals",
]

#: The closed phase taxonomy (metric label values; attribute names use
#: ``_`` for ``-``).
PHASES = (
    "authn",
    "cache-probe",
    "validation",
    "upstream",
    "telemetry",
    "serialization",
)

PHASE_METRIC = "kubefence_phase_ns_total"
WALL_METRIC = "kubefence_request_wall_ns_total"

_PHASE_HELP = (
    "Wall nanoseconds attributed to each request-processing phase "
    "(authn, cache-probe, validation, upstream, telemetry, "
    "serialization)."
)
_WALL_HELP = (
    "Handler-measured wall nanoseconds of the same requests; "
    "sum(kubefence_phase_ns_total)/this is the attribution coverage."
)


class PhaseClock:
    """Pre-bound phase write handles over one registry.

    Each attribute (``authn``, ``cache_probe``, ...) is the bound
    series' ``inc`` itself -- ``clock.validation(elapsed_ns)`` is the
    whole hot-path API.
    """

    __slots__ = (
        "authn", "cache_probe", "validation", "upstream",
        "telemetry", "serialization", "wall",
    )

    def __init__(self, registry: Any):
        counter = registry.counter(PHASE_METRIC, _PHASE_HELP, labels=("phase",))
        self.authn = counter.local(phase="authn").inc
        self.cache_probe = counter.local(phase="cache-probe").inc
        self.validation = counter.local(phase="validation").inc
        self.upstream = counter.local(phase="upstream").inc
        self.telemetry = counter.local(phase="telemetry").inc
        self.serialization = counter.local(phase="serialization").inc
        self.wall = registry.counter(WALL_METRIC, _WALL_HELP).local().inc


def phase_totals(registry: Any) -> dict[str, float]:
    """``{phase: ns, ..., "wall": ns}`` read off *registry* (scrape-side
    helper for ``repro top`` and the coverage acceptance check)."""
    out: dict[str, float] = {}
    snapshot = registry.snapshot()
    for phase in PHASES:
        out[phase] = snapshot.get(f'{PHASE_METRIC}{{phase="{phase}"}}', 0.0)
    out["wall"] = snapshot.get(WALL_METRIC, 0.0)
    return out
