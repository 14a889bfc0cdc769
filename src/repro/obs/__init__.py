"""KubeFence observability: metrics registry, request tracing, and the
``/metrics``/``/healthz`` HTTP surfaces.

A dependency-free telemetry layer threaded through the enforcement
stack (proxy -> validator engine -> API server) so the paper's
evaluation quantities -- where latency goes (Table IV), which requests
are denied and why (Table III), what the audit trail records
(Fig. 11) -- can be read off a Prometheus scrape instead of ad-hoc
counters.
"""

from repro.obs.metrics import (
    CardinalityError,
    Counter,
    DEFAULT_LATENCY_BUCKETS_NS,
    Gauge,
    Histogram,
    MAX_LABEL_SETS,
    MetricError,
    MetricsRegistry,
    REGISTRY,
    delta,
    new_registry,
)
from repro.obs.http import (
    METRICS_CONTENT_TYPE,
    OPENMETRICS_CONTENT_TYPE,
    obs_endpoint,
)
from repro.obs.profile import (
    PHASES,
    PROFILER,
    PhaseClock,
    SamplingProfiler,
    TimeSeriesRing,
    phase_totals,
)
from repro.obs.tracing import (
    Span,
    Trace,
    TraceBuffer,
    TRACES,
    current_trace_id,
    new_trace_id,
    span,
    trace,
)

__all__ = [
    "CardinalityError",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "Gauge",
    "Histogram",
    "MAX_LABEL_SETS",
    "METRICS_CONTENT_TYPE",
    "MetricError",
    "MetricsRegistry",
    "OPENMETRICS_CONTENT_TYPE",
    "PHASES",
    "PROFILER",
    "PhaseClock",
    "REGISTRY",
    "SamplingProfiler",
    "Span",
    "TimeSeriesRing",
    "TRACES",
    "Trace",
    "TraceBuffer",
    "current_trace_id",
    "delta",
    "new_registry",
    "new_trace_id",
    "obs_endpoint",
    "phase_totals",
    "span",
    "trace",
]
