"""KubeFence security analytics: streaming events, SLOs, forensics.

The telemetry layer (:mod:`repro.obs`) answers *where latency goes*;
this package turns the audit/decision stream into *answers*:

- :mod:`repro.obs.analytics.events` -- a unified, trace-correlated
  :class:`SecurityEvent` stream through a bounded, thread-safe
  :class:`EventBus` with schema-versioned JSONL sinks.  Publishers:
  the API server's audit stage, both KubeFence proxies' allow/deny/
  degraded decisions, and the anomaly detector's alerts.
- :mod:`repro.obs.analytics.slo` -- declarative SLIs (validation
  latency, deny-rate, degraded-rate, upstream-error-rate) over
  ring-buffer sliding windows, with multi-window burn-rate alerting
  and ``kubefence_slo_*`` gauges on the existing registry.
- :mod:`repro.obs.analytics.forensics` -- per-identity session
  reconstruction that stitches audit events + denials + anomaly
  scores into attack timelines (first-touch, blast radius, denial
  point, related trace ids), keyed by the Table III campaign.
"""

from repro.obs.analytics.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    EventBus,
    JsonlSink,
    NULL_EVENT_BUS,
    NullEventBus,
    SecurityEvent,
    dump_jsonl,
    events_from_audit_log,
    load_jsonl,
)
from repro.obs.analytics.forensics import (
    AttackTimeline,
    ForensicsEngine,
    render_forensics_report,
)
from repro.obs.analytics.slo import (
    BurnRateWindow,
    DEFAULT_WINDOWS,
    SliSpec,
    SliStatus,
    SloAlert,
    SloEngine,
    default_slis,
)

__all__ = [
    "AttackTimeline",
    "BurnRateWindow",
    "DEFAULT_WINDOWS",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "ForensicsEngine",
    "JsonlSink",
    "NULL_EVENT_BUS",
    "NullEventBus",
    "SecurityEvent",
    "SliSpec",
    "SliStatus",
    "SloAlert",
    "SloEngine",
    "default_slis",
    "dump_jsonl",
    "events_from_audit_log",
    "load_jsonl",
    "render_forensics_report",
]
