"""Attack forensics: per-identity session reconstruction.

The question after a denial is never just "was it blocked" -- it is
*what did that identity touch before the denial, and did anything slip
through after it*.  This module stitches the unified event stream
(audit events + proxy decisions + anomaly scores, trace-id-joined)
into per-identity sessions and, when campaign markers are present
(the Table III attack runner emits one ``kind="marker"`` event before
each malicious submission), splits them into per-attack
:class:`AttackTimeline` reports carrying:

- **first touch** -- the first event of the attack window;
- **denial point** -- the first ``deny`` decision (or the anomaly
  alert when only detection fired);
- **post-denial activity** -- any event after the denial point inside
  the same window.  Non-empty post-denial *allows* are the smoking gun
  (an attack that kept going after being "mitigated");
- **blast radius** -- the resources and policy fields the attack
  reached for (from the marker's targeted fields plus the denial's
  violations);
- **related trace ids** -- the join keys back into ``/obs/traces``
  and the audit log.

Sources: a live :class:`~repro.obs.analytics.events.EventBus`
(subscribe :meth:`ForensicsEngine.ingest`), a recorded JSONL stream
(``repro forensics --events``), or an
:class:`~repro.k8s.audit.AuditLog` via
:func:`~repro.obs.analytics.events.events_from_audit_log`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.analytics.events import SecurityEvent, load_jsonl

__all__ = [
    "AttackTimeline",
    "ForensicsEngine",
    "render_forensics_report",
]


@dataclass
class AttackTimeline:
    """One attack's reconstructed window for one identity."""

    identity: str
    attack_id: str = ""          # catalog id (E1..E8 / M1..M7) or ""
    reference: str = ""          # CVE id / guideline, from the marker
    title: str = ""
    entries: list[SecurityEvent] = field(default_factory=list)
    targeted_fields: tuple[str, ...] = ()

    # -- derived -----------------------------------------------------------

    @property
    def first_touch(self) -> SecurityEvent | None:
        return self.entries[0] if self.entries else None

    @property
    def denial(self) -> SecurityEvent | None:
        """The denial point: first deny decision, else first >=400
        audit outcome (the API server refused what the proxy missed)."""
        for event in self.entries:
            if event.kind == "decision" and event.outcome == "deny":
                return event
        for event in self.entries:
            if event.kind == "audit" and event.code >= 400:
                return event
        return None

    @property
    def mitigated(self) -> bool:
        return self.denial is not None

    @property
    def post_denial(self) -> list[SecurityEvent]:
        """Events strictly after the denial point (empty when the
        attack stopped at the denial -- the healthy shape).  Audit
        echoes of the denied request itself (same trace id) are not
        post-denial activity."""
        denial = self.denial
        if denial is None:
            return []
        index = self.entries.index(denial)
        return [
            event for event in self.entries[index + 1:]
            if not (denial.trace_id and event.trace_id == denial.trace_id)
        ]

    @property
    def anomaly_scores(self) -> list[float]:
        return [e.score for e in self.entries if e.kind == "anomaly"]

    @property
    def trace_ids(self) -> list[str]:
        """Related trace ids, first-seen order, deduplicated."""
        seen: dict[str, None] = {}
        for event in self.entries:
            if event.trace_id:
                seen.setdefault(event.trace_id, None)
        return list(seen)

    @property
    def blast_radius(self) -> dict[str, list[str]]:
        """What the attack reached for: resources touched and the
        policy fields involved (marker's targeted fields + the
        denial's violation fields)."""
        resources: dict[str, None] = {}
        fields: dict[str, None] = {}
        for path in self.targeted_fields:
            fields.setdefault(path, None)
        for event in self.entries:
            if event.resource:
                label = event.resource + (f"/{event.name}" if event.name else "")
                resources.setdefault(label, None)
            for violation in event.detail.get("violations", ()):
                fields.setdefault(str(violation), None)
        return {"resources": list(resources), "fields": list(fields)}

    def to_dict(self) -> dict[str, Any]:
        denial = self.denial
        first = self.first_touch
        return {
            "identity": self.identity,
            "attack_id": self.attack_id,
            "reference": self.reference,
            "title": self.title,
            "mitigated": self.mitigated,
            "events": len(self.entries),
            "first_touch": first.to_dict() if first else None,
            "denial": denial.to_dict() if denial else None,
            "post_denial_events": len(self.post_denial),
            "anomaly_scores": self.anomaly_scores,
            "trace_ids": self.trace_ids,
            "blast_radius": self.blast_radius,
        }


class ForensicsEngine:
    """Accumulate events; reconstruct sessions and attack timelines.

    Thread-safe on ingest (it subscribes to a live bus fed by
    HTTP pool workers); reconstruction works on a snapshot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[SecurityEvent] = []

    # -- ingest ------------------------------------------------------------

    def ingest(self, event: SecurityEvent) -> None:
        with self._lock:
            self._events.append(event)

    def ingest_many(self, events: Iterable[SecurityEvent]) -> int:
        count = 0
        with self._lock:
            for event in events:
                self._events.append(event)
                count += 1
        return count

    @classmethod
    def from_jsonl(cls, text: str) -> "ForensicsEngine":
        engine = cls()
        engine.ingest_many(load_jsonl(text))
        return engine

    def events(self) -> list[SecurityEvent]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- reconstruction ----------------------------------------------------

    def sessions(self) -> dict[str, list[SecurityEvent]]:
        """Per-identity event streams, ingestion order preserved.

        Events without a user (campaign markers) are replicated into
        the identity named by the marker's ``detail["user"]`` when
        present, else kept under ``""``.
        """
        out: dict[str, list[SecurityEvent]] = {}
        for event in self.events():
            user = event.user or str(event.detail.get("user", ""))
            out.setdefault(user, []).append(event)
        return out

    def timelines(self, identity: str | None = None) -> list[AttackTimeline]:
        """Split each identity's session at campaign markers.

        Events between marker *i* and marker *i+1* belong to attack
        *i*.  Sessions without markers produce one unkeyed timeline
        (ad-hoc forensics over raw traffic) -- but only when they
        contain something attack-shaped (a denial or an anomaly), so
        benign operator sessions do not read as attacks.
        """
        timelines: list[AttackTimeline] = []
        for user, stream in sorted(self.sessions().items()):
            if identity is not None and user != identity:
                continue
            current: AttackTimeline | None = None
            saw_marker = False
            for event in stream:
                if event.kind == "marker":
                    saw_marker = True
                    if current is not None:
                        timelines.append(current)
                    current = AttackTimeline(
                        identity=user,
                        attack_id=str(event.detail.get("attack_id", "")),
                        reference=str(event.detail.get("reference", "")),
                        title=str(event.detail.get("title", "")),
                        targeted_fields=tuple(
                            event.detail.get("targeted_fields", ())
                        ),
                    )
                elif current is not None:
                    current.entries.append(event)
            if current is not None:
                timelines.append(current)
            elif not saw_marker:
                suspicious = [
                    e for e in stream
                    if (e.kind == "decision" and e.outcome == "deny")
                    or e.kind == "anomaly"
                ]
                if suspicious:
                    timelines.append(
                        AttackTimeline(identity=user, entries=list(stream))
                    )
        return timelines

    def report(self, identity: str | None = None) -> dict[str, Any]:
        timelines = self.timelines(identity)
        return {
            "identities": sorted(self.sessions()),
            "timelines": [t.to_dict() for t in timelines],
            "mitigated": sum(t.mitigated for t in timelines),
            "post_denial_activity": sum(
                1 for t in timelines if t.post_denial
            ),
        }


def render_forensics_report(timelines: list[AttackTimeline]) -> str:
    """Human-readable attack-timeline report (the ``repro forensics``
    output)."""
    lines = ["Attack forensics", "=" * 72]
    if not timelines:
        lines.append("no attack timelines reconstructed (clean stream)")
        return "\n".join(lines)
    for timeline in timelines:
        head = timeline.attack_id or "(unkeyed)"
        if timeline.reference:
            head += f" [{timeline.reference}]"
        status = "MITIGATED" if timeline.mitigated else "NOT MITIGATED"
        lines.append(f"{head:28s} identity={timeline.identity:24s} {status}")
        if timeline.title:
            lines.append(f"    {timeline.title}")
        first = timeline.first_touch
        if first is not None:
            lines.append(
                f"    first touch : {first.verb or '?'} "
                f"{first.resource or '?'}/{first.name or '?'} "
                f"(trace {first.trace_id or '-'})"
            )
        denial = timeline.denial
        if denial is not None:
            reason = denial.detail.get("reason", "")
            lines.append(
                f"    denial point: code={denial.code} "
                f"{('reason=' + reason) if reason else ''} "
                f"(trace {denial.trace_id or '-'})"
            )
        radius = timeline.blast_radius
        if radius["resources"]:
            lines.append(f"    blast radius: {', '.join(radius['resources'][:6])}")
        if radius["fields"]:
            lines.append(f"    fields      : {', '.join(radius['fields'][:4])}")
        if timeline.anomaly_scores:
            lines.append(
                f"    anomaly     : max score "
                f"{max(timeline.anomaly_scores):.2f} over "
                f"{len(timeline.anomaly_scores)} scored request(s)"
            )
        if timeline.post_denial:
            lines.append(
                f"    !! POST-DENIAL ACTIVITY: {len(timeline.post_denial)} "
                "event(s) after the denial point"
            )
    mitigated = sum(t.mitigated for t in timelines)
    hot = sum(1 for t in timelines if t.post_denial)
    lines.append("-" * 72)
    lines.append(
        f"{len(timelines)} timeline(s), {mitigated} mitigated, "
        f"{hot} with post-denial activity"
    )
    return "\n".join(lines)
