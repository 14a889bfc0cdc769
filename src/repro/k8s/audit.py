"""Kubernetes-style audit logging.

Every request handled by the API server is recorded as an
:class:`AuditEvent` mirroring the ``audit.k8s.io/v1`` Event shape the
paper shows in Fig. 11.  The audit log is the input to the
``audit2rbac`` baseline (inferring least-privilege RBAC policies).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class AuditEvent:
    """One audited API interaction."""

    request_uri: str
    verb: str
    username: str
    groups: tuple[str, ...]
    resource: str  # plural, e.g. "deployments"
    api_group: str
    namespace: str | None
    name: str | None
    response_code: int
    request_object: dict[str, Any] | None = None
    source_ip: str = "127.0.0.1"
    stage: str = "ResponseComplete"
    #: observability correlation (annotations in the wire shape): the
    #: request trace id assigned by the proxy/API server and the
    #: server-side pipeline latency.
    trace_id: str | None = None
    latency_ns: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """Render in the audit.k8s.io/v1 wire shape."""
        event: dict[str, Any] = {
            "kind": "Event",
            "apiVersion": "audit.k8s.io/v1",
            "stage": self.stage,
            "requestURI": self.request_uri,
            "verb": self.verb,
            "user": {"username": self.username, "groups": list(self.groups)},
            "sourceIPs": [self.source_ip],
            "objectRef": {
                "resource": self.resource,
                "namespace": self.namespace,
                "name": self.name,
                "apiGroup": self.api_group,
            },
            "responseStatus": {"metadata": {}, "code": self.response_code},
        }
        if self.request_object is not None:
            event["requestObject"] = self.request_object
        annotations: dict[str, str] = {}
        if self.trace_id:
            annotations["kubefence.io/trace-id"] = self.trace_id
        if self.latency_ns is not None:
            annotations["kubefence.io/latency-ns"] = str(self.latency_ns)
        if annotations:
            event["annotations"] = annotations
        return event

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class AuditLog:
    """An append-only audit sink with query helpers.

    Thread-safe: the API server records from every
    HTTP pool worker while audit2rbac / anomaly
    bootstrap / forensics iterate concurrently, so every reader works
    on a snapshot taken under the same lock the writer holds.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[AuditEvent] = []

    def record(self, event: AuditEvent) -> None:
        with self._lock:
            self._events.append(event)

    def events(self) -> list[AuditEvent]:
        with self._lock:
            return list(self._events)

    def successful(self) -> Iterator[AuditEvent]:
        """Events whose request was accepted (2xx)."""
        return (e for e in self.events() if 200 <= e.response_code < 300)

    def for_user(self, username: str) -> list[AuditEvent]:
        return [e for e in self.events() if e.username == username]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def dump_jsonl(self) -> str:
        """The on-disk audit log format (one JSON event per line)."""
        return "\n".join(e.to_json() for e in self.events())

    @classmethod
    def from_jsonl(cls, text: str) -> "AuditLog":
        """Parse an on-disk audit log back into an AuditLog -- the
        entry point for offline audit2rbac / anomaly-profile runs."""
        log = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            object_ref = data.get("objectRef") or {}
            request_object = data.get("requestObject")
            annotations = data.get("annotations") or {}
            raw_latency = annotations.get("kubefence.io/latency-ns")
            log.record(
                AuditEvent(
                    request_uri=data.get("requestURI", ""),
                    verb=data.get("verb", ""),
                    username=(data.get("user") or {}).get("username", ""),
                    groups=tuple((data.get("user") or {}).get("groups", [])),
                    resource=object_ref.get("resource", ""),
                    api_group=object_ref.get("apiGroup", "") or "",
                    namespace=object_ref.get("namespace"),
                    name=object_ref.get("name"),
                    response_code=(data.get("responseStatus") or {}).get("code", 0),
                    request_object=request_object,
                    source_ip=(data.get("sourceIPs") or ["127.0.0.1"])[0],
                    stage=data.get("stage", "ResponseComplete"),
                    trace_id=annotations.get("kubefence.io/trace-id"),
                    latency_ns=int(raw_latency) if raw_latency is not None else None,
                )
            )
        return log
