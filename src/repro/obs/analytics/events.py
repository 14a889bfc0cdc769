"""The unified security-event stream.

One flat, schema-versioned record type (:class:`SecurityEvent`) carries
everything the analytics layer consumes, trace-id-joined across the
three producers:

- the API server's audit stage (``kind="audit"``, mirroring
  :class:`repro.k8s.audit.AuditEvent`);
- the KubeFence proxies' enforcement verdicts (``kind="decision"``,
  outcome ``allow``/``deny``/``degraded``/``error``);
- the anomaly detector (``kind="anomaly"``, carrying the score);
- campaign markers (``kind="marker"``) that the Table III attack
  runner emits around each malicious submission, so forensics can key
  timelines by attack id;
- shadow-mode canary evaluations (``kind="shadow"``) that the policy
  refinement loop emits when a candidate policy revision is evaluated
  side-by-side with the active one (see :mod:`repro.obs.refine`).

Events flow through a bounded, thread-safe :class:`EventBus`: a ring
buffer (query surface for ``/obs/events`` and the CLI) plus a
subscriber list (the SLO engine, the forensics engine, JSONL sinks).
:data:`NULL_EVENT_BUS` is the default of components that only publish
when handed a bus (:class:`~repro.obs.refine.ShadowEvaluator`); its
``enabled`` flag is ``False`` so publishers skip even constructing the
event.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable, Mapping

__all__ = [
    "EVENT_KINDS",
    "EVENT_SAMPLE_ENV",
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "JsonlSink",
    "NULL_EVENT_BUS",
    "NullEventBus",
    "SecurityEvent",
    "dump_jsonl",
    "events_from_audit_log",
    "load_jsonl",
]

#: Version stamped into every serialized event (consumers must be able
#: to reject a future, incompatible shape instead of mis-parsing it).
EVENT_SCHEMA_VERSION = 1

#: The closed set of event kinds on the stream.  ``scan`` events are
#: CVE-scanner findings (one per newly observed finding per tick);
#: ``recovery`` events announce a store rebuilt from snapshot+WAL
#: after a crash (one per recovery, published by the fronting server).
EVENT_KINDS = ("audit", "decision", "anomaly", "marker", "shadow", "scan", "recovery")

#: Decision outcomes (closed set; doubles as a metrics label domain).
DECISION_OUTCOMES = ("allow", "deny", "degraded", "error")

#: Environment variable: sample 1-in-N *routine* events (allow
#: decisions, successful audits).  Default 1 = publish everything;
#: security-relevant events (deny/degraded/error) are never sampled.
EVENT_SAMPLE_ENV = "REPRO_EVENT_SAMPLE"


def _env_sample_every() -> int:
    raw = os.environ.get(EVENT_SAMPLE_ENV, "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


@dataclass(frozen=True, slots=True)
class SecurityEvent:
    """One record on the unified stream (flat on purpose: every field
    is queryable without knowing the producer).

    ``slots=True`` matters here: events are built on the request path
    (two per proxied call), and slotted construction keeps the
    analytics-overhead gate's per-request cost down.
    """

    kind: str                      # one of EVENT_KINDS
    source: str = ""               # "proxy" | "apiserver" | "anomaly" | "campaign"
    ts: float = 0.0                # wall-clock seconds (time.time())
    user: str = ""
    verb: str = ""
    resource: str = ""             # object kind ("Deployment") or plural
    name: str = ""
    namespace: str = ""
    outcome: str = ""              # decisions: one of DECISION_OUTCOMES
    code: int = 0                  # HTTP-ish status code, 0 when n/a
    trace_id: str = ""             # joins audit <-> decision <-> anomaly
    latency_ns: int = 0
    score: float = 0.0             # anomaly score (0 when n/a)
    detail: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r} (expected one of {EVENT_KINDS})"
            )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"schema": EVENT_SCHEMA_VERSION, "kind": self.kind}
        for key in ("source", "user", "verb", "resource", "name", "namespace",
                    "outcome", "trace_id"):
            value = getattr(self, key)
            if value:
                out[key] = value
        out["ts"] = self.ts
        if self.code:
            out["code"] = self.code
        if self.latency_ns:
            out["latency_ns"] = self.latency_ns
        if self.score:
            out["score"] = self.score
        if self.detail:
            out["detail"] = dict(self.detail)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SecurityEvent":
        schema = data.get("schema", EVENT_SCHEMA_VERSION)
        if schema != EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported event schema version {schema!r} "
                f"(this build reads version {EVENT_SCHEMA_VERSION})"
            )
        return cls(
            kind=str(data.get("kind", "")),
            source=str(data.get("source", "")),
            ts=float(data.get("ts", 0.0)),
            user=str(data.get("user", "")),
            verb=str(data.get("verb", "")),
            resource=str(data.get("resource", "")),
            name=str(data.get("name", "")),
            namespace=str(data.get("namespace", "")),
            outcome=str(data.get("outcome", "")),
            code=int(data.get("code", 0)),
            trace_id=str(data.get("trace_id", "")),
            latency_ns=int(data.get("latency_ns", 0)),
            score=float(data.get("score", 0.0)),
            detail=dict(data.get("detail") or {}),
        )


Subscriber = Callable[[SecurityEvent], None]


class EventBus:
    """Bounded, thread-safe fan-out for :class:`SecurityEvent`.

    Two consumption modes:

    - **pull** -- the newest ``maxlen`` events sit in a ring buffer,
      queryable with :meth:`events` (the ``/obs/events`` surface and
      the CLI snapshot);
    - **push** -- :meth:`subscribe` registers a callable invoked on
      every publish.  Subscribers run on the *publishing* thread
      (HTTP pool workers included) and must therefore be
      thread-safe and fast; a raising subscriber is counted and
      detached after :data:`MAX_SUBSCRIBER_ERRORS` consecutive
      failures rather than poisoning the request path.
    """

    #: Consecutive failures before a subscriber is detached.
    MAX_SUBSCRIBER_ERRORS = 8

    #: Publishers may probe this before building an event.
    enabled = True

    def __init__(self, maxlen: int = 4096, sample_every: int | None = None):
        self._ring: deque[SecurityEvent] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._subscribers: list[Subscriber] = []
        self._errors: dict[int, int] = {}
        self.published = 0
        self.dropped_subscribers = 0
        #: 1-in-N head sampling for routine events (see :meth:`sampled`).
        self.sample_every = max(
            1, int(sample_every if sample_every is not None else _env_sample_every())
        )
        self._sample_threads = threading.local()

    # -- publishing --------------------------------------------------------

    def sampled(self) -> bool:
        """Deterministic 1-in-N head-sampling gate for **routine**
        events (allow decisions, successful audits).

        Publishers probe this *before constructing* the event, so at
        ``sample_every=N`` the hot path skips ``N-1`` of every N
        SecurityEvent builds and fan-outs entirely.  The counter is
        per publishing thread (no lock, no shared state); the first
        event of each thread's window publishes, so low-rate threads
        are still represented.  Security-relevant events -- denials,
        degraded answers, upstream errors -- must bypass this gate and
        always publish.
        """
        n = self.sample_every
        if n <= 1:
            return True
        try:
            count = self._sample_threads.count
        except AttributeError:
            count = 0
        self._sample_threads.count = count + 1
        return count % n == 0

    def publish(self, event: SecurityEvent) -> None:
        with self._lock:
            self._ring.append(event)
            self.published += 1
            # No-subscriber fast path: most request-path buses have
            # pull-mode consumers only, so skip the snapshot tuple.
            subscribers = tuple(self._subscribers) if self._subscribers else ()
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception:  # noqa: BLE001 - a sink must not break enforcement
                self._note_failure(subscriber)
            else:
                self._errors.pop(id(subscriber), None)

    def _note_failure(self, subscriber: Subscriber) -> None:
        with self._lock:
            count = self._errors.get(id(subscriber), 0) + 1
            self._errors[id(subscriber)] = count
            if count >= self.MAX_SUBSCRIBER_ERRORS:
                try:
                    self._subscribers.remove(subscriber)
                except ValueError:
                    pass
                else:
                    self.dropped_subscribers += 1
                self._errors.pop(id(subscriber), None)

    # -- subscription ------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        """Register *subscriber*; returns an unsubscribe callable."""
        with self._lock:
            self._subscribers.append(subscriber)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._subscribers.remove(subscriber)
                except ValueError:
                    pass

        return unsubscribe

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    # -- pull surface ------------------------------------------------------

    def events(
        self,
        limit: int | None = None,
        kind: str | None = None,
        user: str | None = None,
        trace_id: str | None = None,
    ) -> list[SecurityEvent]:
        """The newest matching events, oldest first (bounded by the
        ring and, optionally, *limit*)."""
        with self._lock:
            snapshot = list(self._ring)
        if kind is not None:
            snapshot = [e for e in snapshot if e.kind == kind]
        if user is not None:
            snapshot = [e for e in snapshot if e.user == user]
        if trace_id is not None:
            snapshot = [e for e in snapshot if e.trace_id == trace_id]
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:]
        return snapshot

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def to_json(self, limit: int = 64, **filters: str | None) -> str:
        return json.dumps(
            {
                "schema": EVENT_SCHEMA_VERSION,
                "published": self.published,
                "events": [e.to_dict() for e in self.events(limit=limit, **filters)],
            },
            sort_keys=True,
        )


class NullEventBus:
    """The no-bus stand-in: publishing is a no-op and the ``enabled``
    probe lets hot paths skip event construction."""

    enabled = False
    published = 0
    dropped_subscribers = 0
    subscriber_count = 0
    sample_every = 1

    def sampled(self) -> bool:
        return False

    def publish(self, event: Any) -> None:
        pass

    def subscribe(self, subscriber: Any) -> Callable[[], None]:
        return lambda: None

    def events(self, *args: Any, **kwargs: Any) -> list[SecurityEvent]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def to_json(self, limit: int = 64, **filters: Any) -> str:
        return json.dumps(
            {"schema": EVENT_SCHEMA_VERSION, "published": 0, "events": []},
            sort_keys=True,
        )


NULL_EVENT_BUS = NullEventBus()


# ---------------------------------------------------------------------------
# Sinks and serialization
# ---------------------------------------------------------------------------


class JsonlSink:
    """Structured log sink: one JSON event per line to a stream
    (stdout) or a file path.  Thread-safe; subscribe it to a bus:

    >>> bus.subscribe(JsonlSink(sys.stdout))        # doctest: +SKIP
    >>> bus.subscribe(JsonlSink.to_path("ev.jsonl"))  # doctest: +SKIP
    """

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self._lock = threading.Lock()
        self.written = 0

    @classmethod
    def to_path(cls, path: Any) -> "JsonlSink":
        return cls(open(path, "a", encoding="utf-8"))

    def __call__(self, event: SecurityEvent) -> None:
        line = event.to_json()
        with self._lock:
            self._stream.write(line + "\n")
            self.written += 1

    def flush(self) -> None:
        with self._lock:
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            try:
                self._stream.flush()
            finally:
                if self._stream not in (None,) and hasattr(self._stream, "close"):
                    self._stream.close()


def dump_jsonl(events: Iterable[SecurityEvent]) -> str:
    """The on-disk stream format (one JSON event per line)."""
    return "\n".join(e.to_json() for e in events)


def load_jsonl(text: str) -> list[SecurityEvent]:
    """Parse a JSONL event stream (the ``repro forensics --events``
    input).  Blank lines are skipped; schema mismatches raise."""
    out: list[SecurityEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not valid JSON: {exc}") from exc
        out.append(SecurityEvent.from_dict(data))
    return out


def events_from_audit_log(audit_log: Any, source: str = "apiserver") -> list[SecurityEvent]:
    """Convert a :class:`repro.k8s.audit.AuditLog` (or any iterable of
    AuditEvents) into stream events -- the offline path for forensics
    over a recorded audit trail."""
    events = audit_log.events() if hasattr(audit_log, "events") else list(audit_log)
    out: list[SecurityEvent] = []
    for index, event in enumerate(events):
        out.append(
            SecurityEvent(
                kind="audit",
                source=source,
                ts=float(index),  # audit events carry no wall clock; keep order
                user=event.username,
                verb=event.verb,
                resource=event.resource,
                name=event.name or "",
                namespace=event.namespace or "",
                outcome="allow" if 200 <= event.response_code < 300 else "error",
                code=event.response_code,
                trace_id=event.trace_id or "",
                latency_ns=event.latency_ns or 0,
                detail={"request_uri": event.request_uri},
            )
        )
    return out


def now() -> float:
    """Wall-clock timestamp for produced events (one indirection so
    tests can monkeypatch a deterministic clock)."""
    return time.time()
