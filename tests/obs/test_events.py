"""Unit tests for the unified security-event stream: the record
schema, the bounded bus, subscriber fan-out/detachment, JSONL
round-trips, and the null bus."""

import io
import json
import threading

import pytest

from repro.k8s.audit import AuditEvent, AuditLog
from repro.obs.analytics.events import (
    EVENT_SCHEMA_VERSION,
    EventBus,
    JsonlSink,
    NULL_EVENT_BUS,
    SecurityEvent,
    dump_jsonl,
    events_from_audit_log,
    load_jsonl,
)


def _decision(user="alice", outcome="allow", trace_id="", **kw) -> SecurityEvent:
    return SecurityEvent(
        kind="decision", source="proxy", user=user, verb="update",
        resource="Deployment", name="web", outcome=outcome,
        code=403 if outcome == "deny" else 200, trace_id=trace_id, **kw,
    )


class TestSecurityEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            SecurityEvent(kind="surprise")

    def test_dict_roundtrip(self):
        event = _decision(outcome="deny", trace_id="abc123", latency_ns=42,
                          detail={"violations": ["spec.hostNetwork"]})
        data = event.to_dict()
        assert data["schema"] == EVENT_SCHEMA_VERSION
        restored = SecurityEvent.from_dict(data)
        assert restored == event

    def test_future_schema_rejected(self):
        data = _decision().to_dict()
        data["schema"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported event schema"):
            SecurityEvent.from_dict(data)

    def test_zero_fields_elided_from_wire_shape(self):
        data = SecurityEvent(kind="marker").to_dict()
        assert "code" not in data and "score" not in data
        assert "user" not in data


class TestEventBus:
    def test_ring_is_bounded(self):
        bus = EventBus(maxlen=4)
        for i in range(10):
            bus.publish(_decision(user=f"u{i}"))
        assert len(bus) == 4
        assert bus.published == 10
        assert [e.user for e in bus.events()] == ["u6", "u7", "u8", "u9"]

    def test_filters_and_limit(self):
        bus = EventBus()
        bus.publish(_decision(user="alice", trace_id="t1"))
        bus.publish(_decision(user="eve", outcome="deny", trace_id="t2"))
        bus.publish(SecurityEvent(kind="anomaly", user="eve", score=0.8))
        assert len(bus.events(kind="decision")) == 2
        assert [e.trace_id for e in bus.events(user="eve", kind="decision")] == ["t2"]
        assert len(bus.events(trace_id="t1")) == 1
        assert len(bus.events(limit=1)) == 1

    def test_subscriber_fanout_and_unsubscribe(self):
        bus = EventBus()
        seen: list[SecurityEvent] = []
        unsubscribe = bus.subscribe(seen.append)
        bus.publish(_decision())
        unsubscribe()
        bus.publish(_decision())
        assert len(seen) == 1
        assert bus.subscriber_count == 0

    def test_failing_subscriber_is_detached_not_fatal(self):
        bus = EventBus()

        def bad(_event: SecurityEvent) -> None:
            raise RuntimeError("sink broke")

        bus.subscribe(bad)
        for _ in range(EventBus.MAX_SUBSCRIBER_ERRORS + 2):
            bus.publish(_decision())  # must never raise
        assert bus.subscriber_count == 0
        assert bus.dropped_subscribers == 1

    def test_concurrent_publish_hammer(self):
        bus = EventBus(maxlen=512)
        counted = []
        bus.subscribe(lambda e: counted.append(1))
        errors: list[BaseException] = []

        def publish() -> None:
            try:
                for _ in range(300):
                    bus.publish(_decision())
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=publish) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert bus.published == 1200
        assert len(counted) == 1200

    def test_to_json_shape(self):
        bus = EventBus()
        bus.publish(_decision())
        payload = json.loads(bus.to_json())
        assert payload["schema"] == EVENT_SCHEMA_VERSION
        assert payload["published"] == 1
        assert len(payload["events"]) == 1


class TestNullBus:
    def test_null_bus_is_inert(self):
        assert NULL_EVENT_BUS.enabled is False
        NULL_EVENT_BUS.publish(_decision())
        assert len(NULL_EVENT_BUS) == 0
        assert NULL_EVENT_BUS.events() == []
        assert json.loads(NULL_EVENT_BUS.to_json())["events"] == []


class TestSerialization:
    def test_jsonl_roundtrip(self):
        events = [_decision(), _decision(outcome="deny", trace_id="t9")]
        text = dump_jsonl(events)
        assert load_jsonl(text) == events

    def test_load_rejects_garbage_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(_decision().to_json() + "\n{not json")

    def test_jsonl_sink_writes_parseable_lines(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        bus = EventBus()
        bus.subscribe(sink)
        bus.publish(_decision())
        bus.publish(_decision(outcome="deny"))
        assert sink.written == 2
        assert load_jsonl(stream.getvalue())[1].outcome == "deny"

    def test_events_from_audit_log(self):
        log = AuditLog()
        log.record(AuditEvent(
            request_uri="/api/v1/namespaces/default/pods/p0",
            verb="create", username="alice", groups=(), resource="pods",
            api_group="", namespace="default", name="p0",
            response_code=201, trace_id="tid0", latency_ns=77,
        ))
        log.record(AuditEvent(
            request_uri="/api/v1/namespaces/default/pods/p1",
            verb="update", username="eve", groups=(), resource="pods",
            api_group="", namespace="default", name="p1",
            response_code=403,
        ))
        events = events_from_audit_log(log)
        assert [e.outcome for e in events] == ["allow", "error"]
        assert events[0].trace_id == "tid0"
        assert events[0].latency_ns == 77
        assert events[1].code == 403
        assert all(e.kind == "audit" for e in events)


# ---------------------------------------------------------------------------
# Head sampling of routine events (the sharded data plane's gate)
# ---------------------------------------------------------------------------


class TestSampling:
    def test_default_publishes_everything(self):
        bus = EventBus()
        assert bus.sample_every == 1
        assert all(bus.sampled() for _ in range(32))

    def test_one_in_n_per_thread(self):
        bus = EventBus(sample_every=4)
        draws = [bus.sampled() for _ in range(12)]
        # Deterministic head sampling: the first of each window wins.
        assert draws == [True, False, False, False] * 3

    def test_threads_sample_independently(self):
        bus = EventBus(sample_every=4)
        results = {}

        def drain(name):
            results[name] = [bus.sampled() for _ in range(4)]

        threads = [
            threading.Thread(target=drain, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Each thread gets its own window, so each publishes its first.
        assert all(r == [True, False, False, False] for r in results.values())

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_SAMPLE", "8")
        assert EventBus().sample_every == 8
        monkeypatch.setenv("REPRO_EVENT_SAMPLE", "garbage")
        assert EventBus().sample_every == 1

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_SAMPLE", "8")
        assert EventBus(sample_every=2).sample_every == 2

    def test_minimum_is_one(self):
        assert EventBus(sample_every=0).sample_every == 1
        assert EventBus(sample_every=-5).sample_every == 1

    def test_null_bus_never_samples(self):
        assert NULL_EVENT_BUS.sampled() is False
