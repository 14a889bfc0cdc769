"""Request-tracing unit tests: span trees, trace joining, the ring
buffer, thread isolation, and the trace-id propagation contract."""

import json
import threading

import pytest

from repro.obs import TRACES, TraceBuffer, current_trace_id, new_trace_id, span, trace


@pytest.fixture(autouse=True)
def clean_buffer():
    TRACES.clear()
    yield
    TRACES.clear()


class TestTraceIds:
    def test_shape(self):
        tid = new_trace_id()
        assert len(tid) == 16
        int(tid, 16)  # hex

    def test_unique(self):
        assert len({new_trace_id() for _ in range(1000)}) == 1000

    def test_no_active_trace_means_none(self):
        assert current_trace_id() is None


class TestTraceLifecycle:
    def test_records_into_buffer_on_exit(self):
        with trace("proxy.request") as t:
            assert current_trace_id() == t.trace_id
        assert current_trace_id() is None
        assert len(TRACES) == 1
        assert TRACES.traces()[0] is t

    def test_explicit_trace_id_is_kept(self):
        with trace("apiserver.request", trace_id="deadbeefdeadbeef") as t:
            assert t.trace_id == "deadbeefdeadbeef"

    def test_span_tree_structure(self):
        with trace("proxy.request"):
            with span("proxy.validate"):
                with span("cache.lookup"):
                    pass
                with span("engine.match"):
                    pass
            with span("store.commit"):
                pass
        tree = TRACES.traces()[0].to_dict()
        assert [s["name"] for s in tree["spans"]] == ["proxy.validate", "store.commit"]
        children = tree["spans"][0]["children"]
        assert [s["name"] for s in children] == ["cache.lookup", "engine.match"]
        assert tree["duration_ns"] > 0
        assert all(s["duration_ns"] >= 0 for s in tree["spans"])

    def test_nested_trace_joins_instead_of_forking(self):
        """The in-process API server runs under the proxy's trace: one
        id per request end-to-end."""
        with trace("proxy.request") as outer:
            with trace("apiserver.request") as inner:
                assert inner is outer
                assert current_trace_id() == outer.trace_id
        assert len(TRACES) == 1  # joined block does not re-record
        names = [s["name"] for s in TRACES.traces()[0].to_dict()["spans"]]
        assert names == ["apiserver.request"]

    def test_span_without_trace_is_noop(self):
        with span("orphan") as s:
            assert s is None
        assert len(TRACES) == 0

    def test_exception_unwinds_open_spans(self):
        with pytest.raises(RuntimeError):
            with trace("proxy.request"):
                with span("a"):
                    with span("b"):
                        raise RuntimeError("boom")
        finished = TRACES.traces()[0]
        assert finished.end_ns > 0
        a = finished.spans[0]
        assert a.end_ns >= a.start_ns
        assert a.children[0].end_ns >= a.children[0].start_ns

    def test_to_json_round_trips(self):
        with trace("proxy.request"):
            with span("proxy.validate"):
                pass
        parsed = json.loads(TRACES.traces()[0].to_json())
        assert parsed["name"] == "proxy.request"
        assert parsed["spans"][0]["name"] == "proxy.validate"


class TestThreadIsolation:
    def test_each_thread_gets_its_own_active_trace(self):
        """contextvars isolate ThreadingHTTPServer workers: spans land
        in the worker's own trace."""
        seen: dict[str, str] = {}
        barrier = threading.Barrier(4)

        def worker(name: str) -> None:
            with trace(name) as t:
                barrier.wait(timeout=5)
                with span(f"{name}.stage"):
                    pass
                seen[name] = t.trace_id

        pool = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert len(set(seen.values())) == 4
        by_name = {t.name: t for t in TRACES.traces()}
        for name, tid in seen.items():
            assert by_name[name].trace_id == tid
            assert by_name[name].spans[0].name == f"{name}.stage"


class TestTraceBuffer:
    def test_bounded_ring(self):
        buffer = TraceBuffer(maxlen=4)
        for i in range(10):
            with trace(f"t{i}", buffer=buffer):
                pass
        assert len(buffer) == 4
        assert [t.name for t in buffer.traces()] == ["t6", "t7", "t8", "t9"]

    def test_find_by_id(self):
        buffer = TraceBuffer()
        with trace("wanted", buffer=buffer) as t:
            pass
        assert buffer.find(t.trace_id) is t
        assert buffer.find("0" * 16) is None

    def test_to_json_limit(self):
        buffer = TraceBuffer()
        for i in range(8):
            with trace(f"t{i}", buffer=buffer):
                pass
        dumped = json.loads(buffer.to_json(limit=3))
        assert [t["name"] for t in dumped] == ["t5", "t6", "t7"]


# ---------------------------------------------------------------------------
# Head sampling of request traces (REPRO_TRACE_SAMPLE)
# ---------------------------------------------------------------------------


class TestTraceSampling:
    @pytest.fixture(autouse=True)
    def fresh_counters(self, monkeypatch):
        """Each test gets a virgin per-thread sampling counter."""
        from repro.obs import tracing

        monkeypatch.setattr(tracing, "_SAMPLE_THREADS", threading.local())
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)

    def test_default_traces_everything(self):
        for _ in range(8):
            with trace("proxy.request") as t:
                assert t is not None
        assert len(TRACES) == 8

    def test_one_in_n_head_sampling(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "4")
        opened = []
        for _ in range(12):
            with trace("proxy.request") as t:
                opened.append(t is not None)
        assert opened == [True, False, False, False] * 3
        assert len(TRACES) == 3

    def test_unsampled_request_has_no_trace_id_and_cheap_spans(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "2")
        with trace("proxy.request"):
            pass  # sampled
        with trace("proxy.request") as t:
            assert t is None
            assert current_trace_id() is None
            with span("proxy.validate") as s:
                assert s is None  # span is a no-op without a trace
        assert len(TRACES) == 1

    def test_joined_trace_ignores_sampling(self, monkeypatch):
        # The root made the sampling decision; sampled traces must keep
        # every nested stage.
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1000")
        with trace("proxy.request") as root:  # first of the window
            assert root is not None
            with trace("apiserver.request") as joined:
                assert joined is root
        finished = TRACES.traces()[-1]
        assert [s.name for s in finished.spans] == ["apiserver.request"]

    def test_invalid_and_unset_values_mean_one(self, monkeypatch):
        from repro.obs.tracing import _trace_sample_every

        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "nonsense")
        assert _trace_sample_every() == 1
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0")
        assert _trace_sample_every() == 1
        monkeypatch.delenv("REPRO_TRACE_SAMPLE")
        assert _trace_sample_every() == 1

    def test_env_flip_reparses(self, monkeypatch):
        from repro.obs.tracing import _trace_sample_every

        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "3")
        assert _trace_sample_every() == 3
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "5")
        assert _trace_sample_every() == 5
