"""Unit tests for the continuous-profiling subsystem (PR 10).

Covers the sampling wall-clock profiler (bounded stack table, refcounted
lifecycle, ``REPRO_PROFILE_HZ`` gating, concurrent
scrape-while-sampling), per-request phase attribution, the
in-process time-series ring (delta vs gauge semantics, retention,
filters), the ``/obs/profile``+``/obs/timeseries`` endpoint surfaces,
OpenMetrics content negotiation with exemplars, and the ``repro top``
frame renderer.
"""

import json
import threading
import time

import pytest

from repro.cli import render_top
from repro.obs.http import (
    METRICS_CONTENT_TYPE,
    OPENMETRICS_CONTENT_TYPE,
    obs_endpoint,
)
from repro.obs.metrics import (
    MetricsRegistry,
    set_exemplar_trace_provider,
)
from repro.obs.profile import (
    PHASES,
    PhaseClock,
    SamplingProfiler,
    TimeSeriesRing,
    phase_totals,
)
from repro.obs.profile.sampler import DEFAULT_PROFILE_HZ, profile_hz
from repro.obs.tracing import current_trace_id


@pytest.fixture(autouse=True)
def _default_profile_hz(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE_HZ", raising=False)


# ---------------------------------------------------------------------------
# SamplingProfiler
# ---------------------------------------------------------------------------


class TestSamplingProfiler:
    def test_sample_once_records_caller_stack(self):
        profiler = SamplingProfiler()
        recorded = profiler.sample_once()
        assert recorded >= 1
        collapsed = profiler.collapsed()
        # Root-to-leaf collapsed format: this test module is on the
        # caller's stack, sample_once itself is the leaf.
        assert "tests.obs.test_profile" in collapsed
        line = next(l for l in collapsed.splitlines() if "sample_once" in l)
        assert line.rsplit(" ", 1)[1].isdigit()
        assert ";" in line

    def test_stack_table_is_bounded(self):
        profiler = SamplingProfiler(max_stacks=1)

        def from_another_frame():
            profiler.sample_once()

        profiler.sample_once()
        from_another_frame()  # distinct stack -> refused by the cap
        stats = profiler.stats()
        assert stats["distinct_stacks"] == 1
        assert stats["dropped_samples"] >= 1

    def test_functions_split_self_vs_total(self):
        profiler = SamplingProfiler()
        profiler.sample_once()
        functions = {f["function"]: f for f in profiler.functions(top=1000)}
        leaf = "repro.obs.profile.sampler.sample_once"
        assert functions[leaf]["self"] >= 1
        # The test function appears on the stack but never as the leaf.
        caller = next(
            name for name in functions if "test_functions_split" in name
        )
        assert functions[caller]["self"] == 0
        assert functions[caller]["total"] >= 1

    def test_reset_clears_counts(self):
        profiler = SamplingProfiler()
        profiler.sample_once()
        profiler.reset()
        assert profiler.stats()["samples"] == 0
        assert profiler.collapsed() == ""

    def test_thread_lifecycle_is_leak_free(self, leak_checker):
        token = leak_checker.begin()
        profiler = SamplingProfiler(hz=200)
        assert profiler.start()
        assert any(
            t.name == "repro-profiler" for t in threading.enumerate()
        )
        deadline = time.monotonic() + 5
        while profiler.stats(top=0)["samples"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        profiler.stop()
        leak_checker.end(token)
        assert profiler.stats(top=0)["samples"] > 0
        assert not profiler.running

    def test_acquire_release_refcounts(self):
        profiler = SamplingProfiler(hz=100)
        assert profiler.acquire()
        assert profiler.acquire()
        profiler.release()
        assert profiler.running  # one holder left
        profiler.release()
        assert not profiler.running
        profiler.release()  # over-release is harmless
        assert not profiler.running

    def test_hz_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_HZ", "0")
        profiler = SamplingProfiler()
        assert profiler.start() is False
        assert not profiler.running

    def test_profile_hz_env_parsing(self, monkeypatch):
        assert profile_hz() == DEFAULT_PROFILE_HZ
        monkeypatch.setenv("REPRO_PROFILE_HZ", "banana")
        assert profile_hz() == DEFAULT_PROFILE_HZ
        monkeypatch.setenv("REPRO_PROFILE_HZ", "-5")
        assert profile_hz() == 0.0
        monkeypatch.setenv("REPRO_PROFILE_HZ", "33.5")
        assert profile_hz() == 33.5

    def test_concurrent_scrape_while_sampling(self):
        """Hammer every export surface while the sampler thread runs and
        worker threads churn the thread population."""
        profiler = SamplingProfiler(hz=500)
        assert profiler.start()
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn():
            while not stop.is_set():
                time.sleep(0.001)

        def scrape():
            try:
                while not stop.is_set():
                    profiler.collapsed()
                    profiler.stats(top=10)
                    profiler.functions(top=5)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        threads += [threading.Thread(target=scrape) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.25)
        profiler.reset()  # reset under fire must not corrupt the table
        time.sleep(0.1)
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
        profiler.stop()
        assert not errors
        assert profiler.stats(top=0)["samples"] > 0


# ---------------------------------------------------------------------------
# PhaseClock
# ---------------------------------------------------------------------------


class TestPhaseClock:
    def test_stamps_land_in_registry(self):
        registry = MetricsRegistry()
        clock = PhaseClock(registry)
        clock.validation(100)
        clock.cache_probe(40)
        clock.wall(200)
        totals = phase_totals(registry)
        assert totals["validation"] == 100
        assert totals["cache-probe"] == 40
        assert totals["wall"] == 200

    def test_sharded_cells_fold_into_snapshot(self):
        registry = MetricsRegistry()
        clock = PhaseClock(registry)
        clock.upstream(77)
        clock.wall(80)
        assert phase_totals(registry)["upstream"] == 77
        assert phase_totals(registry)["wall"] == 80

    def test_taxonomy_is_complete(self):
        registry = MetricsRegistry()
        clock = PhaseClock(registry)
        for phase in PHASES:
            getattr(clock, phase.replace("-", "_"))(1)
        totals = phase_totals(registry)
        assert all(totals[phase] == 1 for phase in PHASES)


# ---------------------------------------------------------------------------
# TimeSeriesRing
# ---------------------------------------------------------------------------


def _ring_registry() -> tuple[MetricsRegistry, object, object]:
    registry = MetricsRegistry()
    counter = registry.counter("reqs_total", "r")
    gauge = registry.gauge("breaker_state", "g")
    return registry, counter, gauge


class TestTimeSeriesRing:
    def test_counter_deltas_gauge_absolutes(self):
        registry, counter, gauge = _ring_registry()
        ring = TimeSeriesRing(registry, interval_s=1.0, retention=10)
        ring.tick(record=False)  # prime the baseline
        counter.inc(5)
        gauge.set(7)
        point = ring.tick()
        assert point["values"]["reqs_total"] == 5
        assert point["values"]["breaker_state"] == 7
        counter.inc(2)
        point = ring.tick()
        assert point["values"]["reqs_total"] == 2  # delta, not total
        assert point["values"]["breaker_state"] == 7  # level signal

    def test_zero_deltas_dropped_gauges_kept(self):
        registry, counter, gauge = _ring_registry()
        ring = TimeSeriesRing(registry, interval_s=1.0, retention=10)
        ring.tick(record=False)
        counter.inc()
        ring.tick()
        point = ring.tick()  # idle interval
        assert "reqs_total" not in point["values"]
        assert "breaker_state" in point["values"]

    def test_retention_bounds_the_ring(self):
        registry, counter, _ = _ring_registry()
        ring = TimeSeriesRing(registry, interval_s=1.0, retention=3)
        for _ in range(7):
            counter.inc()
            ring.tick()
        assert len(ring) == 3

    def test_series_since_and_limit_filters(self):
        registry, counter, gauge = _ring_registry()
        ring = TimeSeriesRing(registry, interval_s=1.0, retention=10)
        ring.tick(record=False)
        counter.inc()
        gauge.set(1)
        first = ring.tick()
        counter.inc()
        ring.tick()
        filtered = ring.points(series="reqs")
        assert all(
            set(p["values"]) <= {"reqs_total"} for p in filtered
        )
        newer = ring.points(since=first["ts"])
        assert all(p["ts"] > first["ts"] for p in newer)
        assert len(ring.points(limit=1)) == 1
        payload = ring.to_dict(series="breaker")
        assert payload["retention"] == 10
        assert payload["running"] is False

    def test_thread_lifecycle_is_leak_free(self, leak_checker):
        registry, counter, _ = _ring_registry()
        token = leak_checker.begin()
        ring = TimeSeriesRing(registry, interval_s=0.02, retention=50)
        ring.start()
        assert ring.running
        deadline = time.monotonic() + 5
        while len(ring) == 0 and time.monotonic() < deadline:
            counter.inc()
            time.sleep(0.01)
        ring.stop()
        leak_checker.end(token)
        assert len(ring) > 0
        assert ring.to_dict()["running"] is False


# ---------------------------------------------------------------------------
# /obs endpoint surfaces + OpenMetrics negotiation
# ---------------------------------------------------------------------------


class TestObsEndpointSurfaces:
    def test_profile_json_and_collapsed(self):
        profiler = SamplingProfiler()
        profiler.sample_once()
        registry = MetricsRegistry()
        status, ctype, body = obs_endpoint(
            "/obs/profile", registry, profiler=profiler
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["samples"] >= 1
        assert payload["stacks"]
        status, ctype, body = obs_endpoint(
            "/obs/profile?format=collapsed", registry, profiler=profiler
        )
        assert status == 200
        assert ctype.startswith("text/plain")
        assert body.decode().strip()

    def test_profile_404_without_profiler(self):
        status, _, _ = obs_endpoint("/obs/profile", MetricsRegistry())
        assert status == 404

    def test_timeseries_payload_and_filters(self):
        registry, counter, _ = _ring_registry()
        ring = TimeSeriesRing(registry, interval_s=1.0, retention=10)
        ring.tick(record=False)
        counter.inc(3)
        ring.tick()
        status, _, body = obs_endpoint(
            "/obs/timeseries?series=reqs&limit=5", registry, timeseries=ring
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["points"][0]["values"] == {"reqs_total": 3.0}
        status, _, _ = obs_endpoint("/obs/timeseries", registry)
        assert status == 404

    def test_openmetrics_via_query_param(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc()
        status, ctype, body = obs_endpoint(
            "/metrics?format=openmetrics", registry
        )
        assert status == 200
        assert ctype == OPENMETRICS_CONTENT_TYPE
        assert body.decode().endswith("# EOF\n")

    def test_openmetrics_via_accept_header(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc()
        status, ctype, body = obs_endpoint(
            "/metrics", registry,
            accept="application/openmetrics-text; version=1.0.0",
        )
        assert ctype == OPENMETRICS_CONTENT_TYPE
        assert body.decode().endswith("# EOF\n")

    def test_classic_exposition_stays_byte_stable(self):
        """The default scrape is exactly ``registry.expose()`` -- no OM
        artifacts (EOF marker, exemplars) leak into the 0.0.4 format."""
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc()
        hist = registry.histogram("lat_ns", "l", buckets=(10, 100))
        set_exemplar_trace_provider(lambda: "feedfacecafebeef")
        try:
            hist.observe(50)
        finally:
            set_exemplar_trace_provider(current_trace_id)
        status, ctype, body = obs_endpoint(
            "/metrics", registry, accept="text/plain"
        )
        assert ctype == METRICS_CONTENT_TYPE
        assert body.decode() == registry.expose()
        assert "# EOF" not in body.decode()
        assert "trace_id" not in body.decode()

    def test_openmetrics_exemplar_on_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ns", "l", buckets=(10, 100))
        set_exemplar_trace_provider(lambda: "feedfacecafebeef")
        try:
            hist.observe(50)
        finally:
            set_exemplar_trace_provider(current_trace_id)
        om = registry.expose(openmetrics=True)
        bucket_lines = [
            l for l in om.splitlines()
            if l.startswith("lat_ns_bucket") and " # {" in l
        ]
        assert bucket_lines, om
        assert 'trace_id="feedfacecafebeef"' in bucket_lines[0]


# ---------------------------------------------------------------------------
# repro top frame renderer
# ---------------------------------------------------------------------------


def _top_payload() -> dict:
    return {
        "interval_s": 1.0,
        "retention": 300,
        "running": True,
        "points": [{
            "ts": 100.0,
            "values": {
                'kubefence_requests_total{method="POST",outcome="allowed"}': 120.0,
                'kubefence_cache_hits_total': 90.0,
                'kubefence_cache_misses_total': 30.0,
                'kubefence_validation_latency_ns_bucket{outcome="miss",le="64000"}': 80.0,
                'kubefence_validation_latency_ns_bucket{outcome="miss",le="+Inf"}': 120.0,
                'kubefence_phase_ns_total{phase="validation"}': 4.0e6,
                'kubefence_phase_ns_total{phase="upstream"}': 9.0e6,
                'kubefence_request_wall_ns_total': 14.0e6,
                'kubefence_breaker_state': 0.0,
            },
        }],
    }


class TestRenderTop:
    def test_renders_rates_phases_and_footer(self):
        frame = render_top(_top_payload(), "http://x:1")
        assert "repro top -- http://x:1" in frame
        assert "120.0/s" in frame
        assert "cache hit  75.0%" in frame
        assert "upstream" in frame and "validation" in frame
        assert "% of wall" in frame
        assert "breaker closed" in frame

    def test_empty_ring_renders_hint(self):
        frame = render_top(
            {"interval_s": 1.0, "retention": 300, "running": False,
             "points": []},
            "http://x:1",
        )
        assert "no samples yet" in frame
