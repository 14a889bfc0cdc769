"""Metrics registry unit tests: instruments, buckets/quantiles,
cardinality guard, thread safety, and the Prometheus exposition."""

import logging
import threading

import pytest

from repro.obs import (
    CardinalityError,
    DEFAULT_LATENCY_BUCKETS_NS,
    MAX_LABEL_SETS,
    MetricError,
    MetricsRegistry,
    delta,
    new_registry,
)
from repro.obs.metrics import DROPPED_SERIES_METRIC


@pytest.fixture()
def registry():
    return MetricsRegistry()


# ---------------------------------------------------------------------------
# Counters and gauges
# ---------------------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_counts(self, registry):
        c = registry.counter("reqs_total", "requests")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_cannot_decrease(self, registry):
        c = registry.counter("reqs_total")
        with pytest.raises(MetricError, match="cannot decrease"):
            c.inc(-1)

    def test_labels_create_independent_series(self, registry):
        c = registry.counter("denials_total", labels=("reason",))
        c.labels(reason="field-not-allowed").inc()
        c.labels(reason="kind-not-used").inc(2)
        assert c.labels(reason="field-not-allowed").value == 1
        assert c.labels(reason="kind-not-used").value == 2

    def test_label_name_mismatch_rejected(self, registry):
        c = registry.counter("denials_total", labels=("reason",))
        with pytest.raises(MetricError, match="takes labels"):
            c.labels(kind="Pod")

    def test_unlabeled_access_to_labeled_metric_rejected(self, registry):
        c = registry.counter("denials_total", labels=("reason",))
        with pytest.raises(MetricError, match="use .labels"):
            c.inc()

    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("reqs_total", "requests")
        b = registry.counter("reqs_total")
        assert a is b

    def test_type_collision_rejected(self, registry):
        registry.counter("reqs_total")
        with pytest.raises(MetricError, match="already registered"):
            registry.gauge("reqs_total")

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(MetricError, match="invalid metric name"):
            registry.counter("bad name!")

    def test_le_reserved_as_label(self, registry):
        with pytest.raises(MetricError, match="invalid label name"):
            registry.counter("x_total", labels=("le",))


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("queue_depth")
        g.set(10)
        g.dec(4)
        g.inc()
        assert g.value == 7


# ---------------------------------------------------------------------------
# Histogram buckets and quantiles
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_default_buckets_are_ns_exponential(self):
        assert DEFAULT_LATENCY_BUCKETS_NS[0] == 1_000.0
        assert DEFAULT_LATENCY_BUCKETS_NS[1] == 2_000.0
        assert len(DEFAULT_LATENCY_BUCKETS_NS) == 22

    def test_bucket_boundaries_are_inclusive(self, registry):
        h = registry.histogram("lat_ns", buckets=(10.0, 100.0, 1000.0))
        h.observe(10.0)     # == first bound -> first bucket (le semantics)
        h.observe(10.1)     # second bucket
        h.observe(5000.0)   # +Inf overflow
        text = h.expose()
        assert 'lat_ns_bucket{le="10"} 1' in text
        assert 'lat_ns_bucket{le="100"} 2' in text
        assert 'lat_ns_bucket{le="1000"} 2' in text
        assert 'lat_ns_bucket{le="+Inf"} 3' in text
        assert "lat_ns_count 3" in text
        assert "lat_ns_sum 5020.1" in text

    def test_sum_and_count(self, registry):
        h = registry.histogram("lat_ns", buckets=(10.0, 100.0))
        for v in (1, 2, 3):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6

    def test_quantile_interpolates_within_bucket(self, registry):
        h = registry.histogram("lat_ns", buckets=(100.0, 200.0, 400.0))
        for _ in range(100):
            h.observe(150.0)  # all in the (100, 200] bucket
        # Every rank lands in the same bucket; interpolation stays
        # within its bounds.
        assert 100.0 <= h.quantile(0.5) <= 200.0
        assert 100.0 <= h.quantile(0.99) <= 200.0

    def test_quantile_orders_buckets(self, registry):
        h = registry.histogram("lat_ns", buckets=(100.0, 200.0, 400.0, 800.0))
        for _ in range(50):
            h.observe(50.0)
        for _ in range(50):
            h.observe(700.0)
        assert h.quantile(0.25) <= 100.0
        assert 400.0 <= h.quantile(0.9) <= 800.0
        assert h.quantile(0.0) == 0.0

    def test_quantile_empty_is_zero(self, registry):
        h = registry.histogram("lat_ns", buckets=(10.0,))
        assert h.quantile(0.5) == 0.0

    def test_quantile_out_of_range_rejected(self, registry):
        h = registry.histogram("lat_ns", buckets=(10.0,))
        with pytest.raises(MetricError, match="out of"):
            h.quantile(1.5)

    def test_overflow_clamps_to_last_bound(self, registry):
        h = registry.histogram("lat_ns", buckets=(10.0, 20.0))
        for _ in range(10):
            h.observe(9999.0)
        assert h.quantile(0.9) == 20.0

    def test_bucket_bound_mismatch_on_reregistration(self, registry):
        registry.histogram("lat_ns", buckets=(10.0, 20.0))
        with pytest.raises(MetricError, match="bucket bounds differ"):
            registry.histogram("lat_ns", buckets=(1.0, 2.0))


# ---------------------------------------------------------------------------
# Cardinality guard
# ---------------------------------------------------------------------------


class TestCardinalityGuard:
    def test_explodes_past_the_cap_with_clear_error(self, registry):
        c = registry.counter("denials_total", labels=("reason",))
        for i in range(MAX_LABEL_SETS):
            c.labels(reason=f"r{i}").inc()
        with pytest.raises(CardinalityError, match="label sets .cap 64."):
            c.labels(reason="one-too-many")

    def test_existing_series_still_usable_after_guard_fires(self, registry):
        c = registry.counter("denials_total", labels=("reason",))
        for i in range(MAX_LABEL_SETS):
            c.labels(reason=f"r{i}").inc()
        with pytest.raises(CardinalityError):
            c.labels(reason="overflow")
        c.labels(reason="r0").inc()
        assert c.labels(reason="r0").value == 2

    def test_max_series_override(self, registry):
        c = registry.counter("http_total", labels=("code",), max_series=2)
        c.labels(code="200").inc()
        c.labels(code="404").inc()
        with pytest.raises(CardinalityError):
            c.labels(code="500")

    def test_drops_are_counted_in_self_metric(self, registry):
        c = registry.counter("denials_total", labels=("reason",), max_series=2)
        c.labels(reason="a").inc()
        c.labels(reason="b").inc()
        for _ in range(3):
            with pytest.raises(CardinalityError):
                c.labels(reason="overflow")
        dropped = registry.counter(
            DROPPED_SERIES_METRIC, labels=("metric",)
        ).labels(metric="denials_total")
        assert dropped.value == 3
        # The drop counter is visible on scrape, labeled by offender.
        assert (
            f'{DROPPED_SERIES_METRIC}{{metric="denials_total"}} 3'
            in registry.expose()
        )

    def test_drop_warning_logged_once(self, registry, caplog):
        c = registry.counter("noisy_total", labels=("k",), max_series=1)
        c.labels(k="ok").inc()
        with caplog.at_level(logging.WARNING, logger="repro.obs.metrics"):
            for i in range(5):
                with pytest.raises(CardinalityError):
                    c.labels(k=f"drop{i}")
        warnings = [
            r for r in caplog.records if "label-set cap" in r.getMessage()
        ]
        assert len(warnings) == 1
        assert "noisy_total" in warnings[0].getMessage()

    def test_two_metrics_account_drops_separately(self, registry):
        a = registry.counter("a_total", labels=("x",), max_series=1)
        b = registry.counter("b_total", labels=("x",), max_series=1)
        for m in (a, b):
            m.labels(x="ok").inc()
            with pytest.raises(CardinalityError):
                m.labels(x="nope")
        dropped = registry.counter(DROPPED_SERIES_METRIC, labels=("metric",))
        assert dropped.labels(metric="a_total").value == 1
        assert dropped.labels(metric="b_total").value == 1


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_concurrent_increments_are_exact(self, registry):
        c = registry.counter("hits_total", labels=("worker",))
        h = registry.histogram("lat_ns", buckets=(100.0, 1000.0))
        per_thread, threads = 2000, 8

        def work(idx: int) -> None:
            bound = c.labels(worker=str(idx % 2))
            for _ in range(per_thread):
                bound.inc()
                h.observe(float(idx))

        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = c.labels(worker="0").value + c.labels(worker="1").value
        assert total == per_thread * threads
        assert h.count == per_thread * threads


# ---------------------------------------------------------------------------
# Exposition golden test
# ---------------------------------------------------------------------------


EXPECTED_EXPOSITION = """\
# HELP kubefence_requests_total Requests seen by the proxy.
# TYPE kubefence_requests_total counter
kubefence_requests_total 3
# HELP kubefence_denials_total Denials by reason.
# TYPE kubefence_denials_total counter
kubefence_denials_total{kind="Deployment",reason="field-not-allowed"} 2
kubefence_denials_total{kind="Pod",reason="kind-not-used"} 1
# HELP inflight Gauge of in-flight requests.
# TYPE inflight gauge
inflight 2
# HELP lat_ns Latency.
# TYPE lat_ns histogram
lat_ns_bucket{le="10"} 1
lat_ns_bucket{le="100"} 2
lat_ns_bucket{le="+Inf"} 3
lat_ns_sum 1061
lat_ns_count 3
"""


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("kubefence_requests_total", "Requests seen by the proxy.").inc(3)
        denials = registry.counter(
            "kubefence_denials_total", "Denials by reason.", labels=("kind", "reason")
        )
        denials.labels(kind="Deployment", reason="field-not-allowed").inc(2)
        denials.labels(kind="Pod", reason="kind-not-used").inc()
        gauge = registry.gauge("inflight", "Gauge of in-flight requests.")
        gauge.set(2)
        hist = registry.histogram("lat_ns", "Latency.", buckets=(10.0, 100.0))
        for v in (10.0, 51.0, 1000.0):
            hist.observe(v)
        return registry

    def test_golden_exposition(self):
        assert self._populated().expose() == EXPECTED_EXPOSITION

    def test_label_values_escaped(self, registry):
        c = registry.counter("odd_total", labels=("path",))
        c.labels(path='spec."weird"\nvalue\\x').inc()
        text = c.expose()
        assert r'path="spec.\"weird\"\nvalue\\x"' in text

    def test_empty_registry_exposes_empty(self, registry):
        assert registry.expose() == ""


# ---------------------------------------------------------------------------
# Snapshots, reset, merge
# ---------------------------------------------------------------------------


class TestWindows:
    def test_snapshot_delta(self, registry):
        c = registry.counter("reqs_total")
        c.inc(5)
        before = registry.snapshot()
        c.inc(2)
        window = delta(before, registry.snapshot())
        assert window["reqs_total"] == 2

    def test_reset_zeroes_but_keeps_series(self, registry):
        c = registry.counter("denials_total", labels=("reason",))
        c.labels(reason="x").inc(4)
        registry.reset()
        assert c.labels(reason="x").value == 0
        assert "denials_total" in registry.expose()

    def test_merge_from_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 1), (b, 2)):
            reg.counter("reqs_total").inc(n)
            reg.histogram("lat_ns", buckets=(10.0, 100.0)).observe(5.0 * n)
        a.merge_from(b)
        assert a.counter("reqs_total").value == 3
        assert a.histogram("lat_ns", buckets=(10.0, 100.0)).count == 2


# ---------------------------------------------------------------------------
# new_registry (the name benchmarks/e2e imports)
# ---------------------------------------------------------------------------


class TestNewRegistry:
    def test_new_registry_is_a_fresh_metrics_registry(self):
        first, second = new_registry(), new_registry()
        assert isinstance(first, MetricsRegistry)
        assert first is not second


# ---------------------------------------------------------------------------
# Series handles: one memoised per-thread store per series
# ---------------------------------------------------------------------------


class TestLocalHandles:
    def test_counter_local_folds_into_value(self, registry):
        c = registry.counter("reqs_total")
        handle = c.local()
        handle.inc()
        handle.inc(3)
        assert c.value == 4
        c.inc(2)  # the unlabeled API writes through the same handle
        assert c.value == 6 == handle.value

    def test_one_memoised_handle_per_series(self, registry):
        c = registry.counter("reqs_total", labels=("code",))
        assert c.labels(code="200") is c.local(code="200")
        assert c.labels(code="200") is not c.labels(code="500")
        h = registry.histogram("lat_ns", labels=("outcome",))
        assert h.local(outcome="hit") is h.labels(outcome="hit")
        plain = registry.counter("plain_total")
        assert plain.labels() is plain.local()

    def test_labeled_counter_local(self, registry):
        c = registry.counter("denials_total", labels=("reason",))
        c.local(reason="field-not-allowed").inc(2)
        c.labels(reason="field-not-allowed").inc()
        assert c.labels(reason="field-not-allowed").value == 3

    def test_local_rejects_label_mismatch(self, registry):
        c = registry.counter("denials_total", labels=("reason",))
        with pytest.raises(MetricError, match="takes labels"):
            c.local(kind="Pod")

    def test_local_respects_cardinality_guard(self, registry):
        c = registry.counter("x_total", labels=("id",), max_series=2)
        c.local(id="a")
        c.local(id="b")
        with pytest.raises(CardinalityError):
            c.local(id="c")

    def test_counter_local_cannot_decrease(self, registry):
        with pytest.raises(MetricError, match="cannot decrease"):
            registry.counter("reqs_total").local().inc(-1)

    def test_gauge_has_no_local(self, registry):
        with pytest.raises(MetricError, match="local"):
            registry.gauge("up").local()

    def test_histogram_local_folds(self, registry):
        h = registry.histogram("lat_ns", buckets=(10.0, 100.0, 1000.0))
        handle = h.local()
        for v in (5.0, 50.0, 500.0, 5000.0):
            handle.observe(v)
        assert h.count == 4
        assert h.sum == 5555.0
        assert h.quantile(0.5) > 0

    def test_local_cells_are_per_thread_and_exact(self, registry):
        c = registry.counter("reqs_total")
        handle = c.local()
        threads = [
            threading.Thread(
                target=lambda: [handle.inc() for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000

    def test_exposition_sees_pending_locals(self, registry):
        c = registry.counter("reqs_total", "requests")
        c.local().inc(7)
        assert "reqs_total 7" in registry.expose()

    def test_reset_zeroes_local_cells(self, registry):
        c = registry.counter("reqs_total")
        handle = c.local()
        handle.inc(9)
        registry.reset()
        assert c.value == 0
        handle.inc()  # handle stays usable after reset
        assert c.value == 1

    def test_merge_from_folds_source_locals(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("reqs_total").local().inc(4)
        b.histogram("lat_ns", buckets=(10.0,)).local().observe(3.0)
        a.merge_from(b)
        assert a.counter("reqs_total").value == 4
        assert a.histogram("lat_ns", buckets=(10.0,)).count == 1
