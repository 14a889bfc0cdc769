"""Dependency-free Prometheus-style metrics (the KubeFence telemetry
substrate).

The paper's evaluation (Table IV overhead, Fig. 11 audit events) needs
to know *where* latency and denials happen along the
proxy -> validator -> API-server chain.  This module provides the
measurement substrate: a thread-safe :class:`MetricsRegistry` holding
:class:`Counter`, :class:`Gauge`, and :class:`Histogram` instruments
with label sets, rendered in the Prometheus text exposition format
(scrapeable from the ``/metrics`` endpoints that
:mod:`repro.k8s.http` and the HTTP proxy expose).

Design points:

- **No dependencies.**  Everything is stdlib; the registry is safe for
  concurrent increments from the HTTP pool's worker threads.
- **Bounded cardinality.**  Each metric rejects more than
  :data:`MAX_LABEL_SETS` distinct label combinations with a clear
  :class:`CardinalityError` -- a mislabeled denial reason must fail
  loudly instead of silently eating memory under attack traffic.
- **Fixed exponential buckets.**  Histograms default to ns-resolution
  latency buckets (1us doubling to ~2s); quantiles are estimated by
  linear interpolation inside the owning bucket, the standard
  Prometheus ``histogram_quantile`` scheme.
- **Windowed reads.**  ``snapshot()`` returns a flat
  ``{series: value}`` dict and :func:`delta` diffs two snapshots, so
  benchmarks can measure a window instead of absolute counters.
"""

from __future__ import annotations

import logging
import re
import threading
import time
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Callable, Iterable, Iterator

logger = logging.getLogger(__name__)

__all__ = [
    "CardinalityError",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "DROPPED_SERIES_METRIC",
    "Gauge",
    "Histogram",
    "MAX_LABEL_SETS",
    "MetricError",
    "MetricsRegistry",
    "bucket_quantile",
    "delta",
    "new_registry",
    "set_exemplar_trace_provider",
]

#: Per-metric cap on distinct label-value combinations.
MAX_LABEL_SETS = 64

#: Self-metric counting label sets refused by the cardinality guard,
#: labeled by the offending metric.  Without it a guard trip is only
#: visible to the caller that got the CardinalityError -- the scrape
#: side would never learn that series are being dropped.
DROPPED_SERIES_METRIC = "repro_label_sets_dropped_total"

#: ns-resolution exponential latency buckets: 1us doubling to ~2.1s.
DEFAULT_LATENCY_BUCKETS_NS: tuple[float, ...] = tuple(
    1_000.0 * (2.0**i) for i in range(22)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


# Exemplar capture needs the active trace id, but repro.obs.tracing
# imports this module -- so the provider is injected: tracing registers
# ``current_trace_id`` here at import time.  Until then (or with the
# tracing layer absent) exemplars are simply not recorded.
def _no_trace() -> "str | None":
    return None


_TRACE_PROVIDER: Callable[[], "str | None"] = _no_trace


def set_exemplar_trace_provider(provider: Callable[[], "str | None"]) -> None:
    """Register the callable that yields the active trace id (exemplar
    capture); called by :mod:`repro.obs.tracing` at import."""
    global _TRACE_PROVIDER
    _TRACE_PROVIDER = provider


class MetricError(ValueError):
    """Metric misuse: bad name, label mismatch, or type collision."""


class CardinalityError(MetricError):
    """A metric exceeded :data:`MAX_LABEL_SETS` distinct label sets."""


def bucket_quantile(buckets: Iterable[tuple[float, float]], q: float) -> float:
    """Prometheus ``histogram_quantile`` over ``(le, cumulative count)``
    pairs in ascending ``le`` order (the last may be ``+Inf``).

    Locates the bucket holding rank ``q * total`` and interpolates
    linearly between its bounds; a rank in the ``+Inf`` bucket clamps
    to the highest finite bound.  No observations estimate 0.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile {q} out of [0, 1]")
    buckets = list(buckets)
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    rank = q * total
    lower = previous = 0.0
    for le, cumulative in buckets:
        if cumulative >= rank and cumulative > previous:
            if le == float("inf"):
                return lower
            within = (rank - previous) / (cumulative - previous)
            return lower + (le - lower) * min(max(within, 0.0), 1.0)
        if le != float("inf"):
            lower = le
        previous = cumulative
    return lower


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(names: tuple[str, ...], values: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(names, values)) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class _Bound:
    """An instrument bound to one concrete label-value tuple."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "_Metric", key: tuple[str, ...]):
        self._metric = metric
        self._key = key

    def local(self) -> Any:
        """A lock-free per-thread write handle for this series (see
        :meth:`_Metric.local`)."""
        return self._metric._local_for(self._key)

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, -amount)

    def set(self, value: float) -> None:
        self._metric._set(self._key, value)

    def observe(self, value: float) -> None:
        self._metric._observe(self._key, value)

    @property
    def value(self) -> float:
        return self._metric._value(self._key)

    def quantile(self, q: float) -> float:
        return self._metric._quantile(self._key, q)

    @property
    def sum(self) -> float:
        return self._metric._sum_of(self._key)

    @property
    def count(self) -> float:
        return self._metric._count_of(self._key)


class _Metric:
    """Common storage: one series per label-value tuple."""

    kind = "untyped"

    #: Per-kind local-handle class (thread-local accumulation cells);
    #: ``None`` means the kind has no lock-free write path.
    _local_cls: Any = None

    def __init__(self, name: str, help: str, label_names: tuple[str, ...],
                 lock: threading.RLock, max_series: int = MAX_LABEL_SETS,
                 registry: "MetricsRegistry | None" = None):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label) or label == "le":
                raise MetricError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.max_series = max_series
        self._registry = registry
        self._drop_warned = False
        self._lock = lock
        self._series: dict[tuple[str, ...], Any] = {}
        #: key -> list of local handles whose per-thread cells fold
        #: into the stored series at read time (scrape-time merge).
        self._locals: dict[tuple[str, ...], list[Any]] = {}
        if not self.label_names:
            self._series[()] = self._new_series()

    # -- series management -------------------------------------------------

    def _new_series(self) -> Any:
        raise NotImplementedError

    def _series_for(self, key: tuple[str, ...]) -> Any:
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                self._record_dropped(key)
                raise CardinalityError(
                    f"metric {self.name!r} already has {len(self._series)} label "
                    f"sets (cap {self.max_series}); refusing to create "
                    f"{dict(zip(self.label_names, key))!r} -- label values must "
                    "be drawn from a bounded set"
                )
            series = self._new_series()
            self._series[key] = series
        return series

    def _record_dropped(self, key: tuple[str, ...]) -> None:
        """Make a cardinality-guard trip visible on the scrape side:
        count the refused series in :data:`DROPPED_SERIES_METRIC` and
        warn once per metric.  Called under the registry lock (an
        RLock, so creating the self-metric here cannot deadlock)."""
        registry = self._registry
        if registry is not None and self.name != DROPPED_SERIES_METRIC:
            registry.counter(
                DROPPED_SERIES_METRIC,
                "Label sets refused by the per-metric cardinality guard, "
                "by offending metric.",
                labels=("metric",),
            ).labels(metric=self.name).inc()
        if not self._drop_warned:
            self._drop_warned = True
            logger.warning(
                "metric %r hit its label-set cap (%d); dropping new series %r "
                "(further drops counted in %s, not logged)",
                self.name, self.max_series,
                dict(zip(self.label_names, key)), DROPPED_SERIES_METRIC,
            )

    def labels(self, **labels: str) -> _Bound:
        """The series for one concrete label-value combination."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise MetricError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            self._series_for(key)  # cardinality guard fires at creation
        return _Bound(self, key)

    def local(self, **labels: str) -> Any:
        """A **lock-free** write handle for one series.

        The handle accumulates into per-thread cells (one plain list
        slot per writer thread, no lock, no CAS -- the GIL makes the
        float add atomic enough) and the owning metric folds every
        cell in lazily whenever the series is *read*: ``expose()``,
        ``snapshot()``, ``value``/``sum``/``count``/``quantile``, and
        ``merge_from`` all see stored + pending-local.  This is the
        hot-path layout of the sharded data plane: worker threads
        record telemetry with zero shared-state contention and the
        ``/metrics`` scrape pays the merge.

        Caveats: ``reset()`` concurrent with active writers may lose
        in-flight increments (each cell is zeroed without stopping its
        owner), and a scrape racing a histogram observation may see
        ``sum``/``count`` momentarily skewed by one sample.  Both
        settle at quiescence; neither can corrupt state.
        """
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise MetricError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        return self._local_for(key)

    def _local_for(self, key: tuple[str, ...]) -> Any:
        cls = self._local_cls
        if cls is None:
            raise MetricError(
                f"{self.kind} {self.name!r} does not support local() handles"
            )
        handle = cls(self, key)
        with self._lock:
            self._series_for(key)  # cardinality guard + stored cell
            self._locals.setdefault(key, []).append(handle)
        return handle

    def _local_totals(self, key: tuple[str, ...]) -> float:
        """Sum of all pending per-thread cells for *key* (counters)."""
        handles = self._locals.get(key)
        if not handles:
            return 0.0
        return sum(cell[0] for handle in handles for cell in handle._cells)

    def _zero_locals(self) -> None:
        for handles in self._locals.values():
            for handle in handles:
                handle._zero()

    def _require_unlabeled(self) -> tuple[str, ...]:
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} has labels {list(self.label_names)}; "
                "use .labels(...)"
            )
        return ()

    # -- direct (unlabeled) API -------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._inc(self._require_unlabeled(), amount)

    def dec(self, amount: float = 1.0) -> None:
        self._inc(self._require_unlabeled(), -amount)

    def set(self, value: float) -> None:
        self._set(self._require_unlabeled(), value)

    def observe(self, value: float) -> None:
        self._observe(self._require_unlabeled(), value)

    @property
    def value(self) -> float:
        return self._value(self._require_unlabeled())

    def quantile(self, q: float) -> float:
        return self._quantile(self._require_unlabeled(), q)

    @property
    def sum(self) -> float:
        return self._sum_of(self._require_unlabeled())

    @property
    def count(self) -> float:
        return self._count_of(self._require_unlabeled())

    # -- per-kind hooks ----------------------------------------------------

    def _inc(self, key: tuple[str, ...], amount: float) -> None:
        raise MetricError(f"{self.kind} {self.name!r} does not support inc()")

    def _set(self, key: tuple[str, ...], value: float) -> None:
        raise MetricError(f"{self.kind} {self.name!r} does not support set()")

    def _observe(self, key: tuple[str, ...], value: float) -> None:
        raise MetricError(f"{self.kind} {self.name!r} does not support observe()")

    def _value(self, key: tuple[str, ...]) -> float:
        with self._lock:
            series = self._series.get(key)
            return 0.0 if series is None else float(series)

    def _quantile(self, key: tuple[str, ...], q: float) -> float:
        raise MetricError(f"{self.kind} {self.name!r} has no quantiles")

    def _sum_of(self, key: tuple[str, ...]) -> float:
        return self._value(key)

    def _count_of(self, key: tuple[str, ...]) -> float:
        raise MetricError(f"{self.kind} {self.name!r} has no sample count")

    def _reset(self) -> None:
        with self._lock:
            for key in self._series:
                self._series[key] = self._new_series()
            self._zero_locals()

    # -- export ------------------------------------------------------------

    def _samples(self) -> Iterator[tuple[str, str, float]]:
        """Yield (suffix, rendered_labels, value) under the lock."""
        for key in sorted(self._series):
            yield "", _render_labels(self.label_names, key), float(self._series[key])

    def _om_lines(self) -> Iterator[str]:
        """OpenMetrics sample lines (histograms override to attach
        exemplars); caller holds the lock."""
        for suffix, labels, value in self._samples():
            yield f"{self.name}{suffix}{labels} {_format_value(value)}"

    def expose(self, openmetrics: bool = False) -> str:
        family = self.name
        if openmetrics and self.kind == "counter" and family.endswith("_total"):
            # OpenMetrics names the *family* without the _total suffix;
            # the sample lines keep it.
            family = family[: -len("_total")]
        lines = [f"# HELP {family} {self.help}", f"# TYPE {family} {self.kind}"]
        with self._lock:
            if openmetrics:
                lines.extend(self._om_lines())
            else:
                for suffix, labels, value in self._samples():
                    lines.append(
                        f"{self.name}{suffix}{labels} {_format_value(value)}"
                    )
        return "\n".join(lines)

    def snapshot_into(self, out: dict[str, float]) -> None:
        with self._lock:
            for suffix, labels, value in self._samples():
                out[f"{self.name}{suffix}{labels}"] = value


class _LocalCounter:
    """Per-thread accumulation cells for one counter series.

    Writes touch only the calling thread's cell; the owning metric
    folds every cell in at read time (:meth:`_Metric.local`).
    """

    __slots__ = ("_metric", "_key", "_threads", "_cells")

    def __init__(self, metric: "_Metric", key: tuple[str, ...]):
        self._metric = metric
        self._key = key
        self._threads = threading.local()
        self._cells: list[list[float]] = []
        # Bind the constructing thread's cell eagerly: handles are
        # created at instrument-construction time (ProxyStats /
        # APIServer __init__), so the common writer's first inc pays
        # no lock -- only threads that join later bind lazily.
        self._bind_cell()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter {self._metric.name!r} cannot decrease")
        try:
            cell = self._threads.cell
        except AttributeError:
            cell = self._bind_cell()
        cell[0] += amount

    def _bind_cell(self) -> list[float]:
        cell = [0.0]
        with self._metric._lock:
            self._cells.append(cell)
        self._threads.cell = cell
        return cell

    def _zero(self) -> None:
        for cell in self._cells:
            cell[0] = 0.0

    # Read-side conveniences fold across *all* writers of the series.
    @property
    def value(self) -> float:
        return self._metric._value(self._key)


class _LocalHistogram:
    """Per-thread ``[bucket_counts, sum, count]`` cells for one
    histogram series, folded at read time."""

    __slots__ = ("_metric", "_key", "_bounds", "_threads", "_cells", "_exslots")

    def __init__(self, metric: "Histogram", key: tuple[str, ...]):
        self._metric = metric
        self._key = key
        self._bounds = metric.bounds
        self._threads = threading.local()
        self._cells: list[list[Any]] = []
        self._exslots = metric._exemplar_slots(key)
        self._bind_cell()  # constructing thread binds eagerly (see _LocalCounter)

    def observe(self, value: float) -> None:
        try:
            cell = self._threads.cell
        except AttributeError:
            cell = self._bind_cell()
        idx = bisect_left(self._bounds, value)
        cell[0][idx] += 1
        cell[1] += value
        cell[2] += 1
        trace_id = _TRACE_PROVIDER()
        if trace_id:
            # GIL-atomic slot assignment: latest traced observation per
            # bucket (emitted only in OpenMetrics exposition).
            self._exslots[idx] = (float(value), trace_id, time.time())

    def _bind_cell(self) -> list[Any]:
        cell = [[0] * (len(self._bounds) + 1), 0.0, 0]
        with self._metric._lock:
            self._cells.append(cell)
        self._threads.cell = cell
        return cell

    def _zero(self) -> None:
        for cell in self._cells:
            cell[0] = [0] * (len(self._bounds) + 1)
            cell[1] = 0.0
            cell[2] = 0

    @property
    def sum(self) -> float:
        return self._metric._sum_of(self._key)

    @property
    def count(self) -> float:
        return self._metric._count_of(self._key)

    def quantile(self, q: float) -> float:
        return self._metric._quantile(self._key, q)


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"
    _local_cls = _LocalCounter

    def _new_series(self) -> float:
        return 0.0

    def _inc(self, key: tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        series = self._series
        with self._lock:
            # Fast path: the series almost always exists already (bound
            # instruments create it at labels() time).
            if key in series:
                series[key] += amount
            else:
                series[key] = self._series_for(key) + amount

    def _value(self, key: tuple[str, ...]) -> float:
        with self._lock:
            series = self._series.get(key)
            stored = 0.0 if series is None else float(series)
            return stored + self._local_totals(key)

    def _samples(self) -> Iterator[tuple[str, str, float]]:
        for key in sorted(self._series):
            yield (
                "",
                _render_labels(self.label_names, key),
                float(self._series[key]) + self._local_totals(key),
            )

    def merge_from(self, other: "Counter") -> None:
        with other._lock:
            items = [
                (key, value + other._local_totals(key))
                for key, value in other._series.items()
            ]
        with self._lock:
            for key, value in items:
                self._series[key] = self._series_for(key) + value


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def _new_series(self) -> float:
        return 0.0

    def _inc(self, key: tuple[str, ...], amount: float) -> None:
        with self._lock:
            self._series[key] = self._series_for(key) + amount

    def _set(self, key: tuple[str, ...], value: float) -> None:
        with self._lock:
            self._series_for(key)
            self._series[key] = float(value)

    def merge_from(self, other: "Gauge") -> None:
        with other._lock:
            items = list(other._series.items())
        with self._lock:
            for key, value in items:
                self._series[key] = self._series_for(key) + value


class Histogram(_Metric):
    """Cumulative histogram over fixed exponential buckets.

    Per-series state is ``[bucket_counts, sum, count]`` where
    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` minus the
    lower buckets (i.e. non-cumulative internally; cumulated on
    export, matching Prometheus ``_bucket{le=...}`` semantics).  The
    final slot is the ``+Inf`` overflow bucket.
    """

    kind = "histogram"
    _local_cls = _LocalHistogram

    def __init__(self, name: str, help: str, label_names: tuple[str, ...],
                 lock: threading.RLock, buckets: tuple[float, ...] | None = None,
                 max_series: int = MAX_LABEL_SETS,
                 registry: "MetricsRegistry | None" = None):
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS_NS))
        if not bounds:
            raise MetricError(f"histogram {name!r} needs at least one bucket bound")
        self.bounds = bounds
        #: key -> per-bucket exemplar slots: ``(value, trace_id, ts)``
        #: or None, latest traced observation per bucket.
        self._exemplars: dict[tuple[str, ...], list[Any]] = {}
        super().__init__(name, help, label_names, lock, max_series, registry)

    def _exemplar_slots(self, key: tuple[str, ...]) -> list[Any]:
        slots = self._exemplars.get(key)
        if slots is None:
            with self._lock:
                slots = self._exemplars.setdefault(
                    key, [None] * (len(self.bounds) + 1)
                )
        return slots

    def _new_series(self) -> list[Any]:
        return [[0] * (len(self.bounds) + 1), 0.0, 0]

    def _observe(self, key: tuple[str, ...], value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series_for(key)
            series[0][idx] += 1
            series[1] += value
            series[2] += 1
        trace_id = _TRACE_PROVIDER()
        if trace_id:
            self._exemplar_slots(key)[idx] = (float(value), trace_id, time.time())

    def _folded(self, key: tuple[str, ...]) -> list[Any]:
        """``[counts, sum, count]`` snapshot of stored + pending-local
        state for *key*.  Caller holds the lock."""
        series = self._series.get(key)
        if series is None:
            folded = self._new_series()
        else:
            folded = [series[0][:], series[1], series[2]]
        handles = self._locals.get(key)
        if handles:
            counts = folded[0]
            for handle in handles:
                for cell in handle._cells:
                    for idx, n in enumerate(cell[0]):
                        if n:
                            counts[idx] += n
                    folded[1] += cell[1]
                    folded[2] += cell[2]
        return folded

    def _value(self, key: tuple[str, ...]) -> float:
        return self._sum_of(key)

    def _sum_of(self, key: tuple[str, ...]) -> float:
        with self._lock:
            return float(self._folded(key)[1])

    def _count_of(self, key: tuple[str, ...]) -> float:
        with self._lock:
            return float(self._folded(key)[2])

    def _quantile(self, key: tuple[str, ...], q: float) -> float:
        with self._lock:
            counts = self._folded(key)[0]
        return bucket_quantile(
            zip(self.bounds + (float("inf"),), accumulate(counts)), q
        )

    def merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise MetricError(f"histogram {self.name!r}: bucket bounds differ")
        with other._lock:
            items = [(k, other._folded(k)) for k in other._series]
        with self._lock:
            for key, (counts, total, count) in items:
                series = self._series_for(key)
                for idx, n in enumerate(counts):
                    series[0][idx] += n
                series[1] += total
                series[2] += count

    def _samples(self) -> Iterator[tuple[str, str, float]]:
        for key in sorted(self._series):
            counts, total, count = self._folded(key)
            cumulative = 0
            for idx, bound in enumerate(self.bounds):
                cumulative += counts[idx]
                yield (
                    "_bucket",
                    _render_labels(self.label_names, key,
                                   (("le", _format_value(bound)),)),
                    float(cumulative),
                )
            yield (
                "_bucket",
                _render_labels(self.label_names, key, (("le", "+Inf"),)),
                float(count),
            )
            yield "_sum", _render_labels(self.label_names, key), float(total)
            yield "_count", _render_labels(self.label_names, key), float(count)

    @staticmethod
    def _format_exemplar(exemplar: tuple[float, str, float]) -> str:
        value, trace_id, ts = exemplar
        return (
            f' # {{trace_id="{_escape_label_value(trace_id)}"}} '
            f"{_format_value(value)} {ts:.3f}"
        )

    def _om_lines(self) -> Iterator[str]:
        """Bucket lines carry their exemplar (`` # {trace_id="..."}
        value ts``); sum/count lines are plain.  Caller holds the
        lock."""
        name = self.name
        for key in sorted(self._series):
            counts, total, count = self._folded(key)
            slots = self._exemplars.get(key)
            cumulative = 0
            for idx, bound in enumerate(self.bounds):
                cumulative += counts[idx]
                labels = _render_labels(self.label_names, key,
                                        (("le", _format_value(bound)),))
                line = f"{name}_bucket{labels} {_format_value(float(cumulative))}"
                exemplar = slots[idx] if slots else None
                if exemplar is not None:
                    line += self._format_exemplar(exemplar)
                yield line
            labels = _render_labels(self.label_names, key, (("le", "+Inf"),))
            line = f"{name}_bucket{labels} {_format_value(float(count))}"
            exemplar = slots[-1] if slots else None
            if exemplar is not None:
                line += self._format_exemplar(exemplar)
            yield line
            plain = _render_labels(self.label_names, key)
            yield f"{name}_sum{plain} {_format_value(float(total))}"
            yield f"{name}_count{plain} {_format_value(float(count))}"


class MetricsRegistry:
    """A named collection of metrics with text exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for
    an existing name with matching type and labels returns the same
    instrument (so façades and handlers can re-derive instruments
    cheaply); a mismatch raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    # -- instrument factories ---------------------------------------------

    def _get_or_create(self, cls: type, name: str, help: str,
                       labels: tuple[str, ...], **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != tuple(labels):
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {list(existing.label_names)}"
                    )
                if cls is Histogram and kwargs.get("buckets") is not None \
                        and tuple(sorted(kwargs["buckets"])) != existing.bounds:
                    raise MetricError(f"histogram {name!r}: bucket bounds differ")
                return existing
            metric = cls(name, help, tuple(labels), self._lock,
                         registry=self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = (),
                max_series: int = MAX_LABEL_SETS) -> Counter:
        return self._get_or_create(Counter, name, help, labels, max_series=max_series)

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = (),
              max_series: int = MAX_LABEL_SETS) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels, max_series=max_series)

    def histogram(self, name: str, help: str = "", labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] | None = None,
                  max_series: int = MAX_LABEL_SETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets, max_series=max_series
        )

    # -- collection-level operations --------------------------------------

    def collect(self) -> list[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    def expose(self, openmetrics: bool = False) -> str:
        """Prometheus text exposition format (version 0.0.4), or -- with
        *openmetrics* -- OpenMetrics 1.0: ``_total``-stripped counter
        families, per-bucket exemplars, and the mandatory ``# EOF``
        terminator.  The classic output is byte-stable regardless of
        any exemplar state."""
        blocks = [metric.expose(openmetrics) for metric in self.collect()]
        text = "\n".join(blocks) + ("\n" if blocks else "")
        if openmetrics:
            text += "# EOF\n"
        return text

    def snapshot(self) -> dict[str, float]:
        """Flat ``{'name{labels}': value}`` view of every series."""
        out: dict[str, float] = {}
        for metric in self.collect():
            metric.snapshot_into(out)
        return out

    def reset(self) -> None:
        """Zero every series (label sets are kept)."""
        for metric in self.collect():
            metric._reset()

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s series into this registry (same-named metrics
        are summed; used to aggregate per-proxy stats)."""
        for metric in other.collect():
            mine = self._get_or_create(
                type(metric), metric.name, metric.help, metric.label_names,
                **({"buckets": metric.bounds} if isinstance(metric, Histogram) else {}),
            )
            mine.max_series = max(mine.max_series, metric.max_series)
            mine.merge_from(metric)


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-series difference between two :meth:`MetricsRegistry.snapshot`
    windows (series absent from *before* count from zero)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


#: Process-global default registry (ad-hoc instrumentation, CLI dumps).
REGISTRY = MetricsRegistry()


def new_registry() -> MetricsRegistry:
    """A fresh registry (the name ``benchmarks/e2e`` imports)."""
    return MetricsRegistry()
