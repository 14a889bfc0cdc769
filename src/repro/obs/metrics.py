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
- **One store per series.**  ``labels(...)`` (alias ``local(...)``)
  returns the series' one memoised handle.  A counter or histogram
  handle holds per-thread cells: writes touch only the calling
  thread's cell, with no lock, and every read (``value``, quantiles,
  exposition, ``snapshot``, ``merge_from``) folds the cells.  The
  unlabeled ``inc``/``observe``/``value`` go through the same handle.
  Gauges are set, not accumulated, and keep a locked value.  Caveats:
  ``reset()`` racing active writers may lose in-flight increments,
  and a read racing a histogram observation may see ``sum``/``count``
  skewed by one sample; both settle at quiescence.
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


class _CounterSeries:
    """One counter series: per-thread accumulation cells.

    ``inc`` touches only the calling thread's cell (one plain list slot
    per writer thread, no lock, no CAS -- the GIL makes the float add
    atomic enough); ``value`` sums every cell.  A thread binds its cell
    under the registry lock on its first write.
    """

    __slots__ = ("_name", "_lock", "_threads", "_cells")

    def __init__(self, metric: "_Metric"):
        self._name = metric.name
        self._lock = metric._lock
        self._threads = threading.local()
        self._cells: list[list[float]] = []

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter {self._name!r} cannot decrease")
        try:
            cell = self._threads.cell
        except AttributeError:
            cell = self._bind_cell()
        cell[0] += amount

    def _bind_cell(self) -> list[float]:
        cell = [0.0]
        with self._lock:
            self._cells.append(cell)
        self._threads.cell = cell
        return cell

    @property
    def value(self) -> float:
        return float(sum(cell[0] for cell in self._cells))

    def _zero(self) -> None:
        for cell in self._cells:
            cell[0] = 0.0


class _HistogramSeries:
    """One histogram series: per-thread ``[bucket_counts, sum, count]``
    cells, folded at read time, plus the latest traced observation per
    bucket (exemplars, emitted only in OpenMetrics exposition)."""

    __slots__ = ("_lock", "_bounds", "_threads", "_cells", "_exemplars")

    def __init__(self, metric: "Histogram"):
        self._lock = metric._lock
        self._bounds = metric.bounds
        self._threads = threading.local()
        self._cells: list[list[Any]] = []
        self._exemplars: list[Any] = [None] * (len(metric.bounds) + 1)

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
            # GIL-atomic slot assignment: latest traced observation.
            self._exemplars[idx] = (float(value), trace_id, time.time())

    def _bind_cell(self) -> list[Any]:
        cell = [[0] * (len(self._bounds) + 1), 0.0, 0]
        with self._lock:
            self._cells.append(cell)
        self._threads.cell = cell
        return cell

    def _add(self, counts: list[int], total: float, count: int) -> None:
        """Fold another series' totals into the calling thread's cell
        (registry merges)."""
        cell = getattr(self._threads, "cell", None) or self._bind_cell()
        for idx, n in enumerate(counts):
            cell[0][idx] += n
        cell[1] += total
        cell[2] += count

    def _folded(self) -> tuple[list[int], float, int]:
        """``(bucket_counts, sum, count)`` across every thread's cell."""
        counts = [0] * (len(self._bounds) + 1)
        total, count = 0.0, 0
        for cell in self._cells:
            for idx, n in enumerate(cell[0]):
                if n:
                    counts[idx] += n
            total += cell[1]
            count += cell[2]
        return counts, total, count

    @property
    def sum(self) -> float:
        return float(self._folded()[1])

    @property
    def count(self) -> float:
        return float(self._folded()[2])

    def quantile(self, q: float) -> float:
        return bucket_quantile(
            zip(self._bounds + (float("inf"),), accumulate(self._folded()[0])), q
        )

    def _zero(self) -> None:
        for cell in self._cells:
            cell[0] = [0] * (len(self._bounds) + 1)
            cell[1] = 0.0
            cell[2] = 0


class _GaugeSeries:
    """One gauge series: a single value written under the registry
    lock (gauges are set, not accumulated, so they have no per-thread
    cells)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, metric: "_Metric"):
        self._lock = metric._lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _zero(self) -> None:
        self._value = 0.0


class _Metric:
    """Common storage: one memoised series handle per label-value
    tuple.  ``labels(...)`` returns that handle; the unlabeled
    ``inc``/``observe``/``value``/... go through the handle at ``()``."""

    kind = "untyped"
    _series_cls: Any = None

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
        if not self.label_names:
            self._series[()] = self._series_cls(self)

    # -- series management -------------------------------------------------

    def _series_for(self, key: tuple[str, ...]) -> Any:
        series = self._series.get(key)
        if series is not None:
            return series
        with self._lock:
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
                series = self._series[key] = self._series_cls(self)
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

    def labels(self, **labels: str) -> Any:
        """The handle of one label-value combination, memoised: the
        same values always return the same object, so callers keep no
        handle caches of their own.  The cardinality guard fires when
        a new combination would exceed the cap."""
        names = self.label_names
        if len(labels) == len(names):
            try:
                key = tuple(map(str, map(labels.__getitem__, names)))
            except KeyError:
                pass
            else:
                return self._series_for(key)
        raise MetricError(
            f"metric {self.name!r} takes labels {list(names)}, got {sorted(labels)}"
        )

    #: The lock-free per-thread write handle of a counter or histogram
    #: series is its one handle (see :class:`_CounterSeries`).
    local = labels

    def _only(self) -> Any:
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} has labels {list(self.label_names)}; "
                "use .labels(...)"
            )
        return self._series[()]

    def _reset(self) -> None:
        with self._lock:
            for series in self._series.values():
                series._zero()

    # -- export ------------------------------------------------------------

    def _samples(self) -> Iterator[tuple[str, str, float]]:
        """Yield (suffix, rendered_labels, value); caller holds the lock."""
        for key in sorted(self._series):
            yield "", _render_labels(self.label_names, key), self._series[key].value

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


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"
    _series_cls = _CounterSeries

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    @property
    def value(self) -> float:
        return self._only().value

    def merge_from(self, other: "Counter") -> None:
        with other._lock:
            items = [(key, series.value) for key, series in other._series.items()]
        for key, value in items:
            self._series_for(key).inc(value)


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"
    _series_cls = _GaugeSeries

    def local(self, **labels: str) -> Any:
        raise MetricError(f"gauge {self.name!r} does not support local() handles")

    def set(self, value: float) -> None:
        self._only().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._only().dec(amount)

    @property
    def value(self) -> float:
        return self._only().value

    def merge_from(self, other: "Gauge") -> None:
        with other._lock:
            items = [(key, series.value) for key, series in other._series.items()]
        for key, value in items:
            self._series_for(key).inc(value)


class Histogram(_Metric):
    """Cumulative histogram over fixed exponential buckets.

    Per-series state is ``[bucket_counts, sum, count]`` where
    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` minus the
    lower buckets (i.e. non-cumulative internally; cumulated on
    export, matching Prometheus ``_bucket{le=...}`` semantics).  The
    final slot is the ``+Inf`` overflow bucket.
    """

    kind = "histogram"
    _series_cls = _HistogramSeries

    def __init__(self, name: str, help: str, label_names: tuple[str, ...],
                 lock: threading.RLock, buckets: tuple[float, ...] | None = None,
                 max_series: int = MAX_LABEL_SETS,
                 registry: "MetricsRegistry | None" = None):
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS_NS))
        if not bounds:
            raise MetricError(f"histogram {name!r} needs at least one bucket bound")
        self.bounds = bounds
        super().__init__(name, help, label_names, lock, max_series, registry)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    @property
    def sum(self) -> float:
        return self._only().sum

    @property
    def count(self) -> float:
        return self._only().count

    def quantile(self, q: float) -> float:
        return self._only().quantile(q)

    def merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise MetricError(f"histogram {self.name!r}: bucket bounds differ")
        with other._lock:
            items = [(key, series._folded()) for key, series in other._series.items()]
        for key, folded in items:
            self._series_for(key)._add(*folded)

    def _samples(self) -> Iterator[tuple[str, str, float]]:
        for key in sorted(self._series):
            counts, total, count = self._series[key]._folded()
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
            series = self._series[key]
            counts, total, count = series._folded()
            slots = series._exemplars
            cumulative = 0
            for idx, bound in enumerate(self.bounds):
                cumulative += counts[idx]
                labels = _render_labels(self.label_names, key,
                                        (("le", _format_value(bound)),))
                line = f"{name}_bucket{labels} {_format_value(float(cumulative))}"
                if slots[idx] is not None:
                    line += self._format_exemplar(slots[idx])
                yield line
            labels = _render_labels(self.label_names, key, (("le", "+Inf"),))
            line = f"{name}_bucket{labels} {_format_value(float(count))}"
            if slots[-1] is not None:
                line += self._format_exemplar(slots[-1])
            yield line
            plain = _render_labels(self.label_names, key)
            yield f"{name}_sum{plain} {_format_value(float(total))}"
            yield f"{name}_count{plain} {_format_value(float(count))}"


class MetricsRegistry:
    """A named collection of metrics with text exposition.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for
    an existing name with matching type and labels returns the same
    instrument (so components and handlers can re-derive instruments
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
