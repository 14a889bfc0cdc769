"""In-process metrics time series (the ``/obs/timeseries`` ring).

A Prometheus deployment gets rate/quantile-over-time for free from its
scrape store; a dev loop or CI smoke run has no Prometheus.  This ring
closes the gap in-process: a daemon thread snapshots the component's
registry at a fixed interval (``REPRO_TS_INTERVAL``, default 1 s) and
appends one bounded point per tick (``REPRO_TS_RETENTION`` points,
default 300 -- five minutes at the default interval).

Each point stores **deltas** for counter/histogram series (so a point
reads as "what happened in this interval" -- divide by ``interval_s``
for a rate) and **absolute values** for gauges (breaker state, SLO
burn, shadow fraction -- level signals where a delta is meaningless).
Zero deltas are dropped per point, so an idle component's ring costs a
timestamp per tick.

``GET /obs/timeseries?series=&since=`` serves the ring; ``repro top``
renders it as a live terminal dashboard.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any

from repro.obs.metrics import Gauge

__all__ = [
    "DEFAULT_TS_INTERVAL_S",
    "DEFAULT_TS_RETENTION",
    "TS_INTERVAL_ENV",
    "TS_RETENTION_ENV",
    "TimeSeriesRing",
]

TS_RETENTION_ENV = "REPRO_TS_RETENTION"
TS_INTERVAL_ENV = "REPRO_TS_INTERVAL"

#: Ring size (points) and tick interval (seconds) defaults.
DEFAULT_TS_RETENTION = 300
DEFAULT_TS_INTERVAL_S = 1.0

#: Floor on the tick interval -- a sub-20ms ticker is a busy loop.
_MIN_INTERVAL_S = 0.02


def ts_retention() -> int:
    raw = os.environ.get(TS_RETENTION_ENV)
    if not raw:
        return DEFAULT_TS_RETENTION
    try:
        return max(2, min(int(raw), 100_000))
    except ValueError:
        return DEFAULT_TS_RETENTION


def ts_interval() -> float:
    raw = os.environ.get(TS_INTERVAL_ENV)
    if not raw:
        return DEFAULT_TS_INTERVAL_S
    try:
        return max(_MIN_INTERVAL_S, float(raw))
    except ValueError:
        return DEFAULT_TS_INTERVAL_S


class TimeSeriesRing:
    """Bounded ring of fixed-interval registry snapshot deltas."""

    def __init__(self, registry: Any, interval_s: float | None = None,
                 retention: int | None = None):
        self.registry = registry
        self.interval_s = interval_s if interval_s is not None else ts_interval()
        self.retention = retention if retention is not None else ts_retention()
        self._points: deque[dict[str, Any]] = deque(maxlen=self.retention)
        self._lock = threading.Lock()
        self._last: dict[str, float] = {}
        self._primed = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> None:
        """Start the ticker thread.  Idempotent."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            thread = threading.Thread(
                target=self._run, name="repro-timeseries", daemon=True
            )
            self._thread = thread
        thread.start()

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5)
        if thread.is_alive():  # pragma: no cover - hang guard
            raise RuntimeError("timeseries thread failed to stop within 5s")

    def _run(self) -> None:
        # Prime the baseline snapshot so the first recorded point holds
        # one interval's delta, not process-lifetime totals.
        self.tick(record=False)
        while not self._stop.wait(self.interval_s):
            self.tick()

    # -- ticking -----------------------------------------------------------

    def _gauge_keys(self) -> set[str]:
        keys: set[str] = set()
        collect = getattr(self.registry, "collect", None)
        if collect is None:
            return keys
        for metric in collect():
            if isinstance(metric, Gauge):
                snap: dict[str, float] = {}
                metric.snapshot_into(snap)
                keys.update(snap)
        return keys

    def tick(self, record: bool = True) -> dict[str, Any] | None:
        """Snapshot the registry and append one point (public so tests
        and synchronous callers can tick without the thread)."""
        snapshot = self.registry.snapshot()
        gauges = self._gauge_keys()
        with self._lock:
            last, primed = self._last, self._primed
            self._last, self._primed = snapshot, True
            if not record:
                return None
            values: dict[str, float] = {}
            for key, value in snapshot.items():
                if key in gauges:
                    values[key] = value
                else:
                    delta = value - last.get(key, 0.0) if primed else 0.0
                    if delta:
                        values[key] = delta
            point = {"ts": round(time.time(), 3), "values": values}
            self._points.append(point)
            return point

    # -- queries -----------------------------------------------------------

    def points(self, series: str | None = None, since: float = 0.0,
               limit: int | None = None) -> list[dict[str, Any]]:
        """Points newer than *since*, with values filtered to series
        names containing *series* (substring match on the full
        ``name{labels}`` key)."""
        with self._lock:
            selected = [p for p in self._points if p["ts"] > since]
        if limit is not None and limit >= 0:
            selected = selected[-limit:]
        if series is None:
            return [dict(p, values=dict(p["values"])) for p in selected]
        return [
            {
                "ts": p["ts"],
                "values": {
                    key: value for key, value in p["values"].items()
                    if series in key
                },
            }
            for p in selected
        ]

    def to_dict(self, series: str | None = None, since: float = 0.0,
                limit: int | None = None) -> dict[str, Any]:
        """The ``/obs/timeseries`` payload."""
        return {
            "interval_s": self.interval_s,
            "retention": self.retention,
            "running": self.running,
            "points": self.points(series=series, since=since, limit=limit),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)
