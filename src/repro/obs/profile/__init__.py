"""Continuous profiling and latency attribution (docs/OBSERVABILITY.md).

Three cooperating pieces close the performance-observability loop the
same way the analytics layer closed the security one:

- :mod:`~repro.obs.profile.sampler` -- a sampling wall-clock profiler
  (``sys._current_frames()`` at ``REPRO_PROFILE_HZ``) exporting
  flamegraph-ready collapsed stacks at ``/obs/profile``;
- :mod:`~repro.obs.profile.phases` -- a near-zero-cost per-request
  phase clock (``kubefence_phase_ns_total{phase=...}``) attributing
  every request's wall time to authn / cache-probe / validation /
  upstream / telemetry / serialization;
- :mod:`~repro.obs.profile.timeseries` -- a bounded in-process ring of
  registry snapshot deltas at ``/obs/timeseries``, the data source for
  the ``repro top`` live dashboard.
"""

from repro.obs.profile.phases import (
    PHASES,
    PHASE_METRIC,
    PhaseClock,
    WALL_METRIC,
    phase_totals,
)
from repro.obs.profile.sampler import (
    DEFAULT_PROFILE_HZ,
    PROFILE_HZ_ENV,
    PROFILER,
    SamplingProfiler,
    profile_hz,
)
from repro.obs.profile.timeseries import (
    DEFAULT_TS_INTERVAL_S,
    DEFAULT_TS_RETENTION,
    TS_INTERVAL_ENV,
    TS_RETENTION_ENV,
    TimeSeriesRing,
)

__all__ = [
    "DEFAULT_PROFILE_HZ",
    "DEFAULT_TS_INTERVAL_S",
    "DEFAULT_TS_RETENTION",
    "PHASES",
    "PHASE_METRIC",
    "PROFILER",
    "PROFILE_HZ_ENV",
    "PhaseClock",
    "SamplingProfiler",
    "TS_INTERVAL_ENV",
    "TS_RETENTION_ENV",
    "TimeSeriesRing",
    "WALL_METRIC",
    "phase_totals",
    "profile_hz",
]
