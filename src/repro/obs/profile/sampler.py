"""Sampling wall-clock profiler (continuous, flamegraph-ready).

A daemon thread walks :func:`sys._current_frames` at
``REPRO_PROFILE_HZ`` (default :data:`DEFAULT_PROFILE_HZ`, ``0`` turns
the sampler off) and folds every thread's stack into collapsed-stack
counts -- the `Brendan Gregg flamegraph format
<https://www.brendangregg.com/flamegraphs.html>`_: one line per
distinct stack, frames joined with ``;`` root-to-leaf, followed by the
sample count.  ``/obs/profile`` on both HTTP components serves the
table as collapsed text (``?format=collapsed``) or JSON with a
per-function self/total split.

Design points:

- **Wall-clock, not CPU.**  ``sys._current_frames()`` reports where
  every thread *is*, including threads blocked on sockets or locks --
  exactly what a request-serving data plane needs (a thread stuck in
  ``store.commit`` shows up even though it burns no CPU).
- **Bounded.**  The stack table caps at ``max_stacks`` distinct
  stacks; overflow samples are counted in ``dropped_samples`` instead
  of growing memory under pathological stack diversity.
- **Zero instrumentation cost.**  Nothing runs on the request path;
  the only cost is the sampler thread waking ``hz`` times per second
  and walking ~N thread stacks, which is what the ``profile`` gate
  of ``benchmarks/compare_bench.py`` bounds at <5%.
- **Refcounted lifetime.**  Each HTTP component ``acquire()``\\ s the
  process-global :data:`PROFILER` on start and ``release()``\\ s it on
  stop, so the sampler runs exactly while something is serving and the
  test-suite leak checker sees no stray thread afterwards.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any


__all__ = [
    "DEFAULT_PROFILE_HZ",
    "PROFILE_HZ_ENV",
    "PROFILER",
    "SamplingProfiler",
    "profile_hz",
]

#: Environment variable selecting the sampling rate; ``0`` disables.
PROFILE_HZ_ENV = "REPRO_PROFILE_HZ"

#: Default sampling rate.  67 Hz is deliberately prime-ish (the
#: perf-tool convention, e.g. 99 Hz): a rate that does not divide one
#: second evenly cannot phase-lock onto periodic work such as a 1 s
#: time-series tick or a scanner loop, which would systematically
#: over- or under-sample it.
DEFAULT_PROFILE_HZ = 67.0

#: Cap on distinct collapsed stacks retained (overflow is counted).
DEFAULT_MAX_STACKS = 4096

#: Frames kept per stack, leaf-ward; deeper stacks are truncated at
#: the root with a ``(truncated)`` marker frame.
DEFAULT_MAX_DEPTH = 64


def profile_hz() -> float:
    """The configured sampling rate (``REPRO_PROFILE_HZ``, Hz)."""
    raw = os.environ.get(PROFILE_HZ_ENV)
    if raw is None or raw == "":
        return DEFAULT_PROFILE_HZ
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_PROFILE_HZ
    return max(0.0, value)


def _frame_label(frame: Any) -> str:
    """``module.function`` -- compact, aggregatable across lines."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{code.co_name}"


class SamplingProfiler:
    """Fold periodic ``sys._current_frames()`` walks into a bounded
    collapsed-stack table (root-to-leaf tuples -> sample counts)."""

    def __init__(self, hz: float | None = None,
                 max_stacks: int = DEFAULT_MAX_STACKS,
                 max_depth: int = DEFAULT_MAX_DEPTH):
        #: ``None`` means "read REPRO_PROFILE_HZ at start()".
        self._hz_override = hz
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self.hz = 0.0  # actual rate while running
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, ...], int] = {}
        self._samples = 0          # stack samples recorded
        self._dropped = 0          # samples refused by the stack cap
        self._sweeps = 0           # _current_frames() walks performed
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._refs = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> bool:
        """Start the sampler thread; ``False`` when disabled
        (``REPRO_PROFILE_HZ=0``).  Idempotent."""
        hz = self._hz_override if self._hz_override is not None else profile_hz()
        if hz <= 0:
            return False
        with self._lock:
            if self._thread is not None:
                return True
            self.hz = hz
            self._stop.clear()
            thread = threading.Thread(
                target=self._run, args=(1.0 / hz,),
                name="repro-profiler", daemon=True,
            )
            self._thread = thread
        thread.start()
        return True

    def stop(self) -> None:
        """Stop and join the sampler thread (retains counts)."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5)
        if thread.is_alive():  # pragma: no cover - hang guard
            raise RuntimeError("profiler thread failed to stop within 5s")

    def acquire(self) -> bool:
        """Refcounted :meth:`start` -- components call this on their own
        ``start()`` so one sampler serves however many are live."""
        with self._lock:
            self._refs += 1
        return self.start()

    def release(self) -> None:
        """Drop one reference; the last release stops the sampler."""
        with self._lock:
            self._refs = max(0, self._refs - 1)
            last = self._refs == 0
        if last:
            self.stop()

    # -- sampling ----------------------------------------------------------

    def _run(self, interval: float) -> None:
        me = threading.get_ident()
        while not self._stop.wait(interval):
            self.sample_once(skip_ident=me)

    def sample_once(self, skip_ident: int | None = None) -> int:
        """One walk over every live thread's stack; returns the number
        of stacks recorded.  Public so tests can sample synchronously
        without a running thread."""
        recorded = 0
        with self._lock:
            self._sweeps += 1
        # _current_frames() returns a fresh dict; iterating it is safe
        # even as threads come and go.
        for ident, frame in sys._current_frames().items():
            if ident == skip_ident:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if frame is not None:
                stack.append("(truncated)")
            if not stack:
                continue
            stack.reverse()  # collapsed format is root -> leaf
            key = tuple(stack)
            with self._lock:
                count = self._counts.get(key)
                if count is None and len(self._counts) >= self.max_stacks:
                    self._dropped += 1
                    continue
                self._counts[key] = (count or 0) + 1
                self._samples += 1
            recorded += 1
        return recorded

    # -- export ------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._samples = 0
            self._dropped = 0
            self._sweeps = 0

    def _snapshot(self) -> tuple[dict[tuple[str, ...], int], int, int]:
        with self._lock:
            return dict(self._counts), self._samples, self._dropped

    def collapsed(self) -> str:
        """Flamegraph-ready collapsed text: ``a;b;c <count>`` lines,
        heaviest stacks first (feed straight into ``flamegraph.pl`` or
        speedscope)."""
        counts, _samples, _dropped = self._snapshot()
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(
                counts.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def functions(self, top: int = 50) -> list[dict[str, Any]]:
        """Per-function self/total sample split, heaviest *self* first.

        ``total`` counts every sample in which the function appears
        anywhere on the stack (deduplicated, so recursion does not
        double-count); ``self`` counts samples where it is the leaf.
        """
        counts, _samples, _dropped = self._snapshot()
        self_counts: dict[str, int] = {}
        total_counts: dict[str, int] = {}
        for stack, count in counts.items():
            self_counts[stack[-1]] = self_counts.get(stack[-1], 0) + count
            for name in set(stack):
                total_counts[name] = total_counts.get(name, 0) + count
        ranked = sorted(
            total_counts,
            key=lambda name: (-self_counts.get(name, 0), -total_counts[name], name),
        )
        return [
            {
                "function": name,
                "self": self_counts.get(name, 0),
                "total": total_counts[name],
            }
            for name in ranked[: max(0, top)]
        ]

    def stats(self, top: int = 50) -> dict[str, Any]:
        """JSON-ready profile state (the ``/obs/profile`` payload)."""
        counts, samples, dropped = self._snapshot()
        stacks = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return {
            "running": self.running,
            "hz": self.hz if self.running else (
                self._hz_override if self._hz_override is not None else profile_hz()
            ),
            "samples": samples,
            "dropped_samples": dropped,
            "distinct_stacks": len(counts),
            "max_stacks": self.max_stacks,
            "functions": self.functions(top),
            "stacks": [
                {"stack": ";".join(stack), "count": count}
                for stack, count in stacks[: max(0, top)]
            ],
        }


#: Process-global sampler: one thread profiles every component in the
#: process (``sys._current_frames`` is process-wide anyway).
PROFILER = SamplingProfiler()
