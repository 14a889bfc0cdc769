"""Request-scoped tracing via ``contextvars``.

Every request through the enforcement stack gets a **trace**: a random
16-hex-digit id plus a tree of timed **spans** naming the stages the
paper's overhead analysis cares about (``proxy.validate``,
``cache.lookup``, ``engine.match``, ``admission.chain``,
``store.commit``).  The active trace rides the execution context, so
in-process nesting (proxy -> API server -> store) needs no plumbing,
and the HTTP topology forwards the id in an ``X-Trace-Id`` header so
the proxy-side and server-side traces (and the resulting
:class:`~repro.k8s.audit.AuditEvent`) correlate.

``contextvars`` gives per-thread isolation for free: each HTTP pool
worker sees its own active trace.

Finished traces land in a bounded ring buffer
(:data:`TRACES`) exportable as JSON -- the source for the
``repro obs`` CLI snapshot and the ``/obs/traces`` debug endpoint.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any

from repro.obs.metrics import set_exemplar_trace_provider

__all__ = [
    "Span",
    "TRACE_SAMPLE_ENV",
    "Trace",
    "TraceBuffer",
    "TRACES",
    "current_trace_id",
    "new_trace_id",
    "span",
    "trace",
]

#: Head-sample 1-in-N request traces (default 1 = trace everything).
#: Part of the sharded data plane's telemetry teardown: at N>1 the
#: unsampled requests skip Trace/Span construction and the global
#: TRACES ring entirely (nested spans inside a *sampled* trace are
#: always kept, so sampled traces stay complete).
TRACE_SAMPLE_ENV = "REPRO_TRACE_SAMPLE"

# ``os.environ.get`` costs ~1us per call (Mapping.get -> __getitem__ ->
# decode); the underlying ``_data`` dict probe is ~30ns.  The gate runs
# once per request, so the fast probe matters; writes through
# ``os.environ[...]``/``.pop`` keep ``_data`` in sync.
try:
    _ENV_DATA: Any = os.environ._data  # type: ignore[attr-defined]
    _SAMPLE_KEY: Any = os.environ.encodekey(TRACE_SAMPLE_ENV)  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - non-CPython fallback
    _ENV_DATA = None
    _SAMPLE_KEY = TRACE_SAMPLE_ENV

#: (last raw env value, parsed N) -- re-parsed only when the env flips.
_SAMPLE_PARSED: tuple[Any, int] = (None, 1)

_SAMPLE_THREADS = threading.local()


def _trace_sample_every() -> int:
    global _SAMPLE_PARSED
    if _ENV_DATA is not None:
        raw = _ENV_DATA.get(_SAMPLE_KEY)
    else:  # pragma: no cover - non-CPython fallback
        raw = os.environ.get(TRACE_SAMPLE_ENV)
    cached_raw, value = _SAMPLE_PARSED
    if raw == cached_raw:
        return value
    try:
        value = max(1, int(raw)) if raw else 1
    except ValueError:
        value = 1
    _SAMPLE_PARSED = (raw, value)
    return value


def _trace_sampled() -> bool:
    """Per-thread deterministic 1-in-N draw (first of each window
    publishes, so low-rate threads stay represented)."""
    n = _trace_sample_every()
    if n <= 1:
        return True
    count = getattr(_SAMPLE_THREADS, "count", 0)
    _SAMPLE_THREADS.count = count + 1
    return count % n == 0


def new_trace_id() -> str:
    """A 16-hex-digit random trace id (64 bits, W3C-trace-style).

    Uses ``random.getrandbits`` rather than ``os.urandom``: trace ids
    need uniqueness, not cryptographic strength, and the PRNG avoids a
    syscall on every request.
    """
    return f"{random.getrandbits(64):016x}"


class Span:
    """One timed stage inside a trace.

    Doubles as its own context manager (``with span("..."):``): the
    span object *is* the node stored in the trace tree, so the traced
    hot path allocates exactly one object per stage -- no separate
    wrapper.  The owning-trace backref (set by :func:`span`) exists
    only to pop the open-span stack on exit; it is not serialized.
    """

    __slots__ = ("name", "start_ns", "end_ns", "children", "_trace")

    def __init__(self, name: str, start_ns: int, trace: "Trace | None" = None):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = 0
        self.children: list[Span] = []
        self._trace = trace

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.end_ns = time.perf_counter_ns()
        owner = self._trace
        if owner is None:
            return False
        stack = owner._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # exception unwound through nested spans
            while stack:
                if stack.pop() is self:
                    break
        return False

    @property
    def duration_ns(self) -> int:
        return max(self.end_ns - self.start_ns, 0)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "duration_ns": self.duration_ns}
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class Trace:
    """A request's span tree plus its correlation id.

    Doubles as the context manager :func:`trace` returns for a newly
    opened (root) trace: ``__enter__`` installs it as the active trace
    and ``__exit__`` finishes it and records it into the destination
    buffer -- one allocation per traced request, no wrapper object.
    """

    __slots__ = (
        "trace_id", "name", "start_ns", "end_ns", "spans", "_stack",
        "_buffer", "_token",
    )

    def __init__(self, name: str, trace_id: str | None = None):
        self.trace_id = trace_id or new_trace_id()
        self.name = name
        self.start_ns = time.perf_counter_ns()
        self.end_ns = 0
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._buffer: TraceBuffer | None = None
        self._token: Any = None

    def __enter__(self) -> "Trace":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc: Any) -> bool:
        _ACTIVE.reset(self._token)
        self.finish()
        if self._buffer is not None:
            self._buffer.record(self)
        return False

    def begin_span(self, name: str) -> Span:
        child = Span(name, time.perf_counter_ns())
        stack = self._stack
        (stack[-1].children if stack else self.spans).append(child)
        stack.append(child)
        return child

    def end_span(self, child: Span) -> None:
        child.end_ns = time.perf_counter_ns()
        stack = self._stack
        # Tolerate mismatched exits (exceptions unwinding several frames).
        while stack:
            if stack.pop() is child:
                break

    def finish(self) -> None:
        while self._stack:
            self.end_span(self._stack[-1])
        self.end_ns = time.perf_counter_ns()

    @property
    def duration_ns(self) -> int:
        end = self.end_ns or time.perf_counter_ns()
        return max(end - self.start_ns, 0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "duration_ns": self.duration_ns,
            "spans": [s.to_dict() for s in self.spans],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class TraceBuffer:
    """Bounded, thread-safe ring of finished traces."""

    def __init__(self, maxlen: int = 256):
        self._traces: deque[Trace] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def record(self, finished: Trace) -> None:
        with self._lock:
            self._traces.append(finished)

    def traces(self) -> list[Trace]:
        with self._lock:
            return list(self._traces)

    def find(self, trace_id: str) -> Trace | None:
        with self._lock:
            for candidate in reversed(self._traces):
                if candidate.trace_id == trace_id:
                    return candidate
        return None

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def to_json(self, limit: int = 32) -> str:
        return json.dumps(
            [t.to_dict() for t in self.traces()[-limit:]], sort_keys=True
        )


#: Process-global sink for finished traces.
TRACES = TraceBuffer()

_ACTIVE: ContextVar[Trace | None] = ContextVar("repro_obs_trace", default=None)


def current_trace_id() -> str | None:
    """The id of the active trace, if any (audit correlation)."""
    active = _ACTIVE.get()
    return active.trace_id if active is not None else None


# Histogram exemplar capture joins a latency bucket to the trace that
# produced it; the provider is injected to avoid a metrics -> tracing
# import cycle.
set_exemplar_trace_provider(current_trace_id)


class _NoopContext:
    """Shared do-nothing context: what an untraced request holds.

    A single module-level instance serves every disabled/unsampled
    ``trace()`` and every ``span()`` outside a trace -- the untraced
    fast path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP = _NoopContext()


class _JoinedTrace:
    """Context manager for a block nested under an existing trace."""

    __slots__ = ("_active", "_child")

    def __init__(self, active: Trace, name: str):
        self._active = active
        self._child = active.begin_span(name)

    def __enter__(self) -> Trace:
        return self._active

    def __exit__(self, *exc: Any) -> bool:
        self._active.end_span(self._child)
        return False


def trace(name: str, trace_id: str | None = None,
          buffer: TraceBuffer | None = TRACES) -> Any:
    """Open (or join) a request trace.

    If a trace is already active on this context -- e.g. the in-process
    API server running under the proxy's trace -- the block becomes a
    nested span instead of a second trace, preserving one id per
    request end-to-end (and inheriting the root's sampling decision, so
    sampled traces stay complete).  When the 1-in-N draw
    (``REPRO_TRACE_SAMPLE``) skips this request, the block is a
    shared no-op yielding ``None`` -- the decision is made
    *here*, before any Trace/Span allocation, which is what keeps the
    unsampled hot path nearly free.
    """
    active = _ACTIVE.get()
    if active is not None:
        return _JoinedTrace(active, name)
    # The 1-in-N draw, inlined (same logic as _trace_sampled): this
    # runs once per request, so one avoided call frame is measurable
    # in the in-process overhead gate.
    n = _trace_sample_every()
    if n > 1:
        count = getattr(_SAMPLE_THREADS, "count", 0)
        _SAMPLE_THREADS.count = count + 1
        if count % n:
            return _NOOP
    opened = Trace(name, trace_id)
    opened._buffer = buffer
    return opened


def span(name: str) -> Any:
    """A timed stage under the active trace (shared no-op without
    one -- untraced requests allocate nothing per span).

    The begin bookkeeping is inlined (rather than delegating to
    :meth:`Trace.begin_span`) and the :class:`Span` node itself is the
    context manager: spans run several times per request, so one
    allocation and no delegation is the difference that shows up in
    the in-process overhead gate.
    """
    active = _ACTIVE.get()
    if active is None:
        return _NOOP
    child = Span(name, time.perf_counter_ns(), active)
    stack = active._stack
    (stack[-1].children if stack else active.spans).append(child)
    stack.append(child)
    return child
