"""Deterministic, seedable fault injection for the enforcement path.

The chaos harness needs upstream failures that are *reproducible*: a
fixed seed must replay the exact same sequence of resets, 503 bursts,
latency spikes, truncated responses, and hangs, so a chaos run is an
experiment rather than a flake generator.

One :class:`FaultInjector` draws a :class:`FaultDecision` per request
from a single seeded ``random.Random`` (exactly one draw per decision,
under a lock, so the sequence is a pure function of ``(plan, seed)``
and the request order).  The same injector instance plugs into both
deployment shapes:

- **in-process**: :class:`FaultyAPIServer` wraps an
  :class:`~repro.k8s.apiserver.APIServer`'s ``handle`` and turns
  decisions into 5xx :class:`~repro.k8s.apiserver.ApiResponse`\\ s,
  raised ``ConnectionResetError``/``TimeoutError``, or added latency;
- **HTTP**: :meth:`FaultInjector.apply_http` is called by the
  :class:`~repro.k8s.http.HttpApiServer` request handler (when the
  server is constructed with ``fault_injector=...``) and turns
  decisions into real wire-level faults -- RST via ``SO_LINGER(0)``,
  short-writes against an inflated ``Content-Length``, stalls, and
  5xx ``Status`` bodies.

Every injected fault is counted twice: in the injector's own
``counts`` dict (assertable in tests) and in the
``kubefence_faults_injected_total{kind}`` series of an optional
:mod:`repro.obs` registry, so a chaos run's pressure is visible on the
same ``/metrics`` surface as the proxy's reaction to it.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.k8s.apiserver import ApiResponse
from repro.k8s.errors import ApiError

__all__ = [
    "FAULT_KINDS",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultyAPIServer",
]

#: Everything the injector can do to a request.
FAULT_KINDS = ("none", "delay", "error", "reset", "partial", "hang")

#: Safety cap on injected hangs (a chaos run must terminate).
MAX_HANG_SECONDS = 5.0


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault mix for one chaos scenario.

    Rates are independent per-request probabilities resolved in a
    fixed precedence order (error, reset, partial, hang, latency) off
    a single uniform draw, so their sum must stay <= 1.  ``fail_first``
    scripts a deterministic burst: the first N requests unconditionally
    suffer ``fail_first_kind`` (how a breaker-trip scenario is staged).
    """

    name: str = "custom"
    latency_rate: float = 0.0
    latency_ms: float = 1.0
    error_rate: float = 0.0
    error_code: int = 503
    reset_rate: float = 0.0
    partial_rate: float = 0.0
    hang_rate: float = 0.0
    hang_seconds: float = 0.5
    fail_first: int = 0
    fail_first_kind: str = "error"

    def __post_init__(self) -> None:
        total = (self.error_rate + self.reset_rate + self.partial_rate
                 + self.hang_rate + self.latency_rate)
        if total > 1.0 + 1e-9:
            raise ValueError(f"fault rates sum to {total:.3f} > 1.0")
        for rate in (self.error_rate, self.reset_rate, self.partial_rate,
                     self.hang_rate, self.latency_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("fault rates must be in [0, 1]")
        if self.fail_first < 0:
            raise ValueError("fail_first must be >= 0")
        if self.fail_first_kind not in FAULT_KINDS or self.fail_first_kind == "none":
            raise ValueError(
                f"fail_first_kind must be an active fault kind, "
                f"not {self.fail_first_kind!r}"
            )
        if not 500 <= self.error_code <= 599:
            raise ValueError("error_code must be a 5xx status")


class FaultDecision(NamedTuple):
    """One injected behaviour: ``kind`` plus its magnitude (ms for
    delay, status code for error, seconds for hang)."""

    kind: str
    value: float = 0.0


class FaultInjector:
    """Draws one deterministic :class:`FaultDecision` per request."""

    def __init__(self, plan: FaultPlan, seed: int = 0, registry: Any | None = None):
        self.plan = plan
        self.seed = seed
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._request_index = 0
        self.counts: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._metric = None
        if registry is not None:
            self._metric = registry.counter(
                "kubefence_faults_injected_total",
                "Faults injected into the upstream path, by kind.",
                labels=("kind",),
            )

    def reset(self, seed: int | None = None) -> None:
        """Rewind to the start of the (re-)seeded decision sequence."""
        with self._lock:
            self.seed = self.seed if seed is None else seed
            self._rng = random.Random(self.seed)
            self._request_index = 0
            self.counts = {kind: 0 for kind in FAULT_KINDS}

    @property
    def requests_seen(self) -> int:
        with self._lock:
            return self._request_index

    @property
    def faults_injected(self) -> int:
        with self._lock:
            return sum(n for kind, n in self.counts.items() if kind != "none")

    # -- decisions -----------------------------------------------------------

    def _decision_for(self, kind: str) -> FaultDecision:
        plan = self.plan
        if kind == "delay":
            return FaultDecision("delay", plan.latency_ms)
        if kind == "error":
            return FaultDecision("error", float(plan.error_code))
        if kind == "hang":
            return FaultDecision("hang", min(plan.hang_seconds, MAX_HANG_SECONDS))
        return FaultDecision(kind)

    def decide(self) -> FaultDecision:
        """The next decision in the seeded sequence (thread-safe; one
        uniform draw per call regardless of the outcome, so the
        sequence never depends on which faults fired earlier)."""
        plan = self.plan
        with self._lock:
            self._request_index += 1
            draw = self._rng.random()
            if self._request_index <= plan.fail_first:
                kind = plan.fail_first_kind
            else:
                kind = "none"
                threshold = 0.0
                for candidate, rate in (
                    ("error", plan.error_rate),
                    ("reset", plan.reset_rate),
                    ("partial", plan.partial_rate),
                    ("hang", plan.hang_rate),
                    ("delay", plan.latency_rate),
                ):
                    threshold += rate
                    if draw < threshold:
                        kind = candidate
                        break
            self.counts[kind] += 1
        if self._metric is not None and kind != "none":
            self._metric.labels(kind=kind).inc()
        return self._decision_for(kind)

    # -- HTTP wire-level application ----------------------------------------

    def apply_http(self, handler: Any) -> bool:
        """Apply the next decision at the HTTP layer.

        Returns ``True`` when the fault consumed the request (the
        handler must not route it); ``False`` for no-fault and for
        pure added latency.  The caller has already drained the
        request body (keep-alive hygiene).
        """
        decision = self.decide()
        kind = decision.kind
        if kind == "none":
            return False
        if kind == "delay":
            time.sleep(decision.value / 1000.0)
            return False
        if kind == "error":
            error = self.injected_error(int(decision.value))
            handler.reply(error.code, error.to_status())
            return True
        if kind == "hang":
            time.sleep(decision.value)
            self._reset_connection(handler)
            return True
        if kind == "reset":
            self._reset_connection(handler)
            return True
        # "partial": promise more bytes than are sent (one send, like
        # every reply), then kill the connection -- the client sees
        # http.client.IncompleteRead.
        payload = b'{"kind":"Status","status":"Failure","message":"truncated'
        try:
            handler.wfile.write(handler.reply_head(200, len(payload) * 2) + payload)
        except OSError:
            pass
        self._reset_connection(handler)
        return True

    def injected_error(self, code: int) -> ApiError:
        """The protocol-space fault: the upstream's own 5xx ``Status``."""
        return ApiError(
            code,
            "ServiceUnavailable" if code == 503 else "InternalError",
            f"injected fault: {self.plan.name} (error)",
        )

    @staticmethod
    def _reset_connection(handler: Any) -> None:
        """Abort the TCP connection with an RST (SO_LINGER zero), the
        closest stdlib analogue of a crashed upstream."""
        handler.close_connection = True
        try:
            handler.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        try:
            handler.connection.close()
        except OSError:
            pass


class FaultyAPIServer:
    """An :class:`~repro.k8s.apiserver.APIServer` wrapper that injects
    faults in front of ``handle`` (the in-process chaos deployment).

    Transport-space faults surface as the exceptions an HTTP client
    would raise (``ConnectionResetError`` for reset/partial,
    ``TimeoutError`` after an injected hang); protocol-space faults as
    5xx :class:`~repro.k8s.apiserver.ApiResponse` objects.  Attribute
    access falls through to the wrapped server, so stores, registries,
    and metrics remain reachable.
    """

    def __init__(self, api: Any, injector: FaultInjector):
        self.api = api
        self.injector = injector

    def handle(self, request: Any) -> ApiResponse:
        decision = self.injector.decide()
        kind = decision.kind
        if kind == "delay":
            time.sleep(decision.value / 1000.0)
        elif kind == "error":
            return ApiResponse.from_error(
                self.injector.injected_error(int(decision.value))
            )
        elif kind in ("reset", "partial"):
            raise ConnectionResetError(f"injected fault: {kind}")
        elif kind == "hang":
            time.sleep(decision.value)
            raise TimeoutError(
                f"injected fault: upstream hung for {decision.value:.2f}s"
            )
        return self.api.handle(request)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.api, name)
