"""The KubeFence enforcement proxy (Sec. V-B).

Deployed between clients and the API server (mitmproxy in the paper's
testbed), the proxy intercepts every API request, validates write
payloads against the workload's validator, and either forwards the
request or answers with an HTTP 403 containing the offending fields.
Denials are logged with the field and reason for auditing and
forensics.

Complete mediation: in the paper the API server only accepts
certificate-authenticated connections from the proxy.  Here the proxy
*is* the only transport handed to clients in the protected
configuration, which yields the same property in-process; the HTTP
deployment (:mod:`repro.k8s.http` + :class:`HttpKubeFenceProxy`)
reproduces the real network topology.

Performance: validation runs on the compiled engine
(:mod:`repro.core.compiled`) and sits behind a per-proxy
:class:`~repro.core.shards.ShardedDecisionCache` -- a bounded LRU keyed
on a fingerprint of the write body, invalidated whenever the bound
validator (or its :attr:`policy_revision`) changes.  Controllers that
resubmit identical manifests (the reconcile-loop steady state) skip
validation entirely.

Observability: every request runs under a :mod:`repro.obs` trace
(spans ``proxy.validate``, ``cache.lookup``, ``engine.match`` here;
``admission.chain``/``store.commit`` downstream in the API server), and
:class:`ProxyStats` is a thin façade over a per-proxy
:class:`~repro.obs.MetricsRegistry` -- the HTTP proxy serves it at
``GET /metrics`` in Prometheus text format.  Denials are labeled by
``operator``/``kind``/``reason`` so Table III mitigation runs can be
read straight off a scrape.

Resilience: the upstream hop runs under the :mod:`repro.resilience`
guard -- retry with decorrelated-jitter backoff, a per-request
deadline, and a circuit breaker.  When the upstream is unavailable the
proxy degrades **fail-closed** (refuse with 503) or, optionally,
**fail-static** (serve recent cached reads only); a would-be denial is
never converted into an allow, because the validation gate runs
locally before any forwarding.  Every retry, breaker transition, and
degraded answer is a ``kubefence_*`` metric; the chaos harness
(:mod:`repro.faults`, ``repro chaos``) exercises all of it
deterministically.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable
from urllib.parse import urlsplit

from repro.core.enforcement import ValidationResult, Validator
from repro.core.shards import ShardedDecisionCache, fast_body_key
from repro.k8s.apiserver import APIServer, ApiRequest, ApiResponse, User
from repro.k8s.errors import ApiError
from repro.k8s.gvk import registry as default_registry
from repro.k8s.http import (
    HttpService,
    JsonRequestHandler,
    parse_rest_path,
    rest_verb,
)
from repro.obs import (
    PhaseClock,
    current_trace_id,
    new_registry,
    span,
    trace,
)
from repro.obs.analytics.events import EventBus, SecurityEvent
from repro.obs.analytics.slo import SloEngine
from repro.obs.refine.profiler import manifest_field_sample
from repro.yamlutil import deep_copy
from repro.resilience import (
    BREAKER_STATE_CODES,
    CircuitOpenError,
    DEFAULT_RESILIENCE,
    DeadlineExceeded,
    RETRYABLE_STATUS_CODES,
    ResilienceConfig,
    StaleReadCache,
    UpstreamGuard,
    UpstreamUnavailable,
    stale_read_key,
)

#: Verbs whose payload is validated.
_WRITE_VERBS = frozenset({"create", "update", "patch"})

#: Verbs whose 200 answer fail-static may serve again during an outage.
_STALE_READ_VERBS = frozenset({"get", "list"})

#: HTTP methods safe to re-execute after a transport error (see
#: :meth:`HttpUpstream.replay_safe`).
_IDEMPOTENT_METHODS = frozenset({"GET", "HEAD"})

#: What :class:`HttpUpstream` answers for an upstream reply it cannot
#: parse.  A sentinel: this 502 is the proxy's own verdict on a request
#: the upstream may well have applied, so the guard must not count it
#: as an upstream "not processed" 5xx and replay the request.
BAD_UPSTREAM_BODY = ApiError(
    502, "BadGateway", "upstream returned an unparseable body"
)

#: Ring-buffer size for per-request validation latency samples.
_MAX_LATENCY_SAMPLES = 8192

#: Default decision-cache capacity (entries, i.e. distinct bodies).
DEFAULT_DECISION_CACHE_SIZE = 1024


@dataclass(frozen=True)
class DenialRecord:
    """One blocked request, for auditing and forensic analysis."""

    username: str
    verb: str
    kind: str
    name: str
    violations: tuple[str, ...]


#: (substring of the first violation's reason, bounded metric label).
_DENIAL_REASONS: tuple[tuple[str, str], ...] = (
    ("not used by this workload", "kind-not-used"),
    ("missing kind", "missing-kind"),
    ("exceeds maximum depth", "depth-limit"),
    ("field not allowed", "field-not-allowed"),
    ("no allowed configuration matches", "list-entry-mismatch"),
    ("required by security policy", "security-lock"),
    ("expected an object", "shape-mismatch"),
)


def denial_reason(violations: Iterable[Any]) -> str:
    """Map free-text violations to a *bounded* reason label (the
    metrics cardinality guard requires a closed set)."""
    for violation in violations:
        text = str(getattr(violation, "reason", violation))
        for needle, label in _DENIAL_REASONS:
            if needle in text:
                return label
        return "value-not-allowed"
    return "other"


class ProxyStats:
    """Runtime counters (overhead analysis, Table IV).

    Since the observability layer landed this is a thin façade over a
    per-proxy :class:`~repro.obs.MetricsRegistry`: every counter the
    old dataclass carried is now a named metric (``kubefence_*``)
    scrapeable from ``/metrics``, while the attribute API
    (``stats.cache_hits`` etc.) is preserved for callers.  Latency is
    recorded twice: into a labeled Prometheus histogram
    (``kubefence_validation_latency_ns{outcome="hit"|"miss"}``) and,
    for misses, into a bounded sample ring for exact percentile math.

    Cache **hits** record their (cheap) lookup latency as their own
    sample instead of being silently dropped -- otherwise the Table IV
    mean-latency math over ``requests_validated`` would be skewed
    toward the miss cost.
    """

    def __init__(self, registry: Any | None = None):
        reg = registry if registry is not None else new_registry()
        self.registry = reg
        # Hot instruments write through lock-free per-thread cells
        # (:meth:`_Metric.local`), folded at scrape time.
        self._requests = reg.counter(
            "kubefence_requests_total", "API requests intercepted by the proxy."
        ).local()
        self._validated = reg.counter(
            "kubefence_requests_validated_total",
            "Write requests whose body was checked against the policy.",
        ).local()
        self._denied = reg.counter(
            "kubefence_requests_denied_total", "Requests blocked by the policy."
        )
        self._denials = reg.counter(
            "kubefence_denials_total",
            "Denials by workload operator, resource kind, and reason category.",
            labels=("operator", "kind", "reason"),
            max_series=256,
        )
        self._cache_hits = reg.counter(
            "kubefence_cache_hits_total", "Decision-cache hits (validation skipped)."
        ).local()
        self._cache_misses = reg.counter(
            "kubefence_cache_misses_total", "Decision-cache misses."
        ).local()
        self._conn_opened = reg.counter(
            "kubefence_connections_opened_total",
            "Upstream keep-alive connections opened (HTTP proxy).",
        )
        self._conn_reused = reg.counter(
            "kubefence_connections_reused_total",
            "Upstream keep-alive connection reuses (HTTP proxy).",
        )
        # -- resilience layer (docs/RESILIENCE.md) -------------------------
        self._retries = reg.counter(
            "kubefence_retries_total",
            "Upstream retries performed by the resilience layer.",
        )
        self._breaker_state = reg.gauge(
            "kubefence_breaker_state",
            "Upstream circuit-breaker state (0=closed, 1=open, 2=half-open).",
        )
        self._breaker_transitions = reg.counter(
            "kubefence_breaker_transitions_total",
            "Circuit-breaker transitions, by target state.",
            labels=("state",),
        )
        self._degraded = reg.counter(
            "kubefence_degraded_requests_total",
            "Requests answered in degraded mode while the upstream was "
            "unavailable, by outcome (refused = fail-closed 503, "
            "stale-read = fail-static cached GET).",
            labels=("mode",),
        )
        self._upstream_errors = reg.counter(
            "kubefence_upstream_errors_total",
            "Upstream failures observed by the forwarding path, by kind.",
            labels=("kind",),
            max_series=16,
        )
        self._latency = reg.histogram(
            "kubefence_validation_latency_ns",
            "Validation-gate latency per write request, by cache outcome.",
            labels=("outcome",),
        )
        # Pre-bound hot series: labels() resolution off the request path.
        self._latency_hit = self._latency.local(outcome="hit")
        self._latency_miss = self._latency.local(outcome="miss")
        self._http = reg.counter(
            "http_requests_total",
            "HTTP requests served, by method and status code.",
            labels=("method", "code"),
            max_series=128,
        )
        self._http_bound: dict[tuple[str, str], Any] = {}
        self._denial_bound: dict[tuple[str, str, str], Any] = {}
        # Per-request phase attribution (kubefence_phase_ns_total):
        # a bound-``inc`` per phase.
        self.phases = PhaseClock(reg)
        #: per-request validation latency samples (ns) of full
        #: validations (cache misses), a bounded ring.
        self.validation_ns_samples: list[int] = []
        self._sample_cursor = 0
        # The unconditional once-per-request counters are the write
        # handles' own ``inc``: no wrapper frame on the hot path.
        self.count_request = self._requests.inc
        self.count_validated = self._validated.inc

    # -- mutation (proxy internals only) -----------------------------------

    def count_denial(self, operator: str, kind: str, reason: str) -> None:
        self._denied.inc()
        # Precomputed {operator,kind,reason} handles: repeat denials
        # (the interesting, attack-shaped case) skip labels() parsing
        # and the registry lock entirely.
        key = (operator or "?", kind or "?", reason or "other")
        bound = self._denial_bound.get(key)
        if bound is None:
            bound = self._denials.local(
                operator=key[0], kind=key[1], reason=key[2]
            )
            self._denial_bound[key] = bound
        bound.inc()

    def count_cache(self, hit: bool) -> None:
        (self._cache_hits if hit else self._cache_misses).inc()

    def count_connection(self, reused: bool) -> None:
        (self._conn_reused if reused else self._conn_opened).inc()

    def count_retry(self) -> None:
        self._retries.inc()

    def count_degraded(self, mode: str) -> None:
        self._degraded.labels(mode=mode).inc()

    def count_upstream_error(self, kind: str) -> None:
        self._upstream_errors.labels(kind=kind).inc()

    def record_breaker_transition(self, new_state: str) -> None:
        self._breaker_state.set(BREAKER_STATE_CODES.get(new_state, -1))
        self._breaker_transitions.labels(state=new_state).inc()

    def count_http_request(self, method: str, code: Any) -> None:
        key = (str(method or "?"), str(getattr(code, "value", code)))
        bound = self._http_bound.get(key)
        if bound is None:
            bound = self._http.local(method=key[0], code=key[1])
            self._http_bound[key] = bound
        bound.inc()

    def record_validation_ns(self, elapsed_ns: int, cache_hit: bool = False) -> None:
        # Phase attribution rides the clock reads the gate already
        # takes: a cache hit's whole cost is the probe, a miss's is
        # the compiled validation (its probe share, when a cache is
        # bound, is stamped separately by ValidationGate.check).
        if cache_hit:
            self.phases.cache_probe(elapsed_ns)
            self._latency_hit.observe(elapsed_ns)
        else:
            self.phases.validation(elapsed_ns)
            self._latency_miss.observe(elapsed_ns)
            samples = self.validation_ns_samples
            if len(samples) < _MAX_LATENCY_SAMPLES:
                samples.append(elapsed_ns)
            else:
                samples[self._sample_cursor % _MAX_LATENCY_SAMPLES] = elapsed_ns
            self._sample_cursor += 1

    # -- read API (unchanged names) ----------------------------------------

    @property
    def requests_total(self) -> int:
        return int(self._requests.value)

    @property
    def requests_validated(self) -> int:
        return int(self._validated.value)

    @property
    def requests_denied(self) -> int:
        return int(self._denied.value)

    @property
    def cache_hits(self) -> int:
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        return int(self._cache_misses.value)

    @property
    def connections_opened(self) -> int:
        return int(self._conn_opened.value)

    @property
    def connections_reused(self) -> int:
        return int(self._conn_reused.value)

    @property
    def retries_total(self) -> int:
        return int(self._retries.value)

    @property
    def validation_seconds(self) -> float:
        """Total wall time spent in the validation gate (hits + misses)."""
        return (self._latency_hit.sum + self._latency_miss.sum) / 1e9

    @property
    def validation_ns_mean(self) -> float:
        """Mean gate latency over *all* validated requests -- hits
        contribute their lookup cost, so this is the honest Table IV
        mean rather than the miss-only figure."""
        hit, miss = self._latency_hit, self._latency_miss
        observed = hit.count + miss.count
        return (hit.sum + miss.sum) / observed if observed else 0.0

    @staticmethod
    def _percentile(samples: list[int], q: float) -> float:
        if not samples:
            return 0.0
        ordered = sorted(samples)
        index = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
        return float(ordered[index])

    def _percentile_ns(self, q: float) -> float:
        return self._percentile(self.validation_ns_samples, q)

    @property
    def validation_ns_p50(self) -> float:
        return self._percentile_ns(0.50)

    @property
    def validation_ns_p99(self) -> float:
        return self._percentile_ns(0.99)

    @property
    def cache_hit_rate(self) -> float:
        probed = self.cache_hits + self.cache_misses
        return self.cache_hits / probed if probed else 0.0

    # -- windows and aggregation -------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat ``{series: value}`` view; diff two snapshots with
        :func:`repro.obs.delta` to measure a window instead of
        absolute counters."""
        return self.registry.snapshot()

    def reset(self) -> None:
        """Zero every counter/histogram and drop the sample ring."""
        self.registry.reset()
        self.validation_ns_samples.clear()
        self._sample_cursor = 0

    def merge(self, other: "ProxyStats") -> None:
        """Fold *other*'s counters into this instance (aggregation
        across repetitions/proxies for the overhead tables)."""
        self.registry.merge_from(other.registry)
        room = _MAX_LATENCY_SAMPLES - len(self.validation_ns_samples)
        if room > 0:
            self.validation_ns_samples.extend(other.validation_ns_samples[:room])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProxyStats(requests_total={self.requests_total}, "
            f"requests_validated={self.requests_validated}, "
            f"requests_denied={self.requests_denied}, "
            f"cache_hits={self.cache_hits}, cache_misses={self.cache_misses})"
        )


def upstream_failure_kind(failure: Any) -> str:
    """Bounded ``kind`` label for an upstream failure observation --
    either a transport exception or a retryable 5xx result (the
    metrics cardinality guard requires a closed set)."""
    if not isinstance(failure, BaseException):
        return "5xx"  # a retryable-status response object/tuple
    if isinstance(failure, http.client.IncompleteRead):
        return "partial-response"
    if isinstance(failure, TimeoutError):
        return "timeout"
    if isinstance(failure, ConnectionResetError):
        return "connection-reset"
    if isinstance(failure, ConnectionError):
        return "connection"
    if isinstance(failure, http.client.HTTPException):
        return "protocol"
    if isinstance(failure, OSError):
        return "os-error"
    return "other"


class ValidationGate:
    """Validate-with-cache, shared by both proxy transports.

    Owns the decision cache and its revision-aware invalidation.
    """

    def __init__(
        self,
        validator: Validator,
        stats: ProxyStats,
        cache_size: int = DEFAULT_DECISION_CACHE_SIZE,
    ):
        self.stats = stats
        # Lock-free read fast path, per-shard write locks.
        self.cache: ShardedDecisionCache | None = (
            ShardedDecisionCache(cache_size) if cache_size else None
        )
        self.validator = validator

    def install(self, validator: Validator) -> None:
        """Swap in a new policy; all cached decisions are dropped."""
        self.validator = validator
        if self.cache is not None:
            self.cache.clear()

    def check(self, body: dict[str, Any]) -> ValidationResult:
        """Validate *body*, consulting the decision cache first.

        Every validated request records a latency sample: cache hits
        record their lookup cost (``outcome="hit"``), misses the full
        engine walk (``outcome="miss"``) -- so mean-latency math over
        ``requests_validated`` is not skewed toward the miss cost.
        """
        stats = self.stats
        stats.count_validated()
        # One binding per request: the policy that judges the body is
        # the policy whose revision tags the cached result.  Reading
        # either again after validate() would let an install() or an
        # in-place tighten landing mid-request file the old policy's
        # ALLOW under the new revision (fail-open); a stale tag only
        # wastes an entry.
        validator = self.validator
        revision = (id(validator), validator.policy_revision)
        cache = self.cache
        key = None
        if cache is not None:
            lookup_started = time.perf_counter_ns()
            with span("cache.lookup"):
                key = fast_body_key(body)
                cached = cache.get(key, revision) if key is not None else None
            if cached is not None:
                stats.count_cache(hit=True)
                stats.record_validation_ns(
                    time.perf_counter_ns() - lookup_started, cache_hit=True
                )
                return cached
            if key is not None:
                stats.count_cache(hit=False)
        started = time.perf_counter_ns()
        if cache is not None:
            # The probed-miss path already holds both clock reads; the
            # probe share costs one subtraction, not a new clock read.
            stats.phases.cache_probe(started - lookup_started)
        with span("engine.match"):
            result = validator.validate(body)
        stats.record_validation_ns(time.perf_counter_ns() - started)
        if key is not None and cache is not None:
            cache.put(key, result, revision)
        return result


def _upstream_reported_failure(response: ApiResponse) -> bool:
    """A retryable 5xx the *upstream* sent (see :data:`BAD_UPSTREAM_BODY`)."""
    return (response.code in RETRYABLE_STATUS_CODES
            and response.error is not BAD_UPSTREAM_BODY)


def _object_name(request: ApiRequest) -> str:
    """The object a request names: the body's ``metadata.name`` (what a
    write actually creates), else the name in the request itself."""
    body = request.body
    meta = body.get("metadata") if isinstance(body, dict) else None
    name = meta.get("name") if isinstance(meta, dict) else None
    return name if name and isinstance(name, str) else (request.name or "")


def _denial(request: ApiRequest, violations: Iterable[Any]) -> DenialRecord:
    return DenialRecord(
        username=request.user.username,
        verb=request.verb,
        kind=request.kind,
        name=_object_name(request),
        violations=tuple(str(v) for v in violations),
    )


class KubeFenceProxy:
    """The enforcement proxy: one decision path for every transport.

    :meth:`submit` is the only implementation of gate -> shadow ->
    deny | forward-under-guard -> stale-read/refuse -> stats, events
    and phase stamps.  In-process it implements the client Transport
    over an :class:`APIServer`; :class:`HttpKubeFenceProxy` puts the
    same object behind a socket with an :class:`HttpUpstream` as *api*.

    With a :class:`~repro.resilience.ResilienceConfig` the upstream
    hop runs under retry + circuit breaking + a per-request deadline;
    when the upstream is unavailable the proxy **fails closed**:
    validated writes are refused with 503 while denials keep being
    issued locally (the validation gate needs no upstream).  With
    ``degraded_mode="fail-static"`` successful reads are additionally
    kept in an identity-keyed :class:`StaleReadCache`, so they survive
    an outage for the same user that originally fetched them (writes
    still refuse; see docs/RESILIENCE.md).  The default
    (``resilience=None``) leaves the upstream call untouched -- zero
    added work on the fault-free benchmark path.
    """

    def __init__(
        self,
        api: APIServer,
        validator: Validator,
        cache_size: int = DEFAULT_DECISION_CACHE_SIZE,
        resilience: ResilienceConfig | None = None,
        event_bus: Any | None = None,
    ):
        #: the upstream: anything with ``handle(request) -> ApiResponse``.
        self.api = api
        # Failure *results* (a 5xx the upstream itself sent implies
        # non-processing) are retried for every request.  After a
        # transport error (reset, timeout, truncated read) it is
        # unknown whether the upstream applied the request, so the
        # upstream object says whether replaying is safe.  One without
        # ``replay_safe`` always is: the in-process chaos wrapper
        # raises *instead of* handling; a real wire (HttpUpstream) is
        # only for idempotent methods.
        self._replay_safe = getattr(api, "replay_safe", None)
        self.denials: list[DenialRecord] = []
        self.stats = ProxyStats()
        self.gate = ValidationGate(validator, self.stats, cache_size)
        self.resilience = resilience
        #: security-analytics stream (a null bus's ``enabled`` probe
        #: keeps event construction off the fast path).
        self.events = event_bus if event_bus is not None else EventBus()
        #: shadow-mode canary evaluator (a RefineController installs
        #: one via start_shadow); never affects served decisions.
        self.shadow: Any | None = None
        #: when True, published allow decisions carry their manifest
        #: field sample in detail["fields"]/["values"] (profiler food;
        #: off by default so the extraction cost stays off the hot path).
        self.observe_fields = False
        #: the /obs/refine controller, when a refinement loop is wired.
        self.refine: Any | None = None
        #: the /obs/scan CVE scanner, when one is wired.
        self.scanner: Any | None = None
        self.breaker = None
        self._guard: UpstreamGuard | None = None
        self._read_cache: StaleReadCache | None = None
        if resilience is not None:
            stats = self.stats
            self.breaker = resilience.make_breaker(
                on_transition=lambda _old, new: stats.record_breaker_transition(new)
            )
            self._guard = UpstreamGuard(
                resilience.retry,
                self.breaker,
                # Timeouts and resets are OSErrors; a truncated reply
                # (IncompleteRead) is an HTTPException.
                retry_on=(http.client.HTTPException, OSError),
                on_retry=lambda _attempt, _delay: stats.count_retry(),
                on_failure=lambda failure: stats.count_upstream_error(
                    upstream_failure_kind(failure)
                ),
            )
            if resilience.degraded_mode == "fail-static":
                self._read_cache = StaleReadCache(resilience.read_cache_size)

    @property
    def validator(self) -> Validator:
        return self.gate.validator

    def install_validator(self, validator: Validator) -> None:
        """Bind a new policy (e.g. after chart upgrade); invalidates
        the decision cache."""
        self.gate.install(validator)

    def submit(self, request: ApiRequest) -> ApiResponse:
        """Intercept, validate, and forward or deny -- all under one
        request trace (the API server joins it, so the audit event
        carries the same trace id)."""
        with trace("proxy.request", trace_id=request.trace_id):
            self.stats.count_request()
            bus = self.events
            started = time.perf_counter_ns() if bus.enabled else 0
            if request.verb in _WRITE_VERBS and isinstance(request.body, dict):
                with span("proxy.validate"):
                    result = self.gate.check(request.body)
                shadow = self.shadow
                if shadow is not None:
                    shadow.observe(
                        request.body, result.allowed,
                        user=request.user.username, verb=request.verb,
                    )
                if not result.allowed:
                    return self._deny(request, result, started)
            response = self._forward(request)
            if bus.enabled:
                degraded = response.degraded
                outcome = "degraded" if degraded else (
                    "allow" if response.ok else "error"
                )
                # Routine allows are head-sampled (REPRO_EVENT_SAMPLE);
                # anything security-relevant always publishes.
                if outcome != "allow" or bus.sampled():
                    self._publish_decision(
                        request, outcome, response.code, started,
                        {"mode": degraded[0]} if degraded else {},
                    )
            return response

    def _publish_decision(
        self,
        request: ApiRequest,
        outcome: str,
        code: int,
        started: int,
        detail: dict[str, Any],
    ) -> None:
        """One enforcement verdict onto the security-event stream
        (*started*: the request's ``perf_counter_ns`` at intercept)."""
        now = time.perf_counter_ns()
        if request.path is not None:
            detail["path"] = request.path
        if (
            self.observe_fields
            and outcome == "allow"
            and request.verb in _WRITE_VERBS
            and isinstance(request.body, dict)
        ):
            detail["fields"], detail["values"] = manifest_field_sample(request.body)
        self.events.publish(SecurityEvent(
            kind="decision",
            source="proxy",
            ts=time.time(),
            user=request.user.username,
            verb=request.verb,
            resource=request.kind,
            name=_object_name(request),
            namespace=request.namespace or "",
            outcome=outcome,
            code=code,
            trace_id=current_trace_id() or "",
            latency_ns=now - started,
            detail=detail,
        ))
        self.stats.phases.telemetry(time.perf_counter_ns() - now)

    def _forward(self, request: ApiRequest) -> ApiResponse:
        """The upstream hop, guarded when resilience is configured.

        A retryable upstream 5xx that survives the whole schedule is
        passed through (the upstream's own answer is information);
        breaker refusals and exhausted transports become a local 503
        -- never a silent allow.
        """
        guard = self._guard
        if guard is None:
            return self.api.handle(request)
        assert self.resilience is not None
        sent = time.perf_counter_ns()
        request.deadline = deadline = self.resilience.deadline()
        replay_safe = self._replay_safe
        try:
            response = guard.call(
                lambda: self.api.handle(request),
                deadline=deadline,
                is_failure=_upstream_reported_failure,
                retry_transport_errors=(
                    replay_safe is None or replay_safe(request)
                ),
            )
        except (CircuitOpenError, UpstreamUnavailable, DeadlineExceeded) as err:
            if isinstance(err, CircuitOpenError):
                self.stats.count_upstream_error("breaker-open")
            response = self._degrade(request, err)
        else:
            if (self._read_cache is not None and response.code == 200
                    and request.verb in _STALE_READ_VERBS
                    and response.body is not None):
                self._read_cache.put(
                    self._stale_key(request), deep_copy(response.body)
                )
        self.stats.phases.upstream(time.perf_counter_ns() - sent)
        return response

    def _stale_key(self, request: ApiRequest) -> str:
        """Stale-cache key scoped to the authenticated identity: the
        upstream authorizes reads per user, so a cached 200 is only
        valid for the identity it was originally served to.  The
        locator is the URL path when the request arrived on one."""
        return stale_read_key(
            request.user.username,
            ",".join(request.user.groups),
            request.path
            or f"{request.kind}/{request.namespace or ''}/{request.name or ''}",
        )

    def _degrade(self, request: ApiRequest, err: Exception) -> ApiResponse:
        """The upstream is unavailable.  ``fail-static`` may serve a
        same-identity stale read; everything else is refused with 503
        (fail closed, see docs/RESILIENCE.md) -- a would-be denial is
        never converted into an allow (denials already happened before
        forwarding).  The answer's ``degraded`` says which, so the
        event is honest and the transport can flag it."""
        if self._read_cache is not None and request.verb in _STALE_READ_VERBS:
            assert self.resilience is not None
            cached = self._read_cache.get(
                self._stale_key(request), self.resilience.read_cache_ttl
            )
            if cached is not None:
                age, payload = cached
                self.stats.count_degraded("stale-read")
                response = ApiResponse(code=200, body=deep_copy(payload))
                response.degraded = ("stale-read", age)
                return response
        self.stats.count_degraded("refused")
        response = ApiResponse.from_error(ApiError(
            503, "ServiceUnavailable",
            f"KubeFence: upstream API server unavailable; failing closed ({err})",
        ))
        response.degraded = ("refused", 0.0)
        return response

    def _deny(
        self, request: ApiRequest, result: ValidationResult, started: int
    ) -> ApiResponse:
        """Count, record and publish the denial; answer 403 naming the
        offending fields (paper Sec. V-B)."""
        reason = denial_reason(result.violations)
        self.stats.count_denial(
            operator=self.validator.operator, kind=request.kind, reason=reason
        )
        record = _denial(request, result.violations)
        self.denials.append(record)
        if self.events.enabled:
            self._publish_decision(
                request, "deny", 403, started,
                {"reason": reason, "violations": list(record.violations)},
            )
        return ApiResponse.from_error(ApiError.forbidden(
            f"KubeFence policy for workload {self.validator.operator!r} denied "
            f"{request.verb} of {request.kind}/{record.name}: {result.summary()}",
            violations=list(record.violations),
        ))


@dataclass
class WireRequest(ApiRequest):
    """An :class:`ApiRequest` as it arrived on the HTTP proxy's socket:
    what the decision path reads, plus what :class:`HttpUpstream`
    re-sends verbatim."""

    method: str = "GET"
    path: str = "/"
    raw: bytes | None = None
    trace_id: str | None = None


class HttpUpstream:
    """The upstream API server behind a socket: ``handle(request)``
    like :class:`APIServer`, over one pooled keep-alive
    ``http.client.HTTPConnection`` per worker thread (both ends speak
    HTTP/1.1), so the hop does not pay a TCP handshake per request;
    ``ProxyStats.connections_opened/reused`` surface the pool."""

    def __init__(self, base_url: str, request_timeout: float):
        split = urlsplit(base_url)
        self._address = (split.hostname or "127.0.0.1", split.port or 80)
        self.request_timeout = request_timeout
        self._pool = threading.local()
        #: the owning proxy's stats (bound once the proxy has built them)
        self.stats: ProxyStats | None = None

    @staticmethod
    def replay_safe(request: WireRequest) -> bool:
        """An IncompleteRead after a POST may mean the upstream already
        applied the create; replaying it would apply the write twice."""
        return request.method in _IDEMPOTENT_METHODS

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        conn = getattr(self._pool, "conn", None)
        if conn is None:
            conn = self._pool.conn = http.client.HTTPConnection(
                *self._address, timeout=timeout
            )
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        self.stats.count_connection(reused=conn.sock is not None)
        return conn

    def handle(self, request: WireRequest) -> ApiResponse:
        """One upstream round trip; the socket timeout is clamped to
        what is left of the request's deadline."""
        timeout = self.request_timeout
        if request.deadline is not None:
            timeout = max(0.05, request.deadline.clamp(timeout))
        conn = self._connection(timeout)
        user = request.user
        headers = {
            "Content-Type": "application/json",
            # Re-assert the caller identity the upstream trusts.
            "X-Remote-User": user.username,
            "X-Remote-Groups": ",".join(user.groups),
            "X-Trace-Id": current_trace_id() or "",
        }
        try:
            with span("proxy.forward"):
                conn.request(request.method, request.path,
                             body=request.raw, headers=headers)
                reply = conn.getresponse()
                data = reply.read()
        except BaseException:
            # Stale pooled socket, reset, timeout, truncated read: the
            # connection state is unknown -- drop it.
            conn.close()
            self._pool.conn = None
            raise
        try:
            return ApiResponse(reply.status, json.loads(data or b"{}"))
        except ValueError:
            self.stats.count_upstream_error("bad-payload")
            return ApiResponse.from_error(BAD_UPSTREAM_BODY)


class _ProxyHandler(JsonRequestHandler):
    """The HTTP transport: read the request, build the request object,
    call :meth:`KubeFenceProxy.submit`, render what it returns."""

    def handle_api(self) -> None:
        read = self.read_json()
        if read is None:
            return
        raw, body = read
        mark = time.perf_counter_ns()
        try:
            kind, namespace, name = parse_rest_path(self.path, default_registry)
        except (ValueError, KeyError):
            # Unroutable: forwarded as-is, the upstream answers 404.
            kind, namespace, name = "", None, None
        if body is not None and isinstance(body.get("kind"), str):
            kind = body["kind"]  # the kind the validator judges
        groups = self.headers.get("X-Remote-Groups", "")
        request = WireRequest(
            verb=rest_verb(self.command, name),
            kind=kind,
            user=User(self.headers.get("X-Remote-User", ""),
                      tuple(g for g in groups.split(",") if g)),
            namespace=namespace or "default",
            name=name,
            body=body,
            source_ip=self.client_address[0],
            method=self.command,
            path=self.path,
            raw=raw or None,
            trace_id=self.headers.get("X-Trace-Id") or None,
        )
        # The proxy's authn share: routing the path and extracting
        # the caller identity it re-asserts upstream.
        self.phases.authn(time.perf_counter_ns() - mark)
        response = self.service.submit(request)
        degraded = response.degraded
        self.reply(
            response.code,
            response.body if response.body is not None else {},
            (("X-KubeFence-Degraded", f"stale-read; age={degraded[1]:.1f}s"),)
            if degraded and degraded[0] == "stale-read" else (),
        )


class HttpKubeFenceProxy(KubeFenceProxy, HttpService):
    """The proxy as a real HTTP reverse proxy (stdlib only).

    Mirrors the paper's mitmproxy deployment: clients speak HTTP to the
    proxy, which validates write bodies and forwards allowed requests
    to the upstream API server over HTTP.  It *is* a
    :class:`KubeFenceProxy` -- same ``submit``, same stats, events and
    degradation -- whose upstream is an :class:`HttpUpstream` and whose
    default posture is :data:`DEFAULT_RESILIENCE`.

    Observability surfaces: ``GET /metrics`` (Prometheus text),
    ``/healthz``/``/readyz``, and ``/obs/*``; each proxied request
    runs under a trace whose id is forwarded upstream in the
    ``X-Trace-Id`` header, so the API server's audit log correlates.
    """

    def __init__(self, upstream_base_url: str, validator: Validator,
                 host: str = "127.0.0.1", port: int = 0,
                 cache_size: int = DEFAULT_DECISION_CACHE_SIZE,
                 resilience: ResilienceConfig | None = None,
                 event_bus: Any | None = None,
                 slo: Any | None = None):
        self.upstream = upstream_base_url.rstrip("/")
        if resilience is None:
            resilience = DEFAULT_RESILIENCE
        upstream = HttpUpstream(self.upstream, resilience.request_timeout)
        super().__init__(upstream, validator, cache_size, resilience, event_bus)
        upstream.stats = self.stats
        #: SLO engine (served at /obs/slo): by default one per proxy,
        #: subscribed to the bus, exporting kubefence_slo_* gauges on
        #: the proxy registry.  Pass ``slo=`` to share an engine.
        self.slo = slo
        if self.slo is None and self.events.enabled:
            self.slo = SloEngine(registry=self.stats.registry)
            self.events.subscribe(self.slo.observe)
        self._bind(
            (host, port), _ProxyHandler, self.stats.registry, "kubefence-proxy",
            {"policy-bound": lambda: self.validator is not None}, self.events,
            phases=self.stats.phases,
            count_http_request=self.stats.count_http_request,
        )


class MultiPolicyProxy:
    """One proxy mediating several workloads (multi-tenant clusters).

    Each client identity is bound to its workload's validator; requests
    from identities with no bound policy are rejected outright
    (default-deny, per the least-privilege principle).  This models the
    paper's deployment at cluster scale: one mitmproxy instance, one
    policy per operator.
    """

    def __init__(self, api: APIServer, validators: dict[str, Validator],
                 read_through: bool = True,
                 resilience: ResilienceConfig | None = None,
                 event_bus: Any | None = None):
        self.api = api
        self.resilience = resilience
        #: one shared stream across all per-identity proxies, so the
        #: forensics layer sees the whole multi-tenant cluster.
        self.events = event_bus if event_bus is not None else EventBus()
        self._proxies = {
            username: KubeFenceProxy(
                api, validator, resilience=resilience, event_bus=self.events
            )
            for username, validator in validators.items()
        }
        self.read_through = read_through
        self.unbound_denials: list[DenialRecord] = []

    def bind(self, username: str, validator: Validator) -> None:
        """Attach a (new) workload policy to an identity."""
        existing = self._proxies.get(username)
        if existing is not None:
            existing.install_validator(validator)
        else:
            self._proxies[username] = KubeFenceProxy(
                self.api, validator, resilience=self.resilience,
                event_bus=self.events,
            )

    @property
    def denials(self) -> list[DenialRecord]:
        out = list(self.unbound_denials)
        for proxy in self._proxies.values():
            out.extend(proxy.denials)
        return out

    def submit(self, request: ApiRequest) -> ApiResponse:
        proxy = self._proxies.get(request.user.username)
        if proxy is not None:
            return proxy.submit(request)
        if self.read_through and request.verb in ("get", "list", "watch"):
            return self.api.handle(request)
        self.unbound_denials.append(
            _denial(request, ("no policy bound to this identity",))
        )
        return ApiResponse.from_error(
            ApiError.forbidden(
                f"KubeFence: no workload policy bound to identity "
                f"{request.user.username!r} (default deny)"
            )
        )
