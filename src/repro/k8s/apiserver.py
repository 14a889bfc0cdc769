"""The miniature Kubernetes API server.

Implements the request pipeline of a real API server in the order that
matters for this paper's experiments:

1. **Routing** -- resolve the (kind, verb) pair against the resource
   registry; unknown kinds and unsupported verbs are rejected.
2. **Authorization** -- a pluggable authorizer (RBAC in the
   experiments) decides whether the authenticated user may perform the
   verb on the resource.
3. **Structural validation** -- the manifest is checked against the
   schema catalog (unknown fields and type mismatches are rejected,
   mirroring server-side strict validation).
4. **Admission** -- a chain of admission plugins may mutate or reject
   the object.  The CVE exploit engine registers here as an observer:
   if a malicious manifest reaches admission (i.e. nothing upstream
   filtered it), the corresponding vulnerability "fires".
5. **Persistence** -- the object lands in the versioned store.
6. **Audit** -- every request, allowed or denied, is recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.k8s.audit import AuditEvent, AuditLog
from repro.k8s.errors import ApiError
from repro.k8s.gvk import ResourceRegistry, ResourceType, registry as default_registry
from repro.k8s.objects import K8sObject
from repro.k8s.schema import SCALAR_TYPES, FieldSpec, SchemaCatalog, catalog as default_catalog
from repro.k8s.store import ObjectStore
from repro.obs import PhaseClock, current_trace_id, new_registry, span
from repro.obs.analytics.events import EventBus, SecurityEvent


@dataclass(frozen=True)
class User:
    """An authenticated API client identity."""

    username: str
    groups: tuple[str, ...] = ("system:authenticated",)

    @classmethod
    def admin(cls) -> "User":
        return cls("kubernetes-admin", ("system:masters", "system:authenticated"))


#: Verbs that carry a request body.
_WRITE_VERBS = ("create", "update", "patch")


@dataclass
class ApiRequest:
    """One API request as seen by the server (and by KubeFence)."""

    verb: str
    kind: str
    user: User
    namespace: str | None = "default"
    name: str | None = None
    body: dict[str, Any] | None = None
    source_ip: str = "127.0.0.1"
    # Transport context, not constructor parameters: an adapter that
    # received the request off a wire sets these (the HTTP proxy's
    # ``WireRequest``); in-process callers leave the class defaults.
    #: the URL path it arrived on (stale-read locator, event detail)
    path: str | None = field(default=None, init=False, repr=False, compare=False)
    #: the caller's ``X-Trace-Id`` for the enforcement trace to join
    trace_id: str | None = field(default=None, init=False, repr=False, compare=False)
    #: upstream budget (:class:`repro.resilience.Deadline`) stamped by
    #: the proxy's guarded forward; socket upstreams clamp to it
    deadline: Any = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_manifest(
        cls, manifest: dict[str, Any], user: User, verb: str = "create"
    ) -> "ApiRequest":
        obj = K8sObject(manifest)
        return cls(
            verb=verb,
            kind=obj.kind,
            user=user,
            namespace=obj.namespace,
            name=obj.name or None,
            body=manifest,
        )

    def url_path(self, reg: ResourceRegistry = default_registry) -> str:
        rt = reg.by_kind(self.kind)
        name = self.name if self.verb in ("get", "update", "patch", "delete") else None
        return rt.url_path(self.namespace, name)


@dataclass
class ApiResponse:
    """The server's answer: a status code plus a body (object, list,
    or Status on failure)."""

    code: int
    body: dict[str, Any] | list[dict[str, Any]] | None = None
    error: ApiError | None = None
    #: ``(mode, age_seconds)`` when the enforcement proxy answered in
    #: degraded mode (``"refused"`` / ``"stale-read"``) instead of the
    #: upstream; transports render it (``X-KubeFence-Degraded``).
    degraded: tuple[str, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return 200 <= self.code < 300

    @classmethod
    def from_error(cls, err: ApiError) -> "ApiResponse":
        return cls(code=err.code, body=err.to_status(), error=err)


class Authorizer(Protocol):
    """Authorization plugin interface (RBAC implements this)."""

    def authorize(self, request: ApiRequest, resource: ResourceType) -> tuple[bool, str]:
        """Return (allowed, reason)."""
        ...


class AllowAll:
    """Default authorizer: everything is permitted."""

    def authorize(self, request: ApiRequest, resource: ResourceType) -> tuple[bool, str]:
        return True, "no authorization configured"


#: Admission plugins get the request and the parsed object; they raise
#: :class:`ApiError` to deny, and may mutate the object in place.
AdmissionPlugin = Callable[[ApiRequest, K8sObject], None]


class APIServer:
    """The control-plane front end."""

    def __init__(
        self,
        store: ObjectStore | None = None,
        reg: ResourceRegistry | None = None,
        schemas: SchemaCatalog | None = None,
        authorizer: Authorizer | None = None,
        version: str = "1.28.6",
        validate_schema: bool = True,
        metrics: Any | None = None,
        event_bus: Any | None = None,
    ) -> None:
        # Explicit None checks: ObjectStore and ResourceRegistry define
        # __len__, so an empty instance is falsy and `or` would drop it.
        self.store = store if store is not None else ObjectStore()
        self.registry = reg if reg is not None else default_registry
        self.schemas = schemas or default_catalog
        self.authorizer: Authorizer = authorizer or AllowAll()
        self.audit_log = AuditLog()
        self.admission_plugins: list[AdmissionPlugin] = []
        self.version = version
        self.validate_schema = validate_schema
        #: observability: per-server metrics registry (scraped by
        #: HttpApiServer's /metrics).
        self.metrics = metrics if metrics is not None else new_registry()
        #: security-analytics: every audited request is also published
        #: as a ``kind="audit"`` SecurityEvent.
        self.event_bus = event_bus if event_bus is not None else EventBus()
        # Durability + watch observability land on this server's
        # registry (kubefence_wal_appends_total, kubefence_recovery_*,
        # kubefence_watcher_errors_total) so /metrics exposes them.
        self.store.bind_metrics(self.metrics)
        self._announce_recovery()
        self._m_requests = self.metrics.counter(
            "kubefence_apiserver_requests_total",
            "API-server requests, by verb and response code.",
            labels=("verb", "code"),
            max_series=256,
        )
        # Hot-path write handles: lock-free per-thread cells, folded
        # at scrape time (see _Metric.local).
        self._m_latency = self.metrics.histogram(
            "kubefence_apiserver_latency_ns",
            "Full request-pipeline latency (routing through audit).",
        ).local()
        self._m_audit = self.metrics.counter(
            "kubefence_audit_events_total", "Audit events recorded."
        ).local()
        #: (verb, code) -> bound counter, so the hot path skips
        #: labels() resolution on every request.
        self._m_requests_bound: dict[tuple[str, str], Any] = {}
        self._m_http = self.metrics.counter(
            "http_requests_total",
            "HTTP requests served, by method and status code.",
            labels=("method", "code"),
            max_series=128,
        )
        self._m_http_bound: dict[tuple[str, str], Any] = {}
        # Per-request phase attribution (kubefence_phase_ns_total).
        self.phases = PhaseClock(self.metrics)

    def _announce_recovery(self) -> None:
        """Publish one ``kind="recovery"`` SecurityEvent when fronting a
        store that was rebuilt from snapshot+WAL (exactly once per
        recovery, however many servers share the store)."""
        recovery = getattr(self.store, "recovery", None)
        if recovery is None or recovery.announced or not self.event_bus.enabled:
            return
        recovery.announced = True
        self.event_bus.publish(
            SecurityEvent(
                kind="recovery",
                source="apiserver",
                ts=time.time(),
                verb="recover",
                resource="objectstore",
                name=recovery.path,
                outcome="allow",
                code=200,
                latency_ns=int(recovery.duration_s * 1e9),
                detail={
                    "revision": recovery.revision,
                    "snapshot_objects": recovery.snapshot_objects,
                    "replayed": recovery.replayed,
                    "truncated_bytes": recovery.truncated_bytes,
                    "torn_reason": recovery.torn_reason or "",
                },
            )
        )

    def count_http_request(self, method: str, code: Any) -> None:
        """Access-log replacement: ``http_requests_total{method,code}``
        (called from the HTTP front end's ``log_request``)."""
        key = (str(method or "?"), str(getattr(code, "value", code)))
        bound = self._m_http_bound.get(key)
        if bound is None:
            bound = self._m_http.local(method=key[0], code=key[1])
            self._m_http_bound[key] = bound
        bound.inc()

    # -- plugin management ---------------------------------------------------

    def register_admission_plugin(self, plugin: AdmissionPlugin) -> None:
        self.admission_plugins.append(plugin)

    # -- request handling ------------------------------------------------

    def handle(self, request: ApiRequest) -> ApiResponse:
        """Run the full request pipeline and audit the outcome.

        Phase attribution: routing+authorization
        is the server's **authn** share, dispatch (admission chain and
        store commit) its **upstream** share, and the request counter /
        latency histogram / audit write its **telemetry** share.  The
        **wall** denominator is stamped by the HTTP frontend
        (:mod:`repro.k8s.http`), whose handler also covers the
        serialization share -- body parse and reply encode happen
        outside this method.
        """
        started = time.perf_counter_ns()
        authed = started
        try:
            resource = self._route(request)
            self._authorize(request, resource)
            authed = time.perf_counter_ns()
            response = self._dispatch(request, resource)
        except ApiError as err:
            if authed == started:
                # Failed before/inside authorization: the whole pipeline
                # share so far is authn.
                authed = time.perf_counter_ns()
            response = ApiResponse.from_error(err)
        elapsed_ns = time.perf_counter_ns() - started
        key = (request.verb or "?", str(response.code))
        bound = self._m_requests_bound.get(key)
        if bound is None:
            bound = self._m_requests.local(verb=key[0], code=key[1])
            self._m_requests_bound[key] = bound
        bound.inc()
        self._m_latency.observe(elapsed_ns)
        self._audit(request, response, latency_ns=elapsed_ns)
        done = started + elapsed_ns
        final = time.perf_counter_ns()
        phases = self.phases
        phases.authn(authed - started)
        phases.upstream(done - authed)
        phases.telemetry(final - done)
        # The HTTP frontend brackets this call together with the
        # trace open/close; exporting the interior span lets it
        # attribute the tracer bookkeeping without double-counting.
        response.handle_ns = final - started
        return response

    def _route(self, request: ApiRequest) -> ResourceType:
        if request.kind not in self.registry:
            raise ApiError.not_found(request.kind or "<missing kind>", request.name or "")
        resource = self.registry.by_kind(request.kind)
        if request.verb not in resource.verbs:
            raise ApiError.method_not_allowed(
                f"verb {request.verb!r} not supported on {resource.plural}"
            )
        return resource

    def _authorize(self, request: ApiRequest, resource: ResourceType) -> None:
        allowed, reason = self.authorizer.authorize(request, resource)
        if not allowed:
            raise ApiError.forbidden(
                f'User "{request.user.username}" cannot {request.verb} resource '
                f'"{resource.plural}" in API group "{resource.gvk.group}": {reason}'
            )

    def _dispatch(self, request: ApiRequest, resource: ResourceType) -> ApiResponse:
        verb = request.verb
        if verb in _WRITE_VERBS:
            return self._handle_write(request, resource)
        if verb == "get":
            obj = self.store.get(request.kind, request.namespace or "default", request.name or "")
            return ApiResponse(200, obj.data)
        if verb == "list":
            namespace = request.namespace if resource.namespaced else None
            objs = self.store.list(request.kind, namespace)
            return ApiResponse(200, [o.data for o in objs])
        if verb == "delete":
            obj = self.store.delete(
                request.kind, request.namespace or "default", request.name or ""
            )
            return ApiResponse(200, obj.data)
        if verb == "watch":
            # Watch is exposed for API-surface completeness; the
            # in-process event stream lives on the store itself.
            return ApiResponse(200, [])
        raise ApiError.method_not_allowed(f"unsupported verb {verb!r}")

    def _handle_write(self, request: ApiRequest, resource: ResourceType) -> ApiResponse:
        if not isinstance(request.body, dict):
            raise ApiError.bad_request("request body must be a JSON/YAML object")
        obj = K8sObject(request.body).copy()
        if obj.kind != request.kind:
            raise ApiError.bad_request(
                f"body kind {obj.kind!r} does not match request kind {request.kind!r}"
            )
        if not obj.name:
            raise ApiError.invalid("metadata.name is required")
        if resource.namespaced:
            obj.metadata.setdefault("namespace", request.namespace or "default")
        if self.validate_schema and obj.kind in self.schemas:
            self._validate_structure(obj)
        with span("admission.chain"):
            for plugin in self.admission_plugins:
                plugin(request, obj)
        with span("store.commit"):
            if request.verb == "create":
                stored = self.store.create(obj)
                return ApiResponse(201, stored.data)
            if request.verb == "patch":
                current = self.store.get(obj.kind, obj.namespace, obj.name)
                from repro.yamlutil import deep_merge

                merged = K8sObject(deep_merge(current.data, obj.data, delete_on_none=True))
                stored = self.store.update(merged)
                return ApiResponse(200, stored.data)
            stored = self.store.update(obj)
            return ApiResponse(200, stored.data)

    # -- structural (schema) validation -----------------------------------

    def _validate_structure(self, obj: K8sObject) -> None:
        schema = self.schemas.schema(obj.kind)
        errors: list[str] = []
        for key, value in obj.data.items():
            if key in ("apiVersion", "kind", "status"):
                continue
            child = schema.children.get(key)
            if child is None:
                errors.append(f"unknown field {key!r}")
                continue
            self._check_field(child, value, key, errors)
        if errors:
            raise ApiError.invalid(
                f"{obj.kind} {obj.name!r} is invalid: " + "; ".join(errors[:10]),
                fieldErrors=errors,
            )

    def _check_field(self, spec: FieldSpec, value: Any, path: str, errors: list[str]) -> None:
        if value is None:
            return
        if spec.ftype == "object":
            if not isinstance(value, dict):
                errors.append(f"{path}: expected object, got {type(value).__name__}")
                return
            for key, child_value in value.items():
                child = spec.children.get(key)
                if child is None:
                    errors.append(f"{path}.{key}: unknown field")
                    continue
                self._check_field(child, child_value, f"{path}.{key}", errors)
        elif spec.ftype == "array":
            if not isinstance(value, list):
                errors.append(f"{path}: expected array, got {type(value).__name__}")
                return
            assert spec.items is not None
            for idx, item in enumerate(value):
                self._check_field(spec.items, item, f"{path}[{idx}]", errors)
        elif spec.ftype == "" or spec.name == "":
            # Anonymous array item schema: object items have children.
            pass
        else:
            self._check_scalar(spec, value, path, errors)

    def _check_scalar(self, spec: FieldSpec, value: Any, path: str, errors: list[str]) -> None:
        ftype = spec.ftype
        if ftype == "enum":
            if value not in spec.enum:
                errors.append(f"{path}: {value!r} not one of {list(spec.enum)}")
        elif ftype == "string":
            if not isinstance(value, str):
                errors.append(f"{path}: expected string, got {type(value).__name__}")
        elif ftype == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                errors.append(f"{path}: expected integer, got {type(value).__name__}")
        elif ftype == "bool":
            if not isinstance(value, bool):
                errors.append(f"{path}: expected boolean, got {type(value).__name__}")
        elif ftype == "port":
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                errors.append(f"{path}: expected port, got {type(value).__name__}")
            elif isinstance(value, int) and not 0 <= value <= 65535:
                errors.append(f"{path}: port {value} out of range")
        elif ftype == "ip":
            if not isinstance(value, str):
                errors.append(f"{path}: expected IP string, got {type(value).__name__}")
        elif ftype == "quantity":
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                errors.append(f"{path}: expected quantity, got {type(value).__name__}")
        elif ftype == "map":
            if not isinstance(value, dict):
                errors.append(f"{path}: expected map, got {type(value).__name__}")
        elif ftype == "any":
            pass
        else:  # pragma: no cover - catalog bug guard
            errors.append(f"{path}: unhandled schema type {ftype!r}")

    # -- audit -------------------------------------------------------------

    def _audit(
        self,
        request: ApiRequest,
        response: ApiResponse,
        latency_ns: int | None = None,
    ) -> None:
        resource_plural = ""
        api_group = ""
        if request.kind in self.registry:
            rt = self.registry.by_kind(request.kind)
            resource_plural = rt.plural
            api_group = rt.gvk.group
        self._m_audit.inc()
        trace_id = current_trace_id()
        object_name = request.name or (
            K8sObject(request.body).name if request.body else None
        )
        self.audit_log.record(
            AuditEvent(
                request_uri=(
                    request.url_path(self.registry) if request.kind in self.registry else "/"
                ),
                verb=request.verb,
                username=request.user.username,
                groups=request.user.groups,
                resource=resource_plural,
                api_group=api_group,
                namespace=request.namespace,
                name=object_name,
                response_code=response.code,
                request_object=request.body if request.verb in _WRITE_VERBS else None,
                source_ip=request.source_ip,
                trace_id=trace_id,
                latency_ns=latency_ns,
            )
        )
        bus = self.event_bus
        # Successful audits are head-sampled (REPRO_EVENT_SAMPLE); the
        # durable AuditLog above always records, and failed requests
        # always reach the stream.
        if bus.enabled and (not response.ok or bus.sampled()):
            bus.publish(
                SecurityEvent(
                    kind="audit",
                    source="apiserver",
                    ts=time.time(),
                    user=request.user.username,
                    verb=request.verb,
                    resource=resource_plural or request.kind,
                    name=object_name or "",
                    namespace=request.namespace or "",
                    outcome="allow" if response.ok else "error",
                    code=response.code,
                    trace_id=trace_id or "",
                    latency_ns=latency_ns or 0,
                )
            )


class Cluster:
    """A convenience bundle: store + API server.  This is what tests
    and examples instantiate."""

    def __init__(
        self,
        version: str = "1.28.6",
        authorizer: Authorizer | None = None,
        validate_schema: bool = True,
        event_bus: Any | None = None,
        data_dir: Any | None = None,
        fsync: str | None = None,
    ) -> None:
        # ``data_dir`` makes the cluster durable: the store recovers
        # from (and write-ahead-logs into) that directory.
        if data_dir is not None:
            self.store = ObjectStore.recover(data_dir, fsync=fsync)
        else:
            self.store = ObjectStore()
        self.api = APIServer(
            store=self.store,
            authorizer=authorizer,
            version=version,
            validate_schema=validate_schema,
            event_bus=event_bus,
        )

    def apply(
        self, manifest: dict[str, Any], user: User | None = None, verb: str | None = None
    ) -> ApiResponse:
        """kubectl-apply semantics: create, or update when it exists."""
        user = user or User.admin()
        obj = K8sObject(manifest)
        if verb is None:
            verb = (
                "update"
                if self.store.exists(obj.kind, obj.namespace, obj.name)
                else "create"
            )
        return self.api.handle(ApiRequest.from_manifest(manifest, user, verb))
