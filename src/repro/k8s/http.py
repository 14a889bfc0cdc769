"""Real-HTTP transport for the mini API server (stdlib only).

The paper deploys mitmproxy between real HTTP clients and the K8s API
server.  For the overhead experiment we support the same topology: the
API server (and the KubeFence proxy) can be exposed over genuine TCP
sockets so round-trip-time measurements include real network and
serialization costs.

The wire protocol mirrors Kubernetes REST conventions:

- ``POST   /api/v1/namespaces/{ns}/pods``          -> create
- ``GET    /apis/apps/v1/namespaces/{ns}/deployments[/name]`` -> list/get
- ``PUT    .../{name}``                            -> update
- ``DELETE .../{name}``                            -> delete

Bodies are JSON; failures return Kubernetes ``Status`` objects.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Callable
from urllib import request as urllib_request
from urllib.error import HTTPError

from repro.k8s.apiserver import APIServer, ApiRequest, ApiResponse, User
from repro.k8s.errors import ApiError
from repro.k8s.gvk import ResourceRegistry, registry as default_registry
from repro.k8s.wal import crashpoint
from repro.obs import CardinalityError, PROFILER, TimeSeriesRing, obs_endpoint, trace

#: Worker threads in the bounded frontend pool.  A worker serves one
#: TCP connection at a time (HTTP/1.1 keep-alive loops inside
#: finish_request), so the pool bounds *concurrent connections*, not
#: in-flight requests; size it above the expected client fan-in.
HTTP_WORKERS_ENV = "REPRO_HTTP_WORKERS"
DEFAULT_HTTP_WORKERS = 32

#: Accepted connections parked while every worker is busy.  Beyond
#: this, new connections get an immediate 503 instead of silently
#: growing an unbounded queue (accept-queue backpressure).
HTTP_QUEUE_ENV = "REPRO_HTTP_QUEUE"
DEFAULT_HTTP_QUEUE = 64

#: Explicit listen(2) backlog for every frontend (kernel-side accept
#: queue, distinct from the worker pool's).
LISTEN_BACKLOG = 128


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        value = int(raw) if raw else default
    except ValueError:
        return default
    return value if value > 0 else default


def parse_rest_path(path: str, reg: ResourceRegistry) -> tuple[str, str | None, str | None]:
    """Parse a Kubernetes REST path into (kind, namespace, name).

    Raises :class:`ValueError` for unroutable paths.
    """
    parts = [p for p in path.split("/") if p]
    # /api/v1/... or /apis/{group}/{version}/...
    if not parts or parts[0] not in ("api", "apis"):
        raise ValueError(f"unroutable path: {path!r}")
    idx = 2 if parts[0] == "api" else 3
    rest = parts[idx:]
    namespace: str | None = None
    if len(rest) >= 2 and rest[0] == "namespaces":
        namespace = rest[1]
        rest = rest[2:]
    if not rest:
        raise ValueError(f"no resource in path: {path!r}")
    plural = rest[0]
    name = rest[1] if len(rest) > 1 else None
    kind = reg.by_plural(plural).kind
    return kind, namespace, name


_METHOD_VERBS = {"POST": "create", "PUT": "update", "PATCH": "patch", "DELETE": "delete"}


def rest_verb(method: str, name: str | None) -> str:
    """The API verb an HTTP *method* means on a path naming *name*."""
    if method == "GET":
        return "get" if name else "list"
    return _METHOD_VERBS[method]


class _QuietErrorsMixin:
    """Swallow connection-level failures instead of spraying
    tracebacks.

    Clients that time out and hang up mid-reply (the KubeFence proxy
    under a tight deadline, chaos clients, load balancers) produce
    ``BrokenPipeError``/``ConnectionResetError`` in the worker thread;
    injected faults (:mod:`repro.faults`) abort connections on
    purpose.  Those are routine under load and are swallowed here --
    genuine handler bugs still get the default traceback.
    """

    def handle_error(self, request: Any, client_address: Any) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError, BrokenPipeError)):
            return
        if isinstance(exc, OSError) and exc.errno in (9, 32, 104):  # EBADF/EPIPE/ECONNRESET
            return
        super().handle_error(request, client_address)  # type: ignore[misc]


#: Raw saturation reply, prebuilt: sent on the accept path without a
#: handler (there is no worker to run one).  ``Connection: close`` so
#: keep-alive clients do not retry on the dead socket.
_SATURATED_BODY = (
    b'{"kind":"Status","apiVersion":"v1","status":"Failure",'
    b'"message":"server saturated: worker pool and accept queue full",'
    b'"reason":"ServerSaturated","code":503}'
)
_SATURATED_RESPONSE = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_SATURATED_BODY)).encode() + b"\r\n"
    b"Connection: close\r\n"
    b"\r\n" + _SATURATED_BODY
)


class WorkerPoolHTTPServer(_QuietErrorsMixin, HTTPServer):
    """Bounded worker-pool frontend.

    ``ThreadingHTTPServer`` spawns one thread per connection with no
    ceiling: under saturation the thread count, memory, and scheduler
    load grow with offered load and latency collapses.  This frontend
    accepts on one thread and hands sockets to a **fixed pool**:

    - ``workers`` threads (``REPRO_HTTP_WORKERS``, default 32) each
      serve one connection to completion, keep-alive included;
    - a bounded hand-off queue (``REPRO_HTTP_QUEUE``, default 64)
      absorbs bursts;
    - when the queue is full the connection is answered immediately
      with a prebuilt ``503 ServerSaturated`` and closed -- explicit
      backpressure instead of silent queue growth
      (:attr:`saturation_rejects` counts these);
    - every served socket sets ``TCP_NODELAY`` before its worker reads
      the first request.
    """

    #: Explicit lifecycle knobs: rebind a just-closed port immediately
    #: (start/stop cycles in tests) and a deterministic accept backlog.
    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(
        self,
        server_address: tuple[str, int],
        RequestHandlerClass: Any,
        workers: int | None = None,
        queue_size: int | None = None,
    ):
        super().__init__(server_address, RequestHandlerClass)
        self.workers = workers or _env_int(HTTP_WORKERS_ENV, DEFAULT_HTTP_WORKERS)
        self._queue: "queue.Queue[tuple[Any, Any] | None]" = queue.Queue(
            maxsize=queue_size or _env_int(HTTP_QUEUE_ENV, DEFAULT_HTTP_QUEUE)
        )
        self._threads: list[threading.Thread] = []
        self._pool_lock = threading.Lock()
        #: Connections refused with the prebuilt 503.
        self.saturation_rejects = 0

    def _ensure_pool(self) -> None:
        if self._threads:
            return
        with self._pool_lock:
            if self._threads:
                return
            threads = []
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker,
                    name=f"http-pool-{self.server_address[1]}-{index}",
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
            self._threads = threads

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            request, client_address = item
            try:
                # Replies leave in one send (JsonRequestHandler.write_reply);
                # without Nagle that send is never held for an ACK.
                request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - mirror ThreadingMixIn
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def process_request(self, request: Any, client_address: Any) -> None:
        """Accept-path hand-off: enqueue or reject, never block."""
        self._ensure_pool()
        try:
            self._queue.put_nowait((request, client_address))
        except queue.Full:
            self.saturation_rejects += 1
            try:
                request.sendall(_SATURATED_RESPONSE)
            except OSError:
                pass
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._pool_lock:
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(timeout=5)


#: Largest request body either frontend reads: kube-apiserver's own
#: request-body cap.  A constant, not an option -- longer requests are
#: answered 413 before a single body byte is read.
MAX_BODY_BYTES = 3 * 1024 * 1024

#: Methods whose request must carry a body (and have it validated).
_BODY_METHODS = frozenset({"POST", "PUT", "PATCH"})

#: The ``method`` label values of ``http_requests_total``: the methods
#: the handler serves, everything else (client-chosen, so unbounded)
#: counts as ``"other"``.
_SERVED_METHODS = frozenset({"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE"})


class JsonRequestHandler(BaseHTTPRequestHandler):
    """What the API-server and proxy frontends share: request framing,
    the JSON reply writer, ``/obs/*`` + HEAD dispatch and the access
    counter.  A subclass defines ``handle_api()`` (serve one API
    request; the method is ``self.command``); :meth:`HttpService._bind`
    injects the rest.
    """

    #: HTTP/1.1 so clients (notably the KubeFence proxy's pooled
    #: upstream connections) can reuse the TCP socket; every reply
    #: carries an explicit Content-Length.
    protocol_version = "HTTP/1.1"
    #: the :class:`HttpService` this handler serves for
    service: "HttpService"
    #: the component's :class:`~repro.obs.PhaseClock`
    phases: Any
    #: the component's ``http_requests_total{method,code}`` counter
    http_requests: Any

    # Silence the default stderr request logging; access logs are not
    # discarded, though -- log_request() routes them into the metrics
    # registry as http_requests_total{method,code}.
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102
        pass

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        # Runs inside send_response, before the reply is written: a
        # label set the cardinality guard refuses (counted in
        # repro_label_sets_dropped_total) must not cost the reply.
        method = getattr(self, "command", None)
        try:
            self.http_requests.labels(
                method=method if method in _SERVED_METHODS else "other",
                code=getattr(code, "value", code),
            ).inc()
        except CardinalityError:
            pass

    def reply_head(
        self,
        code: int,
        length: int,
        content_type: str = "application/json",
        headers: tuple[tuple[str, str], ...] = (),
    ) -> bytes:
        """Status line and headers of a reply whose body is *length*
        bytes, counted on ``http_requests_total``; a ``Connection:
        close`` among *headers* ends the keep-alive loop after it."""
        self.log_request(code)
        lines = [
            f"{self.protocol_version} {code} {self.responses.get(code, ('',))[0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {length}",
        ]
        for name, value in headers:
            lines.append(f"{name}: {value}")
            if name.lower() == "connection" and value.lower() == "close":
                self.close_connection = True
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def write_reply(
        self,
        code: int,
        body: bytes,
        content_type: str = "application/json",
        headers: tuple[tuple[str, str], ...] = (),
        head: bool = False,
    ) -> None:
        """The one place either frontend puts a reply on the wire: status
        line, headers and body leave as one buffer in one send; *head*
        sends the headers of the same reply without the body.

        One send, not two: a body written after the head is a second
        small segment, and Nagle's algorithm holds it until the peer
        ACKs the head -- which a delayed-ACK peer does only after its
        ~40 ms timer.  Accepted sockets also set ``TCP_NODELAY``
        (:class:`WorkerPoolHTTPServer`)."""
        wire = self.reply_head(code, len(body), content_type, headers)
        self.wfile.write(wire if head else wire + body)

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """What the stdlib answers a request it cannot route (a bad
        request line, oversized line or headers, an unknown method) --
        here a Kubernetes ``Status`` through :meth:`write_reply`, with
        ``Connection: close``."""
        phrase = self.responses.get(code, ("Error",))[0]
        status = ApiError(code, phrase.replace(" ", ""), message or phrase).to_status()
        self.write_reply(code, json.dumps(status).encode(),
                         headers=(("Connection", "close"),),
                         head=self.command == "HEAD")

    def reply(self, code: int, payload: Any,
              headers: tuple[tuple[str, str], ...] = ()) -> None:
        """Encode *payload* as the JSON reply (serialization phase);
        *payload* already in ``bytes`` is written as it is."""
        started = time.perf_counter_ns()
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.write_reply(code, body, headers=headers)
        self.phases.serialization(time.perf_counter_ns() - started)

    def _read_body(self) -> bytes | None:
        """The request body (``b""`` when there is none), or ``None``
        after malformed framing was answered locally.

        Fails closed: neither frontend decodes ``Transfer-Encoding``, so
        a request using it -- or a write with no length -- has no body
        this handler could validate, and whatever bytes follow would be
        parsed as the next request on the keep-alive socket.
        """
        declared = self.headers.get("Content-Length")
        length = 0
        if self.headers.get("Transfer-Encoding") is not None:
            error = ApiError(411, "LengthRequired",
                             "Transfer-Encoding is not supported; send Content-Length")
        elif declared is not None and not (declared.isascii() and declared.isdigit()):
            error = ApiError.bad_request(
                f"Content-Length {declared!r} is not a non-negative integer")
        elif (length := int(declared or 0)) > MAX_BODY_BYTES:
            error = ApiError(413, "RequestEntityTooLarge",
                             f"request body exceeds {MAX_BODY_BYTES} bytes")
        elif not length and self.command in _BODY_METHODS:
            error = ApiError(411, "LengthRequired",
                             f"{self.command} needs a body: send a positive Content-Length")
        else:
            return self.rfile.read(length) if length else b""
        # The body was not consumed, so whatever follows on this socket
        # is not a request boundary: answer and hang up.
        self.reply(error.code, error.to_status(), (("Connection", "close"),))
        return None

    def read_json(self) -> tuple[bytes, dict | None] | None:
        """``(raw body, the JSON object it encodes or None without a
        body)``, or ``None`` after a malformed request was answered
        locally.  The read is drained before any other reply: with
        keep-alive, unread body bytes would corrupt the next request.
        Drain and parse are the request's deserialization share."""
        started = time.perf_counter_ns()
        raw = self._read_body()
        if not raw:
            return None if raw is None else (raw, None)
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError):
            body = None
        if not isinstance(body, dict):
            self.reply(400, ApiError.bad_request(
                "request body is not valid JSON" if body is None
                else "request body must be a JSON object"
            ).to_status())
            return None
        self.phases.serialization(time.perf_counter_ns() - started)
        return raw, body

    def _serve_obs(self, head: bool = False) -> bool:
        """Observability surfaces (/metrics, /healthz, /readyz,
        /obs/*), served before API routing."""
        service = self.service
        served = obs_endpoint(
            self.path,
            slo=service.slo,
            refine=service.refine,
            scanner=service.scanner,
            timeseries=service.timeseries,
            profiler=PROFILER,
            accept=self.headers.get("Accept", ""),
            **service.obs_identity,
        )
        if served is None:
            return False
        status, content_type, body = served
        self.write_reply(status, body, content_type, head=head)
        return True

    def _handle(self) -> None:
        # Wall-clock denominator for the phase breakdown
        # (kubefence_request_wall_ns_total): stamped here, at HTTP
        # ingress, so every phase share recorded below is inside it.
        wall_started = time.perf_counter_ns()
        self.handle_api()
        self.phases.wall(time.perf_counter_ns() - wall_started)

    def do_GET(self) -> None:
        if not self._serve_obs():
            self._handle()

    def do_HEAD(self) -> None:
        # HEAD on the observability surfaces: full headers (correct
        # Content-Length), no body.  API paths have no HEAD semantics.
        if not self._serve_obs(head=True):
            self.write_reply(
                405, b"", head=True,
                headers=(("Allow", "GET, POST, PUT, PATCH, DELETE"),),
            )

    do_POST = do_PUT = do_PATCH = do_DELETE = _handle


class _Handler(JsonRequestHandler):
    server_version = "MiniKubeApiServer/1.0"
    # Injected by HttpApiServer: the server, and ``faults`` -- an
    # optional :class:`repro.faults.FaultInjector` applied at the wire
    # level (``None`` in the normal, fault-free topology).
    api: APIServer

    def _user(self) -> User:
        username = self.headers.get("X-Remote-User", "kubernetes-admin")
        groups = tuple(
            g for g in self.headers.get("X-Remote-Groups", "system:masters").split(",") if g
        )
        return User(username, groups + ("system:authenticated",))

    def handle_api(self) -> None:
        read = self.read_json()
        if read is None:
            return
        # `mark` threads through the method: everything between the
        # stamped regions (fault checks, REST-path routing, ApiRequest
        # construction with identity extraction) is attributed to authn
        # so the coverage denominator holds >=90% on validated writes.
        phases = self.phases
        mark = time.perf_counter_ns()

        # Wire-level chaos: the injector may 5xx, stall, truncate, or
        # RST this request.  It runs after the body drain (keep-alive
        # hygiene) and never touches the observability surfaces, so
        # /metrics stays scrapeable mid-scenario.
        faults = self.faults
        if faults is not None and faults.apply_http(self):
            return

        try:
            kind, namespace, name = parse_rest_path(self.path, self.api.registry)
        except (ValueError, KeyError) as exc:
            self.reply(404, {"kind": "Status", "status": "Failure",
                             "message": str(exc), "code": 404})
            return

        verb = rest_verb(self.command, name)
        request = ApiRequest(
            verb=verb,
            kind=kind,
            user=self._user(),
            namespace=namespace or "default",
            name=name,
            body=read[1],
            source_ip=self.client_address[0],
        )
        now = time.perf_counter_ns()
        phases.authn(now - mark)
        # Join the caller's trace when the KubeFence proxy forwarded an
        # X-Trace-Id, so the audit event correlates with the proxy-side
        # trace; otherwise open a fresh server-side trace.
        incoming = self.headers.get("X-Trace-Id") or None
        with trace("apiserver.request", trace_id=incoming):
            response = self.api.handle(request)
        # Everything in this bracket outside handle()'s own span is
        # tracer bookkeeping (trace open, span record under the
        # buffer lock) -- telemetry, and the largest unstamped gap
        # on the server path when a scrape holds that lock.
        phases.telemetry(
            time.perf_counter_ns() - now - getattr(response, "handle_ns", 0)
        )
        self.reply(response.code, response.body if response.body is not None else {})
        # Commit point 3: write_reply() has put the response bytes for
        # a successful write on the socket (wfile is unbuffered) -- the
        # client will observe this write as acknowledged.  No-op outside
        # the chaos child.
        if response.ok and verb in ("create", "update", "patch", "delete"):
            crashpoint("post-ack")


class HttpService:
    """Lifecycle of one HTTP frontend: a bound handler class on the
    worker-pool server, a serve thread, the ``/obs/*`` sources, and
    the refcounted process profiler.  A context manager."""

    #: optional /obs/slo, /obs/refine and /obs/scan sources (read per
    #: request, so wiring one onto a running service takes effect).
    slo: Any = None
    refine: Any = None
    scanner: Any = None

    def _bind(self, address: tuple[str, int], handler: type, registry: Any,
              component: str, ready_checks: dict[str, Callable[[], bool]],
              event_bus: Any, workers: int | None = None,
              queue_size: int | None = None, **bound: Any) -> None:
        """Listen on *address* with *handler* subclassed to carry
        *bound* (what its requests serve) as class attributes."""
        #: what /metrics, /healthz, /readyz and /obs/events serve
        self.obs_identity = {
            "registry": registry,
            "component": component,
            "ready_checks": ready_checks,
            "event_bus": (
                event_bus if event_bus is not None and event_bus.enabled else None
            ),
        }
        #: in-process metrics ring (served at /obs/timeseries, the
        #: ``repro top`` data source); ticking starts with the server.
        self.timeseries = TimeSeriesRing(registry)
        http_requests = registry.counter(
            "http_requests_total",
            "HTTP requests served, by method and status code.",
            labels=("method", "code"),
            max_series=128,
        )
        self._httpd = WorkerPoolHTTPServer(
            address,
            type("BoundHandler", (handler,),
                 {**bound, "service": self, "http_requests": http_requests}),
            workers=workers, queue_size=queue_size,
        )
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]  # type: ignore[return-value]

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> Any:
        # Refcounted: the profiler thread is shared process-wide and
        # stops with the last component that acquired it.
        PROFILER.acquire()
        self.timeseries.start()
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"{type(self).__name__} serve thread failed to stop within 5s"
                )
            self._thread = None
            self.timeseries.stop()
            PROFILER.release()

    def __enter__(self) -> Any:
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class HttpApiServer(HttpService):
    """Serve an :class:`APIServer` over a real TCP socket."""

    def __init__(self, api: APIServer, host: str = "127.0.0.1", port: int = 0,
                 fault_injector: Any | None = None, slo: Any | None = None,
                 refine: Any | None = None, scanner: Any | None = None,
                 workers: int | None = None, queue_size: int | None = None):
        self.slo, self.refine, self.scanner = slo, refine, scanner
        self._bind(
            (host, port), _Handler, api.metrics, "mini-apiserver",
            {"store": lambda: api.store is not None},
            getattr(api, "event_bus", None), workers, queue_size,
            api=api, phases=api.phases, faults=fault_injector,
        )


class HttpClient:
    """A minimal kubectl-like HTTP client for the mini API."""

    def __init__(self, base_url: str, username: str = "kubernetes-admin",
                 groups: tuple[str, ...] = ("system:masters",),
                 reg: ResourceRegistry | None = None):
        self.base_url = base_url.rstrip("/")
        self.username = username
        self.groups = groups
        self.registry = reg if reg is not None else default_registry

    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[int, Any]:
        data = json.dumps(body).encode() if body is not None else None
        req = urllib_request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={
                "Content-Type": "application/json",
                "X-Remote-User": self.username,
                "X-Remote-Groups": ",".join(self.groups),
            },
        )
        try:
            with urllib_request.urlopen(req) as resp:
                return resp.status, json.loads(resp.read() or b"{}")
        except HTTPError as err:
            return err.code, json.loads(err.read() or b"{}")

    def create(self, manifest: dict) -> tuple[int, Any]:
        kind = manifest.get("kind", "")
        rt = self.registry.by_kind(kind)
        ns = manifest.get("metadata", {}).get("namespace", "default")
        return self._request("POST", rt.url_path(ns if rt.namespaced else None), manifest)

    def apply(self, manifest: dict) -> tuple[int, Any]:
        """create-or-update, like ``kubectl apply``."""
        kind = manifest.get("kind", "")
        rt = self.registry.by_kind(kind)
        meta = manifest.get("metadata", {})
        ns = meta.get("namespace", "default")
        name = meta.get("name", "")
        status, body = self._request(
            "GET", rt.url_path(ns if rt.namespaced else None, name)
        )
        if status == 200:
            return self._request(
                "PUT", rt.url_path(ns if rt.namespaced else None, name), manifest
            )
        return self._request(
            "POST", rt.url_path(ns if rt.namespaced else None), manifest
        )

    def get(self, kind: str, name: str, namespace: str = "default") -> tuple[int, Any]:
        rt = self.registry.by_kind(kind)
        return self._request("GET", rt.url_path(namespace if rt.namespaced else None, name))

    def delete(self, kind: str, name: str, namespace: str = "default") -> tuple[int, Any]:
        rt = self.registry.by_kind(kind)
        return self._request(
            "DELETE", rt.url_path(namespace if rt.namespaced else None, name)
        )
