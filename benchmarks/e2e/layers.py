"""Layer self-times, measured from outside the program.

No file under ``src/`` is instrumented for this benchmark.  Each
layer's cost is found by replaying the workload's own request stream
inside the benchmark process through that layer's *public* function
and timing the call -- ``json.loads``, ``ValidationGate.check``,
``parse_rest_path``, ``APIServer.handle`` over a durable store,
``ObjectStore.update``, ``WriteAheadLog.append`` and so on -- with a
span recorded around every call (name, start, end, parent, request).

The *as-run* pass walks each client's prologue and the head of its
cycle in order, so creates precede updates and the decision cache
fills the way it does over the sockets; it yields the per-request
compute on the blocking path (``budget.compute_share``).  The forced
passes that follow pin one condition each (all hits, all misses,
all denials, evicting puts) so a layer metric means the same thing on
every workload.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchmarks.e2e import metrics as M
from benchmarks.e2e.workloads import NAMESPACE, Request, Workload

#: Cycle requests per client the as-run pass replays (after the whole
#: prologue), and the cap on distinct bodies in a forced pass.
CYCLE_SAMPLE = 150
BODY_SAMPLE = 40
ROUNDS = 5


@dataclass
class Replay:
    #: per-layer metric name -> its values (one per round or call)
    values: dict[str, list[float]] = field(default_factory=dict)
    #: Means over the *forwarded* cycle requests of the as-run pass, µs.
    handle_mix_us: float = 0.0
    gate_mix_us: float = 0.0
    blocking_compute_us: float = 0.0
    spans: list[dict[str, Any]] = field(default_factory=list)


class _Clock:
    """Times calls into a layer and keeps one span per call."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._request = 0

    def next_request(self) -> None:
        self._request += 1

    def call(self, layer: str, fn: Callable[..., Any], *args: Any) -> tuple[Any, int]:
        started = time.perf_counter_ns()
        out = fn(*args)
        ended = time.perf_counter_ns()
        self.spans.append({"name": f"layer.{layer}", "start_ns": started, "end_ns": ended,
                           "parent": None, "request": f"replay-{self._request}"})
        return out, ended - started

    def loop(self, layer: str, fn: Callable[[], Any], count: int) -> float:
        """ns per call of a body too short to time one call at a time."""
        started = time.perf_counter_ns()
        for _ in range(count):
            fn()
        ended = time.perf_counter_ns()
        self.spans.append({"name": f"layer.{layer}", "start_ns": started, "end_ns": ended,
                           "parent": None, "request": f"loop-x{count}"})
        return (ended - started) / count


def _us(ns_values: list[float]) -> list[float]:
    return [v / 1e3 for v in ns_values]


def _median_us(ns_values: list[int]) -> list[float]:
    return [M.median([float(v) for v in ns_values]) / 1e3] if ns_values else []


def replay(workload: Workload, workdir: Path) -> Replay:
    from repro.core.compiled import compile_validator
    from repro.core.pipeline import generate_policy
    from repro.core.proxy import KubeFenceProxy, ProxyStats, ValidationGate
    from repro.core.shards import ShardedDecisionCache, fast_body_key
    from repro.helm.chart import render_chart
    from repro.k8s.apiserver import ApiRequest, Cluster, User
    from repro.k8s.gvk import registry
    from repro.k8s.http import parse_rest_path
    from repro.k8s.objects import K8sObject
    from repro.k8s.store import ObjectStore
    from repro.k8s.wal import WriteAheadLog, encode_record
    from repro.obs import new_registry, trace
    from repro.obs.analytics.events import EventBus, SecurityEvent
    from repro.operators import OPERATOR_NAMES, get_chart
    from repro.resilience import DEFAULT_RESILIENCE, RETRYABLE_STATUS_CODES, UpstreamGuard

    clock = _Clock()
    out = Replay()
    values = out.values
    workdir.mkdir(parents=True, exist_ok=True)

    # -- offline phase: what setup_s pays in the proxy child ------------------
    charts = {name: get_chart(name) for name in OPERATOR_NAMES}
    validators = {}
    generate_ns = render_ns = compile_ns = 0
    for name, chart in charts.items():
        validators[name], ns = clock.call("core.pipeline.generate_policy", generate_policy, chart)
        generate_ns += ns
        _, ns = clock.call("helm.render_chart", render_chart, chart)
        render_ns += ns
        _, ns = clock.call("core.compiled.compile_validator", compile_validator, validators[name])
        compile_ns += ns
    values["core.pipeline.generate_policy_ms"] = [generate_ns / 1e6]
    values["helm.render_chart_ms"] = [render_ns / 1e6]
    values["core.compiled.compile_ms"] = [compile_ns / 1e6]

    # -- constants of the forwarding path (too short to time singly) ---------
    def traced_noop() -> None:
        with trace("bench.replay"):
            pass

    bus = EventBus()

    def publish() -> None:
        bus.publish(SecurityEvent(
            kind="decision", source="proxy", ts=time.time(), user="bench-operator",
            verb="post", resource="Deployment", name="bench", outcome="deny", code=403,
            trace_id="0" * 16, latency_ns=1, detail={"path": "/bench", "reason": "field"},
        ))

    counter = new_registry().counter("bench_replay_total", "replay probe").local()
    guard = UpstreamGuard(
        DEFAULT_RESILIENCE.retry, DEFAULT_RESILIENCE.make_breaker(),
        retry_on=(OSError,),
    )
    reply = (200, b"{}")

    def guarded() -> None:
        guard.call(lambda: reply, deadline=DEFAULT_RESILIENCE.deadline(),
                   is_failure=lambda r: r[0] in RETRYABLE_STATUS_CODES)

    trace_ns = [clock.loop("obs.trace", traced_noop, 2000) for _ in range(ROUNDS)]
    publish_ns = [clock.loop("obs.event_publish", publish, 2000) for _ in range(ROUNDS)]
    counter_ns = [clock.loop("obs.counter_inc", counter.inc, 20000) for _ in range(ROUNDS)]
    guard_ns = [clock.loop("resilience.guard_call", guarded, 2000) for _ in range(ROUNDS)]
    values["obs.trace_open_close_us"] = _us(trace_ns)
    values["obs.event_publish_us"] = _us(publish_ns)
    values["obs.counter_inc_ns"] = counter_ns
    values["resilience.guard_call_us"] = _us(guard_ns)
    trace_c, guard_c = M.median(trace_ns), M.median(guard_ns)

    # -- as-run pass ----------------------------------------------------------
    cluster = Cluster(data_dir=workdir / "asrun", fsync=None)
    api = cluster.api
    gates = {name: ValidationGate(v, ProxyStats()) for name, v in validators.items()}
    users = {name: User(f"{name}-operator", ("operators", "system:authenticated"))
             for name in OPERATOR_NAMES}
    verbs = {"POST": "create", "PUT": "update", "DELETE": "delete"}
    loads_ns: list[int] = []
    dumps_ns: list[int] = []
    path_ns: list[int] = []
    handle_ns: dict[str, list[int]] = {v: [] for v in ("create", "update", "get", "list", "delete")}
    forwarded_cost: list[float] = []
    forwarded_gate: list[float] = []
    forwarded_handle: list[float] = []
    benign: dict[str, dict[bytes, dict]] = {name: {} for name in OPERATOR_NAMES}
    malicious: dict[str, dict[bytes, dict]] = {name: {} for name in OPERATOR_NAMES}

    def as_run(request: Request, in_cycle: bool) -> None:
        clock.next_request()
        body = request.body
        manifest = None
        parse = gate = 0
        if body:
            manifest, parse = clock.call("wire.json_loads", json.loads, body)
            loads_ns.append(parse)
        if manifest is not None and request.method != "DELETE":
            verdict, gate = clock.call("core.proxy.gate_check",
                                       gates[request.operator].check, manifest)
            if not verdict.allowed:
                malicious[request.operator].setdefault(body, manifest)
                return  # answered locally; not on the forwarded path
            if len(benign[request.operator]) < BODY_SAMPLE:
                benign[request.operator].setdefault(body, manifest)
        (kind, namespace, name), route = clock.call(
            "k8s.http.parse_rest_path", parse_rest_path, request.path, registry)
        path_ns.append(route)
        verb = verbs.get(request.method) or ("get" if name else "list")
        api_request = ApiRequest(verb=verb, kind=kind, user=users[request.operator],
                                 namespace=namespace or NAMESPACE, name=name, body=manifest)
        response, handled = clock.call(f"k8s.apiserver.handle_{verb}", api.handle, api_request)
        handle_ns[verb].append(handled)
        encoded, encode = clock.call(
            "wire.json_dumps", lambda: json.dumps(response.body).encode())
        dumps_ns.append(encode)
        _, decode = clock.call("wire.json_loads", json.loads, encoded)
        loads_ns.append(decode)
        if in_cycle:
            # proxy: parse body, gate, guard, trace; server: parse body
            # again, route, handle, encode, trace; proxy: decode + re-encode.
            forwarded_cost.append(2 * parse + gate + guard_c + 2 * trace_c
                                  + route + handled + 2 * encode + decode)
            forwarded_gate.append(gate)
            forwarded_handle.append(handled)

    for stream in workload.clients:
        for request in stream.prologue:
            as_run(request, in_cycle=False)
        for request in stream.cycle[:CYCLE_SAMPLE]:
            as_run(request, in_cycle=True)
    if not any(malicious.values()):
        # No attack in the cycle: the time-to-deny probe's bodies.
        for stream in workload.clients:
            for request in stream.deny[:BODY_SAMPLE]:
                malicious[request.operator].setdefault(request.body, json.loads(request.body))

    out.handle_mix_us = sum(forwarded_handle) / len(forwarded_handle) / 1e3
    out.gate_mix_us = sum(forwarded_gate) / len(forwarded_gate) / 1e3
    out.blocking_compute_us = sum(forwarded_cost) / len(forwarded_cost) / 1e3

    # Verbs the mix lacks still get a number, on the workload's own objects.
    live = list(cluster.store.all_objects())[:20]
    busiest = max({o.kind for o in live}, key=lambda k: len(cluster.store.list(k)))
    owner = users[workload.clients[0].cycle[0].operator]
    for obj in live:
        for verb, body in (("get", None), ("update", obj.data)):
            if len(handle_ns[verb]) < 20:
                _, ns = clock.call(f"k8s.apiserver.handle_{verb}", api.handle, ApiRequest(
                    verb=verb, kind=obj.kind, user=owner, namespace=obj.namespace,
                    name=obj.name, body=body))
                handle_ns[verb].append(ns)
        if len(handle_ns["list"]) < 20:
            _, ns = clock.call("k8s.apiserver.handle_list", api.handle, ApiRequest(
                verb="list", kind=busiest, user=owner, namespace=NAMESPACE))
            handle_ns["list"].append(ns)
    for verb in ("create", "update", "get", "list"):
        values[f"k8s.apiserver.handle_{verb}_us"] = _median_us(handle_ns[verb])
    values["wire.json_loads_us"] = _median_us(loads_ns)
    values["wire.json_dumps_us"] = _median_us(dumps_ns)
    values["k8s.http.parse_rest_path_us"] = _median_us(path_ns)
    values["k8s.store.compact_ms"] = [
        clock.call("k8s.store.compact", cluster.store.compact)[1] / 1e6 for _ in range(3)
    ]
    cluster.store.close()

    # -- forced passes --------------------------------------------------------
    hit_ns: list[int] = []
    miss_ns: list[int] = []
    allow_ns: list[int] = []
    deny_ns: list[int] = []
    key_ns: list[int] = []
    for name, bodies in benign.items():
        if not bodies:
            continue
        gate = ValidationGate(validators[name], ProxyStats())
        compiled = validators[name].compiled()
        for _ in range(ROUNDS):
            assert gate.cache is not None
            gate.cache.clear()
            for manifest in bodies.values():
                miss_ns.append(clock.call("core.proxy.gate_check_miss", gate.check, manifest)[1])
            for manifest in bodies.values():
                hit_ns.append(clock.call("core.proxy.gate_check_hit", gate.check, manifest)[1])
                allow_ns.append(clock.call("core.compiled.validate_allow",
                                           compiled.validate, manifest)[1])
                key_ns.append(clock.call("core.shards.body_key", fast_body_key, manifest)[1])
    for name, bodies in malicious.items():
        compiled = validators[name].compiled()
        for _ in range(ROUNDS):
            for manifest in bodies.values():
                deny_ns.append(clock.call("core.compiled.validate_deny",
                                          compiled.validate, manifest)[1])
    values["core.proxy.gate_check_hit_us"] = _median_us(hit_ns)
    values["core.proxy.gate_check_miss_us"] = _median_us(miss_ns)
    values["core.compiled.validate_allow_us"] = _median_us(allow_ns)
    values["core.compiled.validate_deny_us"] = _median_us(deny_ns)
    values["core.shards.body_key_us"] = _median_us(key_ns)

    stem = fast_body_key(next(iter(next(b for b in benign.values() if b).values()))) or b""
    present = [stem + i.to_bytes(4, "big") for i in range(512)]
    churn = [stem + i.to_bytes(4, "big") for i in range(4096)]
    revision = (1, 1)
    get_ns, put_ns = [], []
    for _ in range(ROUNDS):
        cache = ShardedDecisionCache(1024)
        for key in present:
            cache.put(key, True, revision)
        keys = iter(present * 4)
        get_ns.append(clock.loop("core.shards.cache_get_hit",
                                 lambda: cache.get(next(keys), revision), len(present) * 4))
        keys = iter(churn)
        put_ns.append(clock.loop("core.shards.cache_put",
                                 lambda: cache.put(next(keys), True, revision), len(churn)))
    values["core.shards.cache_get_hit_ns"] = get_ns
    values["core.shards.cache_put_us"] = _us(put_ns)

    # store and WAL on the objects this workload writes
    written = [m for bodies in benign.values() for m in bodies.values()][:BODY_SAMPLE]
    durable = ObjectStore.recover(workdir / "store", fsync=None)
    memory = ObjectStore()
    wal = WriteAheadLog(workdir / "wal-only" / "wal.log", fsync=None)
    objects = [K8sObject(m) for m in written]
    for obj in objects:
        durable.create(obj)
        memory.create(obj)
    durable_ns, memory_ns, append_ns, encode_ns, frame_bytes = [], [], [], [], []
    for rnd in range(ROUNDS):
        for i, obj in enumerate(objects):
            durable_ns.append(clock.call("k8s.store.update", durable.update, obj)[1])
            memory_ns.append(clock.call("k8s.store.update_mem", memory.update, obj)[1])
            record = {"op": "update", "rev": rnd * len(objects) + i + 1, "obj": obj.data}
            append_ns.append(clock.call("k8s.wal.append", wal.append, record)[1])
            frame, ns = clock.call("k8s.wal.encode_record", encode_record, record)
            encode_ns.append(ns)
            frame_bytes.append(float(len(frame)))
    durable.close()
    wal.close()
    values["k8s.store.update_us"] = _median_us(durable_ns)
    values["k8s.store.update_mem_us"] = _median_us(memory_ns)
    values["k8s.wal.append_us"] = _median_us(append_ns)
    values["k8s.wal.encode_record_us"] = _median_us(encode_ns)
    values["k8s.wal.bytes_per_write"] = [sum(frame_bytes) / len(frame_bytes)]

    # the in-process proxy over a durable API server: allowed vs malicious
    inproc = Cluster(data_dir=workdir / "inproc", fsync=None)
    submit_ns, refuse_ns = [], []
    for name in OPERATOR_NAMES:
        if not benign[name]:
            continue
        proxy = KubeFenceProxy(inproc.api, validators[name])
        for manifest in benign[name].values():
            proxy.submit(ApiRequest.from_manifest(manifest, users[name], "create"))
        for _ in range(ROUNDS):
            for manifest in benign[name].values():
                request = ApiRequest.from_manifest(manifest, users[name], "update")
                response, ns = clock.call("core.proxy.submit_inproc", proxy.submit, request)
                if response.ok:
                    submit_ns.append(ns)
            for manifest in malicious[name].values():
                request = ApiRequest.from_manifest(manifest, users[name], "create")
                response, ns = clock.call("core.proxy.deny_inproc", proxy.submit, request)
                if response.code == 403:
                    refuse_ns.append(ns)
    inproc.store.close()
    values["core.proxy.submit_inproc_us"] = _median_us(submit_ns)
    values["core.proxy.deny_inproc_us"] = _median_us(refuse_ns)

    out.spans = clock.spans
    return out
