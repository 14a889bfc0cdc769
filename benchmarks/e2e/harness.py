"""Drive one workload against the launched topology and verify it.

The load generator is this one process: ``CLIENTS`` (2) threads, each
a **closed loop** -- it sends its next request only after the previous
reply is complete, the way an operator's reconcile loop or ``kubectl``
does -- over one keep-alive connection per proxy it talks to.

Untraced run (``trace=0``)::

    SETUP_REPEATS x [launch children, build streams, /readyz, prologue]   -> setup_s
    warm-up | scrape | 10 windows | scrape | 5 time-to-deny probes
    verify live set over direct LISTs | stop children | recover() == acked writes

Traced run (``trace=1``) adds the RBAC direct arm, the echo floor and
the layer replays of :mod:`.layers`; its windows are
``P(untraced) P(traced) D P(traced) D`` so it carries its own
untraced reference for ``trace.overhead_pct``.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any

from benchmarks.e2e import metrics as M
from benchmarks.e2e.client import (
    Connection,
    ProtocolError,
    floor_rtt_p50_us,
    wire_request,
)
from benchmarks.e2e.serve import Children
from benchmarks.e2e.workloads import (
    FORBIDDEN,
    LIST,
    ClientStream,
    Request,
    Workload,
    build,
)

from repro.obs import delta

RESULTS = Path(__file__).resolve().parent / "results"

#: A failed request has no RTT; it sorts after every real one, so it
#: counts as missing any latency limit (and is JSON-encodable).
MISSING_RTT_NS = 10**12

_SERIES = (
    "kubefence_cache_hits_total",
    "kubefence_cache_misses_total",
    "kubefence_connections_opened_total",
    "kubefence_retries_total",
    "kubefence_degraded_requests_total",
    "kubefence_apiserver_requests_total",
)


# -- one client ---------------------------------------------------------------


@dataclass
class WindowLog:
    """What one client saw in one window."""

    start_ns: int = 0
    end_ns: int = 0
    rtts: list[int] = field(default_factory=list)        # correct replies
    deny_rtts: list[int] = field(default_factory=list)   # the 403 subset
    forwarded_rtts: list[int] = field(default_factory=list)
    stamps: list[tuple[int, int, int, int]] = field(default_factory=list)
    failed: int = 0
    saturated: int = 0


class ClientState:
    """One closed-loop client: its stream, connections and counters."""

    def __init__(self, stream: ClientStream, ports: dict[str, int]):
        self.stream = stream
        self.conns = {op: Connection(port) for op, port in ports.items()}
        self.cycle_done = 0
        self.deny_done = 0
        self.attempted = 0
        self.failed = 0
        #: 2xx replies to POST/PUT/DELETE: each is one store revision.
        self.acked_writes = 0
        #: Correct replies that were not local denials (reached the API server).
        self.forwarded = 0
        #: The first few failures, verbatim, for the report.
        self.problems: list[str] = []

    def close(self) -> None:
        for conn in self.conns.values():
            conn.close()

    def play(self, requests: tuple[Request, ...], start: int, deadline_ns: int | None,
             traced: bool = False) -> tuple[int, WindowLog]:
        """Send ``requests[start:]`` once (``deadline_ns=None``) or
        round-robin until the deadline; returns (requests sent, log)."""
        log = WindowLog(start_ns=time.perf_counter_ns())
        perf = time.perf_counter_ns
        n = len(requests)
        sent = 0
        while True:
            if deadline_ns is None:
                if start + sent >= n:
                    break
            elif perf() >= deadline_ns:
                break
            request = requests[(start + sent) % n]
            sent += 1
            self.attempted += 1
            try:
                status, body, t0, t_sent, t_first, t_last = (
                    self.conns[request.operator].exchange(request.wire)
                )
            except (OSError, ProtocolError, ValueError) as err:
                self._fail(log, request, f"transport: {err!r}")
                continue
            log.end_ns = t_last
            if 200 <= status < 300 and request.is_write:
                self.acked_writes += 1
            if status == 503:
                log.saturated += 1
            if status != request.expect:
                self._fail(log, request, f"status {status}, expected {request.expect}: "
                                          f"{body[:160]!r}")
                continue
            wrong = _reply_problem(request, body)
            if wrong:
                self._fail(log, request, wrong)
                continue
            rtt = t_last - t0
            log.rtts.append(rtt)
            if request.check == FORBIDDEN:
                log.deny_rtts.append(rtt)
            else:
                self.forwarded += 1
                log.forwarded_rtts.append(rtt)
            if traced:
                log.stamps.append((t0, t_sent, t_first, t_last))
        if not log.end_ns:
            log.end_ns = perf()
        return sent, log

    def _fail(self, log: WindowLog, request: Request, why: str) -> None:
        self.failed += 1
        log.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{request.method} {request.path}: {why}")


def _reply_problem(request: Request, body: bytes) -> str:
    """Empty when *body* is the correct reply to *request*."""
    if request.check == LIST:
        # One resourceVersion per listed object, whatever the encoder's
        # separators; parsing ~50 KB per LIST would throttle the loop.
        seen = body.count(b'"resourceVersion"')
        return "" if seen == request.items else f"LIST carried {seen} objects, expected {request.items}"
    try:
        reply = json.loads(body)
    except ValueError:
        return "reply is not JSON"
    if not isinstance(reply, dict):
        return "reply is not a JSON object"
    if request.check == FORBIDDEN:
        if reply.get("kind") == "Status" and reply.get("reason") == "Forbidden":
            return ""
        return f"403 without a Forbidden Status: {body[:160]!r}"
    metadata = reply.get("metadata")
    if isinstance(metadata, dict):
        metadata.pop("uid", None)
        metadata.pop("resourceVersion", None)
    return "" if reply == _parsed(request.manifest) else "reply does not echo the object"


@lru_cache(maxsize=1024)
def _parsed(manifest: bytes) -> Any:
    """Decoded *manifest*, shared (never mutated): reconcile loops
    re-send a handful of bodies, so the client thread decodes each once
    instead of once per reply."""
    return json.loads(manifest)


# -- the rig: children + streams + clients -----------------------------------


class Arm:
    """One path to an API server: ``proxied`` (client -> five proxies
    -> API server) or ``direct`` (client -> RBAC API server)."""

    def __init__(self, name: str, streams: tuple[ClientStream, ...],
                 ports: dict[str, int], api_port: int):
        self.name = name
        self.api_port = api_port
        self.clients = [ClientState(stream, ports) for stream in streams]

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def each(self, job: Any) -> list[Any]:
        """Run ``job(client)`` on every client at once, one thread each."""
        with ThreadPoolExecutor(len(self.clients)) as pool:
            return list(pool.map(job, self.clients))

    def prologue(self) -> None:
        self.each(lambda c: c.play(c.stream.prologue, 0, None))

    def window(self, seconds: float, traced: bool = False, deny: bool = False
               ) -> list[WindowLog]:
        """All clients walk their cycle (or deny stream) for *seconds*."""
        deadline = time.perf_counter_ns() + int(seconds * 1e9)

        def job(client: ClientState) -> WindowLog:
            if deny:
                sent, log = client.play(client.stream.deny, client.deny_done, deadline)
                client.deny_done += sent
            else:
                sent, log = client.play(client.stream.cycle, client.cycle_done,
                                        deadline, traced)
                client.cycle_done += sent
            return log

        return self.each(job)

    def total(self, counter: str) -> int:
        """Sum of one :class:`ClientState` counter over the clients."""
        return sum(getattr(client, counter) for client in self.clients)


def _direct_streams(workload: Workload) -> tuple[ClientStream, ...]:
    """The same streams without the attacks: RBAC never reads a body,
    so the direct arm would *admit* them (the paper's point) and the
    comparison is defined on forwarded requests only."""
    return tuple(
        ClientStream(s.prologue, tuple(r for r in s.cycle if r.check != FORBIDDEN), ())
        for s in workload.clients
    )


class Rig:
    """A launched topology with its streams built and prologues played
    -- everything ``setup_s`` pays for."""

    def __init__(self, name: str, seed: int, traced: bool):
        self.children = Children(traced)
        self.arms: list[Arm] = []
        try:
            self.workload = build(name, seed)  # while the children start
            self.children.await_ready()
            api_port = self.children["apiserver"].ports["api"]
            self.proxied = Arm("proxied", self.workload.clients,
                               self.children["proxy"].ports, api_port)
            self.arms.append(self.proxied)
            self.direct: Arm | None = None
            if traced:
                rbac_port = self.children["rbac"].ports["api"]
                self.direct = Arm(
                    "direct", _direct_streams(self.workload),
                    {op: rbac_port for op in self.children["proxy"].ports}, rbac_port,
                )
                self.arms.append(self.direct)
            for arm in self.arms:
                arm.prologue()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for arm in self.arms:
            arm.close()
        self.children.close()

    def __enter__(self) -> "Rig":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- scrapes ------------------------------------------------------------------


def scrape(ports: list[int]) -> tuple[dict[str, float], list[float]]:
    """Sum the series the benchmark reads over ``GET /metrics`` of
    *ports*; also returns each scrape's round trip in ms."""
    totals = dict.fromkeys(_SERIES, 0.0)
    took: list[float] = []
    wire = wire_request("GET", "/metrics", "bench-scraper")
    for port in ports:
        conn = Connection(port)
        try:
            status, body, t0, _sent, _first, t_last = conn.exchange(wire)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics on port {port} answered {status}")
        took.append((t_last - t0) / 1e6)
        for line in body.decode().splitlines():
            if line.startswith("#") or " " not in line:
                continue
            series, value = line.rsplit(" ", 1)
            name = series.split("{", 1)[0]
            if name in totals:
                totals[name] += float(value)
    return totals, took


def _hit_ratio(delta: dict[str, float]) -> float:
    hits = delta["kubefence_cache_hits_total"]
    probes = hits + delta["kubefence_cache_misses_total"]
    return hits / probes if probes else math.nan


# -- window arithmetic --------------------------------------------------------


def _ms(ns: float) -> float:
    return ns / 1e6


def _p50_ms(samples: list[int]) -> float:
    return _ms(M.percentile(sorted(samples), 0.5))


def window_values(logs: list[WindowLog]) -> dict[str, float]:
    """The end-to-end values of one window (all clients together)."""
    rtts = sorted(r for log in logs for r in log.rtts)
    failed = sum(log.failed for log in logs)
    with_missing = rtts + [MISSING_RTT_NS] * failed
    done = len(rtts)
    rate = sum(len(log.rtts) / ((log.end_ns - log.start_ns) / 1e9)
               for log in logs if log.end_ns > log.start_ns)
    values = {
        "rtt_p50_ms": _ms(M.percentile(with_missing, 0.5)),
        "rtt_p95_ms": _ms(M.percentile(with_missing, 0.95)),
        "throughput_rps": rate,
        "samples": float(done),
    }
    denied = [r for log in logs for r in log.deny_rtts]
    if denied:
        values["deny_rtt_p50_ms"] = _p50_ms(denied)
    return values


def _cpu_ns(children: Children, roles: tuple[str, ...]) -> dict[str, int]:
    return {role: children[role].stats()["cpu_ns"] for role in roles}


def measured_window(rig: Rig, arm: Arm, seconds: float, traced: bool = False
                    ) -> tuple[list[WindowLog], dict[str, int]]:
    """One window with the children's CPU time taken around it."""
    roles = ("apiserver", "proxy") if arm is rig.proxied else ("rbac",)
    before = _cpu_ns(rig.children, roles)
    logs = arm.window(seconds, traced)
    after = _cpu_ns(rig.children, roles)
    return logs, {role: after[role] - before[role] for role in roles}


# -- verification -------------------------------------------------------------


def verify_live_set(workload_collections: set[str], arm: Arm) -> list[str]:
    """Direct LISTs against the arm's API server must show exactly the
    objects the acknowledged stream prefix leaves behind: every live
    release complete, nothing an attack named, nothing else."""
    expected: set[str] = set()
    for client in arm.clients:
        expected |= client.stream.live_after(client.cycle_done)
    actual: set[str] = set()
    conn = Connection(arm.api_port)
    try:
        for collection in sorted(workload_collections):
            wire = wire_request("GET", collection, "kubernetes-admin",
                                groups="system:masters")
            status, body, *_ = conn.exchange(wire)
            if status != 200:
                return [f"verifier LIST {collection} answered {status}"]
            for obj in json.loads(body):
                actual.add(f"{collection}/{obj['metadata']['name']}")
    finally:
        conn.close()
    problems = []
    if actual - expected:
        problems.append(f"{arm.name}: {len(actual - expected)} unexpected object(s) "
                        f"committed, e.g. {sorted(actual - expected)[:3]}")
    if expected - actual:
        problems.append(f"{arm.name}: {len(expected - actual)} acknowledged object(s) "
                        f"missing, e.g. {sorted(expected - actual)[:3]}")
    return problems


def verify_recovery(data_dir: Path, acked_writes: int) -> tuple[list[str], float]:
    """After shutdown the WAL + snapshot must replay to exactly the
    acknowledged writes; also returns how long ``recover`` took (ms)."""
    from repro.k8s.store import ObjectStore

    started = time.perf_counter()
    store = ObjectStore.recover(data_dir, fsync="never")
    took_ms = (time.perf_counter() - started) * 1e3
    try:
        revision = store.revision
    finally:
        store.close()
    if revision != acked_writes:
        return [f"recovered revision {revision} != {acked_writes} acknowledged writes"], took_ms
    return [], took_ms


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    digest: str
    why: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> {"value", "unit", "spread", "windows"}
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def put(self, name: str, windows: list[float]) -> None:
        """Record a metric from its window values: an end-to-end metric
        (it has a bound) is the quietest of them, see
        :func:`metrics.quietest`; a per-layer metric is their median."""
        spec = _SPECS[name]
        clean = [w for w in windows if not math.isnan(w)]
        end_to_end = spec.bound is not None
        value = M.quietest(clean, spec.better) if end_to_end else M.median(clean)
        self.metrics[name] = {
            "value": value, "unit": spec.unit,
            "spread": M.spread(clean), "windows": clean,
        }

    def contract_line(self) -> str:
        """The one-line JSON object the benchmark contract asks for."""
        names = M.PER_LAYER if self.traced else M.END_TO_END
        return json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {m.name: {"value": self.metrics[m.name]["value"], "unit": m.unit}
                        for m in names},
        })

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload, "seed": self.seed, "traced": self.traced,
            "stream_sha256": self.digest, "why": self.why, "correct": self.correct,
            "ops_attempted": self.attempted, "ops_failed": self.failed,
            "problems": self.problems, "metrics": self.metrics,
        }


_SPECS = {m.name: m for m in M.END_TO_END + M.PER_LAYER}


@dataclass(frozen=True)
class Schedule:
    seconds: float          #: measured seconds (the contract's --seconds)
    windows: int = M.WINDOWS
    warmup: float = M.WARMUP_SECONDS
    setups: int = M.SETUP_REPEATS
    probes: int = M.DENY_PROBES

    @classmethod
    def smoke(cls) -> "Schedule":
        return cls(seconds=2.0, windows=1, warmup=0.5, setups=1, probes=1)

    @property
    def window(self) -> float:
        return self.seconds / self.windows

    @property
    def probe(self) -> float:
        """Length of one time-to-deny burst: 5% of the run for all."""
        return max(0.2, self.seconds / (20.0 * self.probes))

    @property
    def traced_pairs(self) -> int:
        """The traced run spends its windows as one untraced proxied
        reference plus this many (traced proxied, direct) pairs."""
        return max(1, (self.windows - 1) // 2)


def _finish(rig: Rig, result: Result, series: dict[str, float], forwarded: int) -> float:
    """Shared tail of both run kinds: regime, leak check, live set,
    shutdown, recovery.  *series* is the ``/metrics`` delta over the
    measured windows, *forwarded* the requests the clients had
    forwarded in them.  Returns ``recover()``'s duration in ms."""
    workload = rig.workload
    ratio = _hit_ratio(series)
    low, high = workload.hit_ratio
    if not low <= ratio <= high:
        result.problems.append(
            f"invalid run: decision-cache hit ratio {ratio:.4f} outside the "
            f"workload's regime [{low}, {high}]"
        )
    reached = series["kubefence_apiserver_requests_total"]
    if reached != forwarded:
        result.problems.append(
            f"API server handled {reached:.0f} requests in the windows but the "
            f"clients had {forwarded} forwarded: a denied request leaked upstream"
        )
    collections = workload.collections()
    for arm in rig.arms:
        result.problems += [p for client in arm.clients for p in client.problems]
        result.problems += verify_live_set(collections, arm)
        result.attempted += arm.total("attempted")
        result.failed += arm.total("failed")
        arm.close()
    rig.children.stop()
    problems, recover_ms = verify_recovery(rig.children.data_dir,
                                           rig.proxied.total("acked_writes"))
    result.problems += problems
    return recover_ms


def run_untraced(name: str, seed: int, schedule: Schedule) -> Result:
    """The end-to-end metrics of one workload."""
    setups: list[float] = []
    rig: Rig | None = None
    for _ in range(schedule.setups):
        if rig is not None:
            rig.close()
        started = time.perf_counter()
        rig = Rig(name, seed, traced=False)
        setups.append(time.perf_counter() - started)
    assert rig is not None
    with rig:
        result = Result(name, seed, False, rig.workload.digest, rig.workload.why)
        result.put("setup_s", setups)
        arm = rig.proxied
        arm.window(schedule.warmup)
        ports = list(rig.children["proxy"].ports.values()) + [arm.api_port]
        before, _ = scrape(ports)
        forwarded_before = arm.total("forwarded")
        per_window = [window_values(arm.window(schedule.window))
                      for _ in range(schedule.windows)]
        after, _ = scrape(ports)
        forwarded = arm.total("forwarded") - forwarded_before
        denied = [v["deny_rtt_p50_ms"] for v in per_window if "deny_rtt_p50_ms" in v]
        if not denied:
            # No attacks in the mix: time-to-deny comes from short
            # bursts of fresh malicious bodies after the windows (after
            # the scrape, so they do not count into the hit ratio).
            for _ in range(schedule.probes):
                logs = arm.window(schedule.probe, deny=True)
                denied.append(_p50_ms([r for log in logs for r in log.deny_rtts]))
        result.put("deny_rtt_p50_ms", denied)
        for name in ("rtt_p50_ms", "rtt_p95_ms", "throughput_rps"):
            result.put(name, [v[name] for v in per_window])
        result.metrics["rtt_p50_ms"]["samples_per_window"] = [v["samples"] for v in per_window]
        _finish(rig, result, delta(before, after), forwarded)
    return result


def run_traced(name: str, seed: int, schedule: Schedule) -> Result:
    """The per-layer metrics of one workload."""
    from benchmarks.e2e import layers

    with Rig(name, seed, traced=True) as rig:
        result = Result(name, seed, True, rig.workload.digest, rig.workload.why)
        proxied, direct = rig.proxied, rig.direct
        assert direct is not None
        window = schedule.window
        proxied.window(schedule.warmup / 2)
        direct.window(schedule.warmup / 2)
        ports = list(rig.children["proxy"].ports.values()) + [proxied.api_port]

        sample = [r.wire for r in rig.workload.clients[0].cycle[:64]]
        floor_us = floor_rtt_p50_us(rig.children["echo"].ports["echo"], sample)
        if not floor_us < 1000.0:
            result.problems.append(
                f"client floor RTT p50 is {floor_us:.0f} us (>= 1 ms): the harness, "
                "not the program, would dominate what it reports")

        reference, _ = measured_window(rig, proxied, window)
        untraced_p50 = _p50_ms([r for log in reference for r in log.forwarded_rtts])

        scrape_ms: list[float] = []
        series = dict.fromkeys(_SERIES, 0.0)
        forwarded = 0
        p_logs: list[list[WindowLog]] = []
        d_logs: list[list[WindowLog]] = []
        cpu = {"apiserver": 0, "proxy": 0}
        for _ in range(schedule.traced_pairs):
            before, took = scrape(ports)
            scrape_ms += took
            forwarded_before = proxied.total("forwarded")
            logs, used = measured_window(rig, proxied, window, traced=True)
            after, took = scrape(ports)
            scrape_ms += took
            for key, value in delta(before, after).items():
                series[key] += value
            forwarded += proxied.total("forwarded") - forwarded_before
            for role in cpu:
                cpu[role] += used[role]
            p_logs.append(logs)
            d_logs.append(measured_window(rig, direct, window, traced=True)[0])

        def per_window(groups: list[list[WindowLog]], pick: Any) -> list[float]:
            return [_p50_ms([pick(s) for log in logs for s in log.stamps]) for logs in groups]

        def forwarded_p50(groups: list[list[WindowLog]]) -> list[float]:
            return [_p50_ms([r for log in logs for r in log.forwarded_rtts]) for logs in groups]

        proxied_p50 = forwarded_p50(p_logs)
        direct_p50 = forwarded_p50(d_logs)
        result.put("client.ttfb_ms", per_window(p_logs, lambda s: s[2] - s[0]))
        result.put("client.body_gap_ms", per_window(p_logs, lambda s: s[3] - s[2]))
        result.put("client.send_us", [v * 1e3 for v in per_window(p_logs, lambda s: s[1] - s[0])])
        result.put("client.floor_rtt_us", [floor_us])
        result.put("k8s.http.direct_rtt_p50_ms", direct_p50)
        result.put("k8s.http.direct_body_gap_ms", per_window(d_logs, lambda s: s[3] - s[2]))
        result.put("k8s.http.saturated_503",
                   [float(sum(log.saturated for logs in p_logs + d_logs for log in logs))])
        added = [p - d for p, d in zip(proxied_p50, direct_p50)]
        result.put("core.proxy.added_rtt_p50_ms", added)
        result.put("core.proxy.overhead_pct",
                   [100.0 * a / d for a, d in zip(added, direct_p50)])
        result.put("core.proxy.cache_hit_ratio", [_hit_ratio(series)])
        result.put("core.proxy.upstream_conns_opened",
                   [series["kubefence_connections_opened_total"]])
        result.put("core.proxy.retries", [series["kubefence_retries_total"]])
        result.put("core.proxy.degraded", [series["kubefence_degraded_requests_total"]])
        done = sum(len(log.rtts) for logs in p_logs for log in logs)
        result.put("core.proxy.cpu_ms_per_req", [_ms(cpu["proxy"]) / done])
        result.put("k8s.apiserver.cpu_ms_per_req", [_ms(cpu["apiserver"]) / forwarded])
        for role, metric in (("proxy", "core.proxy.rss_mib"),
                             ("apiserver", "k8s.apiserver.rss_mib")):
            result.put(metric, [rig.children[role].stats()["rss_kib"] / 1024.0])
        result.put("obs.metrics_scrape_ms", scrape_ms)
        traced_p50 = M.median(proxied_p50)
        result.put("trace.overhead_pct", [100.0 * (traced_p50 - untraced_p50) / untraced_p50])

        replay = layers.replay(rig.workload, rig.children.work / "replay")
        for metric_name, values in replay.values.items():
            result.put(metric_name, values)
        handle_ms = replay.handle_mix_us / 1e3
        gate_ms = replay.gate_mix_us / 1e3
        result.put("k8s.http.server_hop_self_ms", [d - handle_ms for d in direct_p50])
        result.put("core.proxy.hop_self_ms", [a - gate_ms for a in added])
        compute_ms = replay.blocking_compute_us / 1e3
        result.put("budget.compute_share", [compute_ms / traced_p50])
        # A forwarded request crosses two socket hops, each at least
        # the echo floor; what is left is neither compute nor wire.
        result.put("budget.unattributed_ms",
                   [traced_p50 - compute_ms - 2 * floor_us / 1e3])

        result.spans = _client_spans(p_logs, "proxied") + _client_spans(d_logs, "direct")
        result.spans += replay.spans
        recover_ms = _finish(rig, result, series, forwarded)
        result.put("k8s.store.recover_ms", [recover_ms])
    return result


def _client_spans(groups: list[list[WindowLog]], arm: str) -> list[dict[str, Any]]:
    spans: list[dict[str, Any]] = []
    for w, logs in enumerate(groups):
        for c, log in enumerate(logs):
            for i, (t0, t_sent, t_first, t_last) in enumerate(log.stamps):
                request = f"{arm}-w{w}-c{c}-{i}"
                for name, start, end, parent in (
                    ("client.request", t0, t_last, None),
                    ("client.send", t0, t_sent, "client.request"),
                    ("client.wait_first_byte", t_sent, t_first, "client.request"),
                    ("client.body_gap", t_first, t_last, "client.request"),
                ):
                    spans.append({"name": name, "start_ns": start, "end_ns": end,
                                  "parent": parent, "request": request})
    return spans


def write_spans(result: Result) -> Path:
    """Spans stay in memory during the run; this writes them at exit."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace_{result.workload}.jsonl"
    with open(path, "w") as out:
        for span in result.spans:
            out.write(json.dumps(span) + "\n")
    return path


def client_floor_us() -> float:
    """Launch only the echo child and measure the client's own floor
    (``test_e2e.py`` requires it to be under a millisecond)."""
    from benchmarks.e2e.serve import Child

    echo = Child("echo")
    try:
        port = echo.await_ports()["echo"]
        body = b'{"kind": "ConfigMap", "data": {"k": "' + b"v" * 1024 + b'"}}'
        return floor_rtt_p50_us(port, [wire_request("PUT", "/echo", "bench", body)])
    finally:
        echo.stop()
