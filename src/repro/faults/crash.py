"""Process-level chaos: SIGKILL a real API-server child at commit
points and prove recovery invariants across kill/restart cycles.

The wire-level injector (:mod:`repro.faults.injector`) mauls requests;
this module kills the *process*.  A supervised child runs a durable
:class:`~repro.k8s.http.HttpApiServer` (WAL-backed store, see
:mod:`repro.k8s.wal`); the injector picks a commit point and ordinal
(``pre-append:3``), the child arms the crash-point hook from
:data:`~repro.k8s.wal.CRASH_POINT_ENV` and SIGKILLs *itself* the
moment that point is reached — which is how "kill at an
injector-chosen commit point" is made exactly reproducible (a parent
racing ``kill(2)`` against a syscall is not).

Each :func:`run_crashtest` cycle: restart the child (recovery), verify
the recovered store against the ledger of acknowledged writes, issue a
seeded write sequence until the armed kill fires, then probe the
blackout window through two KubeFence proxies (one per degraded mode).
Three invariants, tallied in :class:`CrashReport`:

1. **No acknowledged write is ever lost** — every write the client saw
   a 2xx for (and every write that reached ``post-append``, i.e. was
   durably logged) is present after recovery with the exact content
   and resourceVersion it was acknowledged at.
2. **No unacknowledged write is ever resurrected** — a write killed at
   ``pre-append`` (or refused while the server was dark) never
   appears after recovery.
3. **The proxy never serves a fail-open allow during the blackout** —
   hostile writes are denied (403) locally, benign writes are refused
   (503) fail-closed, and fail-static serves stale GETs only to the
   identity that originally warmed them.

``repro crashtest`` drives this and exits 1 on any violation.
"""

from __future__ import annotations

import argparse
import http.client
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.k8s.wal import CRASH_POINTS, CRASH_POINT_ENV

__all__ = [
    "CrashInjector",
    "CrashReport",
    "KillSpec",
    "SupervisedApiServer",
    "render_crash_report",
    "run_crashtest",
]

#: Extra writes attempted after the armed kill ordinal: guaranteed to
#: hit a dead server, so every cycle contributes never-accepted writes
#: to the resurrection check even when the kill lands on the last
#: in-range write.
GHOST_WRITES = 2


# ---------------------------------------------------------------------------
# Child process (the supervised server)
# ---------------------------------------------------------------------------


def _child_serve(args: argparse.Namespace) -> int:
    """Entry point of the supervised child: recover the durable store,
    serve it over HTTP, arm the crash point, wait for SIGTERM."""
    from repro.k8s.apiserver import APIServer
    from repro.k8s.http import HttpApiServer
    from repro.k8s.store import ObjectStore
    from repro.k8s.wal import arm_crashpoint

    store = ObjectStore.recover(
        args.data_dir, fsync=args.fsync or None, compact_every=args.compact_every
    )
    api = APIServer(store=store)
    server = HttpApiServer(api, host=args.host, port=args.port)
    # Arm only once the server exists: recovery itself is never killed
    # mid-replay by the spec (the spec counts live write commits).
    arm_crashpoint(os.environ.get(CRASH_POINT_ENV))
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    with server:
        stop.wait()
    store.close()
    return 0


class SupervisedApiServer:
    """Parent-side supervisor for a durable API-server child process.

    The child is spawned with ``python -m repro.faults.crash --serve``
    against a fixed port (so proxies pointed at it survive restarts)
    and a fixed data directory (so every restart is a recovery).
    ``start(crash_spec=...)`` arms the commit-point kill; the child
    then SIGKILLs itself mid-write and :meth:`wait_dead` reaps it.
    """

    def __init__(
        self,
        data_dir: str | Path,
        port: int,
        host: str = "127.0.0.1",
        fsync: str = "batch",
        compact_every: int | None = None,
    ):
        self.data_dir = Path(data_dir)
        self.host = host
        self.port = port
        self.fsync = fsync
        self.compact_every = compact_every
        self._proc: subprocess.Popen[bytes] | None = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def start(self, crash_spec: str | None = None, timeout: float = 15.0) -> None:
        if self.alive():
            raise RuntimeError("child already running")
        env = dict(os.environ)
        env.pop(CRASH_POINT_ENV, None)
        if crash_spec:
            env[CRASH_POINT_ENV] = crash_spec
        # Make repro importable in the child even when the parent was
        # launched from an installed path.
        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        cmd = [
            sys.executable, "-m", "repro.faults.crash", "--serve",
            "--host", self.host,
            "--port", str(self.port),
            "--data-dir", str(self.data_dir),
            "--fsync", self.fsync,
        ]
        if self.compact_every is not None:
            cmd += ["--compact-every", str(self.compact_every)]
        self._proc = subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self._wait_ready(timeout)

    def _wait_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        url = self.base_url + "/readyz"
        while time.monotonic() < deadline:
            if not self.alive():
                code = self._proc.returncode if self._proc else None
                raise RuntimeError(f"crashtest child exited during startup (rc={code})")
            try:
                with urllib.request.urlopen(url, timeout=0.5):
                    return
            except urllib.error.HTTPError:
                return  # any HTTP response means the server is up
            except (urllib.error.URLError, OSError):
                time.sleep(0.02)
        raise RuntimeError(f"crashtest child not ready within {timeout}s")

    def wait_dead(self, timeout: float = 15.0) -> int:
        """Block until the child exits (it SIGKILLs itself at the armed
        commit point); returns the exit code and reaps the zombie."""
        if self._proc is None:
            raise RuntimeError("child was never started")
        try:
            return self._proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # pragma: no cover - harness bug guard
            raise RuntimeError(
                "crashtest child did not die at the armed commit point "
                f"within {timeout}s"
            ) from exc

    def kill(self) -> None:
        """Parent-initiated SIGKILL (used for teardown, not for the
        deterministic commit-point kills)."""
        if self.alive():
            assert self._proc is not None
            self._proc.kill()
            self._proc.wait(timeout=10)

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful SIGTERM shutdown (flushes and closes the WAL)."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait(timeout=10)
        self._proc = None


# ---------------------------------------------------------------------------
# Kill scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KillSpec:
    """One cycle's kill: SIGKILL on the ``nth`` hit of ``point``."""

    point: str
    nth: int

    @property
    def spec(self) -> str:
        return f"{self.point}:{self.nth}"


class CrashInjector:
    """Seeded chooser of (commit point, write ordinal) per cycle —
    one rng draw per decision, so schedules are reproducible."""

    def __init__(self, seed: int, writes_per_cycle: int,
                 points: tuple[str, ...] = CRASH_POINTS):
        if writes_per_cycle < 1:
            raise ValueError("writes_per_cycle must be >= 1")
        self._rng = random.Random(seed)
        self._writes = writes_per_cycle
        self._points = points

    def next_kill(self) -> KillSpec:
        point = self._rng.choice(self._points)
        nth = self._rng.randint(1, self._writes)
        return KillSpec(point, nth)


# ---------------------------------------------------------------------------
# The scenario suite
# ---------------------------------------------------------------------------


@dataclass
class CrashReport:
    """Tallies across N kill/restart cycles (see module docstring for
    the three invariants ``survived`` asserts)."""

    seed: int
    cycles: int
    writes_per_cycle: int
    fsync: str
    schedule: list[str] = field(default_factory=list)
    writes_attempted: int = 0
    writes_acked: int = 0
    kills: dict[str, int] = field(default_factory=dict)
    recoveries: int = 0
    recovered_records: int = 0
    #: Invariant 1 violations: acknowledged writes missing after
    #: recovery, or present with the wrong content/resourceVersion.
    lost_writes: int = 0
    corrupted_writes: int = 0
    #: Invariant 2 violations: never-acknowledged writes that appeared.
    resurrected_writes: int = 0
    #: Invariant 3 violations: any blackout-window allow that should
    #: not exist (admitted hostile write, 2xx benign write against a
    #: dead upstream, cross-identity stale read).
    fail_open: int = 0
    blackout_denials: int = 0
    blackout_writes_refused: int = 0
    stale_reads_served: int = 0
    stale_reads_refused: int = 0
    wall_time_s: float = 0.0

    @property
    def survived(self) -> bool:
        return (
            self.lost_writes == 0
            and self.corrupted_writes == 0
            and self.resurrected_writes == 0
            and self.fail_open == 0
            and self.recoveries >= self.cycles
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "cycles": self.cycles,
            "writes_per_cycle": self.writes_per_cycle,
            "fsync": self.fsync,
            "schedule": list(self.schedule),
            "writes_attempted": self.writes_attempted,
            "writes_acked": self.writes_acked,
            "kills": dict(self.kills),
            "recoveries": self.recoveries,
            "recovered_records": self.recovered_records,
            "lost_writes": self.lost_writes,
            "corrupted_writes": self.corrupted_writes,
            "resurrected_writes": self.resurrected_writes,
            "fail_open": self.fail_open,
            "blackout_denials": self.blackout_denials,
            "blackout_writes_refused": self.blackout_writes_refused,
            "stale_reads_served": self.stale_reads_served,
            "stale_reads_refused": self.stale_reads_refused,
            "wall_time_s": round(self.wall_time_s, 3),
            "survived": self.survived,
        }


def _probe_free_port(host: str = "127.0.0.1") -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _configmap(name: str, seq: int, cycle: int) -> dict[str, Any]:
    return {
        "apiVersion": "v1",
        "kind": "ConfigMap",
        "metadata": {"name": name, "namespace": "default"},
        "data": {"seq": str(seq), "cycle": str(cycle)},
    }


def _try_create(client: Any, manifest: dict[str, Any]) -> tuple[int | None, Any]:
    """A create whose transport may die mid-request (that's the point).
    Returns (status, body); status None = no usable HTTP response, i.e.
    the write was never acknowledged to this client."""
    try:
        return client.create(manifest)
    except (urllib.error.URLError, OSError, EOFError, http.client.HTTPException):
        return None, None


_REPLAYED_RE = re.compile(
    r"^kubefence_recovery_replayed_total\s+([0-9.eE+-]+)\s*$", re.MULTILINE
)


def _scrape_replayed(base_url: str) -> int:
    """Best-effort read of the child's recovery counter (0 when the
    observability layer is disabled)."""
    try:
        with urllib.request.urlopen(base_url + "/metrics", timeout=2) as resp:
            text = resp.read().decode()
    except (urllib.error.URLError, OSError, ValueError):
        return 0
    match = _REPLAYED_RE.search(text)
    return int(float(match.group(1))) if match else 0


class _Ledger:
    """Parent-side ground truth: what must (and must not) exist."""

    def __init__(self) -> None:
        #: name -> {"seq": str, "rv": str | None}; rv None = durable but
        #: client-unconfirmed (post-append kill) until first verified.
        self.present: dict[str, dict[str, Any]] = {}
        self.absent: list[str] = []

    def verify(self, admin: Any, report: CrashReport) -> None:
        for name, want in self.present.items():
            status, body = admin.get("ConfigMap", name)
            if status != 200:
                report.lost_writes += 1
                continue
            if body.get("data", {}).get("seq") != want["seq"]:
                report.corrupted_writes += 1
                continue
            rv = body.get("metadata", {}).get("resourceVersion")
            if want["rv"] is None:
                want["rv"] = rv  # learned at first recovery; pinned after
            elif rv != want["rv"]:
                report.corrupted_writes += 1
        for name in self.absent:
            status, _ = admin.get("ConfigMap", name)
            if status == 200:
                report.resurrected_writes += 1


def run_crashtest(
    chart: Any,
    validator: Any,
    seed: int = 1337,
    cycles: int = 10,
    writes_per_cycle: int = 6,
    data_dir: str | Path | None = None,
    fsync: str = "batch",
    compact_every: int = 32,
    host: str = "127.0.0.1",
) -> CrashReport:
    """Run the full kill/restart scenario suite (see module docstring)."""
    from repro.core.proxy import HttpKubeFenceProxy
    from repro.faults.scenarios import hostile_mutations
    from repro.helm.chart import render_chart
    from repro.k8s.http import HttpClient
    from repro.resilience import ResilienceConfig, RetryPolicy

    manifests = render_chart(chart)
    workload = next(m for m in manifests if m["kind"] == "Deployment")
    service = next(m for m in manifests if m["kind"] == "Service")
    service_name = service["metadata"]["name"]
    service_path = f"/api/v1/namespaces/default/services/{service_name}"

    retry = RetryPolicy(max_attempts=2, base_delay=0.001, max_delay=0.01)
    fail_closed_cfg = ResilienceConfig(
        retry=retry, request_timeout=2.0, request_deadline=4.0,
        failure_threshold=3, recovery_timeout=0.05,
    )
    fail_static_cfg = ResilienceConfig(
        retry=retry, request_timeout=2.0, request_deadline=4.0,
        failure_threshold=3, recovery_timeout=0.05,
        degraded_mode="fail-static", read_cache_ttl=600.0,
    )

    report = CrashReport(
        seed=seed, cycles=cycles, writes_per_cycle=writes_per_cycle, fsync=fsync,
    )
    injector = CrashInjector(seed, writes_per_cycle)
    started = time.perf_counter()

    own_dir = data_dir is None
    root = Path(data_dir) if data_dir else Path(
        tempfile.mkdtemp(prefix="kubefence-crashtest-")
    )
    supervisor = SupervisedApiServer(
        root, _probe_free_port(host), host=host, fsync=fsync,
        compact_every=compact_every,
    )
    fail_closed = HttpKubeFenceProxy(
        supervisor.base_url, validator, resilience=fail_closed_cfg
    ).start()
    fail_static = HttpKubeFenceProxy(
        supervisor.base_url, validator, resilience=fail_static_cfg
    ).start()
    admin = HttpClient(supervisor.base_url)
    operator = HttpClient(fail_closed.base_url, username="nginx-operator")
    attacker = HttpClient(fail_closed.base_url, username="eve", groups=())
    ledger = _Ledger()
    seq = 0

    def stale_get(user: str, groups: str) -> tuple[int, str]:
        req = urllib.request.Request(
            fail_static.base_url + service_path,
            headers={"X-Remote-User": user, "X-Remote-Groups": groups},
        )
        try:
            with urllib.request.urlopen(req, timeout=5) as resp:
                return resp.status, resp.headers.get("X-KubeFence-Degraded", "")
        except urllib.error.HTTPError as err:
            return err.code, err.headers.get("X-KubeFence-Degraded", "")

    try:
        # Setup: unarmed child, install the service, warm the
        # fail-static read cache for exactly one identity.
        supervisor.start()
        status, body = operator.apply(service)
        if not 200 <= status < 300:
            raise RuntimeError(f"setup service install failed: {status} {body}")
        warm_status, _ = stale_get("nginx-operator", "system:masters")
        if warm_status != 200:
            raise RuntimeError(f"stale-cache warm GET failed: {warm_status}")
        supervisor.stop()

        for cycle in range(cycles):
            kill = injector.next_kill()
            report.schedule.append(kill.spec)
            report.kills[kill.point] = report.kills.get(kill.point, 0) + 1

            # Restart = recovery; then check every prior cycle's ledger.
            supervisor.start(crash_spec=kill.spec)
            report.recoveries += 1
            report.recovered_records += _scrape_replayed(supervisor.base_url)
            ledger.verify(admin, report)

            # Seeded write sequence; the child SIGKILLs itself at the
            # armed commit point.  GHOST_WRITES extra attempts land on
            # the corpse so every cycle feeds the resurrection check.
            for i in range(1, writes_per_cycle + GHOST_WRITES + 1):
                seq += 1
                name = f"wal-cm-{cycle:02d}-{i:02d}"
                manifest = _configmap(name, seq, cycle)
                status, body = _try_create(admin, manifest)
                report.writes_attempted += 1
                if status is not None and 200 <= status < 300:
                    report.writes_acked += 1
                    ledger.present[name] = {
                        "seq": str(seq),
                        "rv": body["metadata"]["resourceVersion"],
                    }
                elif i == kill.nth and kill.point == "post-append":
                    # Durably logged, never acknowledged to the client:
                    # recovery MUST restore it (append == commit).  The
                    # resourceVersion is pinned at first verification.
                    ledger.present[name] = {"seq": str(seq), "rv": None}
                else:
                    # pre-append kill, or the server was already dead:
                    # never accepted, must never reappear.
                    ledger.absent.append(name)

            supervisor.wait_dead()

            # Blackout window: the upstream is a corpse.  Invariant 3.
            for bad in hostile_mutations(workload):
                status, _ = attacker.apply(bad)
                if status is not None and 200 <= status < 300:
                    report.fail_open += 1
                elif status == 403:
                    report.blackout_denials += 1
            status, _ = operator.apply(service)
            if status is not None and 200 <= status < 300:
                report.fail_open += 1
            else:
                report.blackout_writes_refused += 1
            status, degraded = stale_get("nginx-operator", "system:masters")
            if status == 200 and degraded.startswith("stale-read"):
                report.stale_reads_served += 1
            elif status == 200:
                report.fail_open += 1  # a 200 from a dead upstream?!
            status, _ = stale_get("eve", "system:masters")
            if status == 200:
                report.fail_open += 1  # cross-identity stale read
            else:
                report.stale_reads_refused += 1

        # Final recovery: everything acknowledged across all cycles
        # must still be there; everything refused must still be gone.
        supervisor.start()
        report.recoveries += 1
        report.recovered_records += _scrape_replayed(supervisor.base_url)
        ledger.verify(admin, report)
        supervisor.stop()
    finally:
        supervisor.stop()
        fail_closed.stop()
        fail_static.stop()
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)

    report.wall_time_s = time.perf_counter() - started
    return report


def render_crash_report(report: CrashReport) -> str:
    """Human-readable summary (the ``repro crashtest`` output)."""
    lines = [
        "KubeFence crash/restart durability report",
        "=" * 41,
        f"seed {report.seed} | {report.cycles} kill/restart cycles | "
        f"{report.writes_per_cycle}+{GHOST_WRITES} writes/cycle | "
        f"fsync={report.fsync}",
        f"kill schedule: {', '.join(report.schedule)}",
        "",
        f"writes attempted        {report.writes_attempted}",
        f"writes acknowledged     {report.writes_acked}",
        f"recoveries              {report.recoveries}",
        f"WAL records replayed    {report.recovered_records}",
        "",
        f"lost acknowledged       {report.lost_writes}",
        f"corrupted on recovery   {report.corrupted_writes}",
        f"resurrected unacked     {report.resurrected_writes}",
        f"fail-open decisions     {report.fail_open}",
        "",
        f"blackout denials (403)  {report.blackout_denials}",
        f"blackout refusals (5xx) {report.blackout_writes_refused}",
        f"stale reads served      {report.stale_reads_served} "
        f"(identity-scoped; {report.stale_reads_refused} cross-identity refused)",
        f"wall time               {report.wall_time_s:.2f}s",
        "",
        "VERDICT: " + ("SURVIVED (crash-only invariants hold)"
                       if report.survived else "FAILED"),
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Child entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="supervised durable API-server child (internal; "
                    "spawned by the crashtest harness)"
    )
    parser.add_argument("--serve", action="store_true", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--fsync", default="")
    parser.add_argument("--compact-every", type=int, default=None)
    return _child_serve(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
