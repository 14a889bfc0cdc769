"""The system under test as child processes, and their launcher.

Run as a script this file is one child::

    python serve.py apiserver --data-dir D   HttpApiServer over a durable Cluster
    python serve.py rbac      --data-dir D   the same with the audit2rbac policy
                                             (the direct, Table IV "RBAC" arm)
    python serve.py proxy                    five HttpKubeFenceProxy, one per operator
    python serve.py echo                     single-send echo server (harness floor)

A child prints one JSON line with its bound ports, then answers
``stats`` lines on stdin with its CPU time and peak RSS until it gets
SIGTERM or stdin closes.  It then flushes what is durable (the store's
WAL) and exits at once: its server threads are daemons, and joining
them would cost ``serve_forever``'s 0.5 s poll per server on every one
of the benchmark's set-ups.  The proxy child reads its upstream URL
from stdin first, so it can generate its policies while the API server
is still starting.

Imported, :class:`Children` launches them with **every ``REPRO_*``
variable scrubbed** (production defaults: sharded cache, compiled
validator, WAL ``batch`` fsync, telemetry and the 67 Hz profiler on),
polls ``/readyz``, and on close sends SIGTERM, kills after 5 s and
removes the data directories.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
#: Everything a run writes lives here (inside the checkout, ignored by git).
WORK = HERE / ".work"

TERM_GRACE_S = 5.0
START_TIMEOUT_S = 60.0


# -- child side ---------------------------------------------------------------


def _peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _serve_until_term(announce: dict[str, Any], flush: Any = None) -> None:
    """Announce the ports, then answer ``stats`` until told to stop;
    *flush* runs last (whatever must reach disk before exit)."""

    def on_term(_signum: int, _frame: Any) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, on_term)
    try:
        print(json.dumps({**announce, "pid": os.getpid()}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps({"cpu_ns": time.process_time_ns(),
                                  "rss_kib": _peak_rss_kib()}), flush=True)
    finally:
        if flush is not None:
            flush()


def _learn_rbac_policy() -> Any:
    """audit2rbac over one benign install/reconcile/read/uninstall of
    every operator -- the verbs the workloads use, and nothing else."""
    from repro.helm.chart import render_chart
    from repro.k8s.apiserver import ApiRequest, Cluster, User
    from repro.operators import OPERATOR_NAMES, get_chart
    from repro.rbac import RBACPolicy, infer_policy

    policy = RBACPolicy()
    for name in OPERATOR_NAMES:
        cluster = Cluster()
        user = User(f"{name}-operator")
        for manifest in render_chart(get_chart(name), release_name="learn"):
            for verb in ("create", "update", "get", "list", "delete"):
                request = ApiRequest.from_manifest(manifest, user, verb)
                if verb == "list":
                    request.name = None
                cluster.api.handle(request)
        learned = infer_policy(cluster.api.audit_log, user.username)
        policy.roles.extend(learned.roles)
        policy.bindings.extend(learned.bindings)
    return policy


def _child_apiserver(data_dir: str, rbac: bool) -> None:
    from repro.k8s.apiserver import Cluster
    from repro.k8s.http import HttpApiServer

    authorizer = None
    if rbac:
        from repro.rbac import RBACAuthorizer

        authorizer = RBACAuthorizer(_learn_rbac_policy())
    cluster = Cluster(data_dir=data_dir, fsync=None, authorizer=authorizer)
    server = HttpApiServer(cluster.api).start()
    _serve_until_term({"ports": {"api": server.address[1]}}, cluster.store.close)


def _child_proxy() -> None:
    from repro.core.pipeline import generate_policy
    from repro.core.proxy import HttpKubeFenceProxy
    from repro.operators import OPERATOR_NAMES, get_chart

    validators = {name: generate_policy(get_chart(name)) for name in OPERATOR_NAMES}
    upstream = sys.stdin.readline().strip()
    proxies = {
        name: HttpKubeFenceProxy(upstream, validator).start()
        for name, validator in validators.items()
    }
    ports = {name: int(p.base_url.rsplit(":", 1)[1]) for name, p in proxies.items()}
    _serve_until_term({"ports": ports})


def _child_echo() -> None:
    """Replies ``200`` with the request body, head and body in one send."""
    import socket
    import threading

    listener = socket.create_server(("127.0.0.1", 0))

    def serve(conn: socket.socket) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buf = b""
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, rest = buf.partition(b"\r\n\r\n")
                at = head.lower().find(b"content-length:")
                length = int(head[at + 15:].split(b"\r", 1)[0]) if at >= 0 else 0
                while len(rest) < length:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    rest += chunk
                body, buf = rest[:length], rest[length:]
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
                )

    def accept() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    threading.Thread(target=accept, daemon=True).start()
    _serve_until_term({"ports": {"echo": listener.getsockname()[1]}})


def main(argv: list[str]) -> int:
    role = argv[0] if argv else ""
    data_dir = argv[2] if len(argv) == 3 and argv[1] == "--data-dir" else ""
    if role in ("apiserver", "rbac") and data_dir:
        _child_apiserver(data_dir, rbac=role == "rbac")
    elif role == "proxy":
        _child_proxy()
    elif role == "echo":
        _child_echo()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


# -- launcher side ------------------------------------------------------------


def scrubbed_env() -> dict[str, str]:
    """The parent's environment without any ``REPRO_*`` knob, with the
    repo's ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """One launched role: its process, ports and stats pipe."""

    def __init__(self, role: str, data_dir: Path | None = None):
        self.role = role
        argv = [sys.executable, str(Path(__file__).resolve()), role]
        if data_dir is not None:
            data_dir.mkdir(parents=True, exist_ok=True)
            argv += ["--data-dir", str(data_dir)]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=scrubbed_env(), cwd=str(REPO), text=True, bufsize=1,
        )
        self.ports: dict[str, int] = {}
        self.pid = self.proc.pid

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def read_json(self, timeout_s: float = START_TIMEOUT_S) -> dict[str, Any]:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"{self.role} child gave no answer (exit code {self.proc.poll()})"
            )
        return json.loads(line)

    def await_ports(self) -> dict[str, int]:
        self.ports = self.read_json()["ports"]
        return self.ports

    def stats(self) -> dict[str, int]:
        """``{"cpu_ns": user+sys of all threads, "rss_kib": VmHWM}``."""
        self.send("stats")
        return self.read_json(timeout_s=10.0)

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL after the grace period; always reaps."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=TERM_GRACE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass


class Children:
    """The launched topology: ``apiserver`` + ``proxy``, and on the
    traced pass also ``rbac`` (direct arm) and ``echo`` (floor)."""

    _serial = 0

    def __init__(self, traced: bool = False):
        """Spawn every child at once, so interpreter start-up, imports
        and policy generation overlap (and overlap with whatever the
        caller does before :meth:`await_ready`)."""
        Children._serial += 1
        self.work = WORK / f"run-{os.getpid()}-{Children._serial}"
        self.by_role: dict[str, Child] = {}
        try:
            self.by_role["apiserver"] = Child("apiserver", self.work / "apiserver")
            self.by_role["proxy"] = Child("proxy")
            if traced:
                self.by_role["rbac"] = Child("rbac", self.work / "rbac")
                self.by_role["echo"] = Child("echo")
        except BaseException:
            self.close()
            raise

    def await_ready(self) -> "Children":
        """Wire the proxy to the API server, then poll every
        ``/readyz`` until it is green."""
        from benchmarks.e2e.client import wait_ready

        try:
            api_port = self.by_role["apiserver"].await_ports()["api"]
            self.by_role["proxy"].send(f"http://127.0.0.1:{api_port}")
            for role, child in self.by_role.items():
                if role != "apiserver":
                    child.await_ports()
            for role, child in self.by_role.items():
                if role != "echo":
                    for port in child.ports.values():
                        wait_ready(port)
        except BaseException:
            self.close()
            raise
        return self

    def __getitem__(self, role: str) -> Child:
        return self.by_role[role]

    @property
    def data_dir(self) -> Path:
        return self.work / "apiserver"

    def stop(self) -> None:
        """Stop every child (idempotent); data directories stay for
        the recovery check until :meth:`close`."""
        for child in self.by_role.values():
            child.stop()

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
