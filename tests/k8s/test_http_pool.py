"""Bounded worker-pool frontend tests: pool sizing, saturation
backpressure, and the start/stop lifecycle leak
regression (satellite: repeated cycles must leak neither threads nor
file descriptors)."""

import os
import threading
import urllib.request

from repro.k8s.apiserver import APIServer
from repro.k8s.http import (
    DEFAULT_HTTP_QUEUE,
    DEFAULT_HTTP_WORKERS,
    HTTP_QUEUE_ENV,
    HTTP_WORKERS_ENV,
    HttpApiServer,
    HttpClient,
    LISTEN_BACKLOG,
    WorkerPoolHTTPServer,
)

POD = {
    "apiVersion": "v1",
    "kind": "Pod",
    "metadata": {"name": "p", "namespace": "default"},
    "spec": {"containers": [{"name": "c", "image": "busybox"}]},
}


def _fd_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - non-Linux
        return None


class TestFactory:
    def test_default_is_worker_pool(self):
        server = HttpApiServer(APIServer())
        assert isinstance(server._httpd, WorkerPoolHTTPServer)
        server._httpd.server_close()

    def test_frontend_declares_lifecycle_knobs(self):
        assert WorkerPoolHTTPServer.allow_reuse_address is True
        assert WorkerPoolHTTPServer.request_queue_size == LISTEN_BACKLOG

    def test_pool_sizing_env(self, monkeypatch):
        monkeypatch.setenv(HTTP_WORKERS_ENV, "3")
        monkeypatch.setenv(HTTP_QUEUE_ENV, "5")
        httpd = WorkerPoolHTTPServer(("127.0.0.1", 0), None)
        assert httpd.workers == 3
        assert httpd._queue.maxsize == 5
        httpd.server_close()

    def test_pool_sizing_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv(HTTP_WORKERS_ENV, "garbage")
        monkeypatch.setenv(HTTP_QUEUE_ENV, "-4")
        httpd = WorkerPoolHTTPServer(("127.0.0.1", 0), None)
        assert httpd.workers == DEFAULT_HTTP_WORKERS
        assert httpd._queue.maxsize == DEFAULT_HTTP_QUEUE
        httpd.server_close()

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv(HTTP_WORKERS_ENV, "9")
        httpd = WorkerPoolHTTPServer(("127.0.0.1", 0), None, workers=2, queue_size=3)
        assert httpd.workers == 2
        assert httpd._queue.maxsize == 3
        httpd.server_close()


class TestWorkerPoolServing:
    def test_serves_rest_round_trip(self):
        with HttpApiServer(APIServer(), workers=2, queue_size=4) as server:
            client = HttpClient(server.base_url)
            status, body = client.create(POD)
            assert status == 201
            status, body = client.get("Pod", "p")
            assert status == 200
            assert body["metadata"]["name"] == "p"

    def test_pool_spawns_exactly_workers_threads(self):
        with HttpApiServer(APIServer(), workers=2, queue_size=4) as server:
            HttpClient(server.base_url).create(POD)  # forces pool start
            port = server.address[1]
            pool = [
                t for t in threading.enumerate()
                if t.name.startswith(f"http-pool-{port}-")
            ]
            assert len(pool) == 2

    def test_saturation_returns_503(self):
        # One worker, zero-size queue is not possible (queue.Queue(0) is
        # unbounded), so: 1 worker + queue of 1, with the worker wedged
        # by a connection that never completes its request.
        with HttpApiServer(APIServer(), workers=1, queue_size=1) as server:
            import http.client as http_client
            import time

            host, port = server.address
            pool_queue = server._httpd._queue

            def hold():
                # A partial request pins the handler in a blocking read.
                conn = http_client.HTTPConnection(host, port, timeout=10)
                conn.connect()
                conn.sock.sendall(
                    b"GET /api/v1/namespaces/default/pods HTTP/1.1\r\n"
                )
                return conn

            def wait_for(predicate):
                deadline = time.monotonic() + 5
                while not predicate():
                    assert time.monotonic() < deadline, "saturation setup stalled"
                    time.sleep(0.01)

            holders = []
            try:
                holders.append(hold())  # wedges the single worker
                # unfinished_tasks counts every put (task_done is never
                # called), so ==1 with an empty queue proves the worker
                # picked the connection up -- not that it never arrived.
                wait_for(
                    lambda: pool_queue.unfinished_tasks == 1
                    and pool_queue.qsize() == 0
                )
                holders.append(hold())  # parks in the hand-off queue
                wait_for(lambda: pool_queue.full())
                rejects_before = server._httpd.saturation_rejects
                # The next connection must be rejected on the accept path.
                probe = http_client.HTTPConnection(host, port, timeout=5)
                probe.request("GET", "/api/v1/namespaces/default/pods")
                response = probe.getresponse()
                assert response.status == 503
                assert b"ServerSaturated" in response.read()
                probe.close()
                assert server._httpd.saturation_rejects == rejects_before + 1
            finally:
                for conn in holders:
                    conn.close()


class TestLifecycle:
    """Satellite: repeated start()/stop() cycles leak nothing."""

    def test_cycles_leak_no_threads_or_fds(self):
        api = APIServer()

        def cycle():
            with HttpApiServer(api, workers=2, queue_size=4) as server:
                status, _ = HttpClient(server.base_url).get("Pod", "missing")
                assert status == 404

        cycle()  # settle imports, thread-locals, DNS caches
        before_threads = threading.active_count()
        before_fds = _fd_count()
        for _ in range(5):
            cycle()
        after_fds = _fd_count()
        assert threading.active_count() <= before_threads
        if before_fds is not None and after_fds is not None:
            assert after_fds <= before_fds

    def test_stop_joins_pool_workers(self):
        server = HttpApiServer(APIServer(), workers=3, queue_size=4).start()
        port = server.address[1]
        urllib.request.urlopen(server.base_url + "/healthz", timeout=5).read()
        assert any(
            t.name.startswith(f"http-pool-{port}-") for t in threading.enumerate()
        )
        server.stop()
        assert not any(
            t.name.startswith(f"http-pool-{port}-") for t in threading.enumerate()
        )

    def test_same_port_rebinds_immediately(self):
        # Bind-retry: another process can legitimately grab the port in
        # the stop->rebind window; that is a lost race, not a REUSEADDR
        # failure, so retry the whole cycle on a fresh ephemeral port.
        for attempt in range(3):
            server = HttpApiServer(APIServer()).start()
            port = server.address[1]
            server.stop()
            # SO_REUSEADDR: the port must be bindable straight away.
            try:
                rebound = HttpApiServer(APIServer(), port=port).start()
            except OSError:
                if attempt == 2:
                    raise
                continue
            assert rebound.address[1] == port
            rebound.stop()
            break
