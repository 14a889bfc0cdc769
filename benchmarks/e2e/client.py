"""The benchmark's HTTP client: a raw keep-alive socket.

``http.client`` and ``urllib`` write the request head and the body
with two ``send`` calls; against a peer that delays its ACK that alone
costs ~40 ms and the harness would be measuring itself.  This client
sets ``TCP_NODELAY`` and writes head and body with **one** ``sendall``,
then takes the timestamps the benchmark reports:

====== =====================================================
t0     before ``sendall``
t_sent after ``sendall`` returned          (traced pass only)
t_first after the first reply byte arrived (traced pass only)
t_last after the last body byte arrived
====== =====================================================

RTT is ``t_last - t0``.  :func:`floor_rtt_p50_us` measures the client
against the in-directory echo server (reply written with one send);
the traced pass and ``test_e2e.py`` require that floor to be under a
millisecond, so a stall the client reports belongs to the program
under test.
"""

from __future__ import annotations

import socket
import time

from benchmarks.e2e.metrics import percentile

_HEAD_END = b"\r\n\r\n"
_CONTENT_LENGTH = b"content-length:"
#: A reply slower than this is a failed request, not a slow one.
REPLY_TIMEOUT_S = 30.0


class ProtocolError(Exception):
    """The peer sent something that is not one HTTP/1.1 reply."""


def wire_request(method: str, path: str, user: str, body: bytes = b"",
                 groups: str = "operators") -> bytes:
    """Head and body of one request as the single buffer that is sent.

    The default group is not ``system:masters``, so the direct arm's
    RBAC authorizer evaluates its rules instead of taking the
    superuser bypass."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: kubefence-bench\r\n"
        "Content-Type: application/json\r\n"
        f"X-Remote-User: {user}\r\n"
        f"X-Remote-Groups: {groups}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode() + body


class Connection:
    """One keep-alive connection; reconnects lazily after an error."""

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.address = (host, port)
        self._sock: socket.socket | None = None

    def _socket(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=REPLY_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def exchange(self, wire: bytes) -> tuple[int, bytes, int, int, int, int]:
        """Send one request, read one reply.

        Returns ``(status, body, t0, t_sent, t_first, t_last)`` with
        ``perf_counter_ns`` stamps.  Any socket or framing error closes
        the connection (the next call reconnects) and re-raises as
        ``OSError`` / :class:`ProtocolError`.
        """
        sock = self._socket()
        perf = time.perf_counter_ns
        try:
            t0 = perf()
            sock.sendall(wire)
            t_sent = perf()
            buf = sock.recv(65536)
            t_first = perf()
            if not buf:
                raise ProtocolError("connection closed before a reply")
            while True:
                head_end = buf.find(_HEAD_END)
                if head_end >= 0:
                    break
                chunk = sock.recv(65536)
                if not chunk:
                    raise ProtocolError("connection closed inside the reply head")
                buf += chunk
            head = buf[:head_end]
            status = int(head[9:12])
            at = head.lower().find(_CONTENT_LENGTH)
            if at < 0:
                raise ProtocolError("reply without Content-Length")
            line_end = head.find(b"\r", at)
            length = int(head[at + len(_CONTENT_LENGTH): line_end if line_end >= 0 else None])
            body_start = head_end + 4
            have = len(buf) - body_start
            if have < length:
                parts = [buf[body_start:]]
                while have < length:
                    chunk = sock.recv(min(1 << 20, length - have))
                    if not chunk:
                        raise ProtocolError("connection closed inside the reply body")
                    parts.append(chunk)
                    have += len(chunk)
                body = b"".join(parts)
            else:
                body = buf[body_start: body_start + length]
            t_last = perf()
        except (OSError, ValueError, ProtocolError):
            self.close()
            raise
        return status, body, t0, t_sent, t_first, t_last


def wait_ready(port: int, timeout_s: float = 20.0) -> None:
    """Poll ``GET /readyz`` until it answers 200."""
    deadline = time.monotonic() + timeout_s
    probe = wire_request("GET", "/readyz", "bench-launcher")
    conn = Connection(port)
    try:
        while True:
            try:
                if conn.exchange(probe)[0] == 200:
                    return
            except (OSError, ProtocolError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise TimeoutError(f"port {port} not ready within {timeout_s:.0f}s")
            time.sleep(0.01)
    finally:
        conn.close()


def floor_rtt_p50_us(port: int, wires: list[bytes], seconds: float = 0.3) -> float:
    """Median closed-loop RTT (µs) of *wires* against the echo server:
    what the harness itself contributes to every RTT it reports."""
    conn = Connection(port)
    rtts: list[float] = []
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            _status, _body, t0, _sent, _first, t_last = conn.exchange(wires[i % len(wires)])
            rtts.append((t_last - t0) / 1e3)
            i += 1
    finally:
        conn.close()
    return percentile(sorted(rtts), 0.5)
