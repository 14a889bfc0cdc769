"""Write-ahead log for the object store (crash-only durability).

The store's security argument assumes committed state survives faults:
audit baselines, scanner findings, and every admitted object must come
back after a crash exactly as they were acknowledged.  This module
provides the on-disk substrate:

- **Record framing** -- each record is a length-prefixed, CRC32-checked
  JSON document (``<u32 payload-len><u32 crc32><payload>\\n``).  The
  newline keeps the file greppable; the header makes torn writes
  detectable without trusting JSON parsing.
- **Torn-tail truncation** -- opening a WAL scans it front to back and
  truncates at the first invalid frame (short header, short payload,
  CRC mismatch, missing terminator).  A record is *acknowledged* iff
  its frame is complete on disk: the scan therefore restores exactly
  the acknowledged prefix and drops only the unacknowledged tail,
  never a half-applied record.
- **Fsync policy** (:data:`FSYNC_POLICIES`) -- every append is flushed
  to the OS (so acknowledged writes survive SIGKILL under every
  policy); ``always`` additionally fsyncs per append (power-loss
  safe), ``batch`` fsyncs every :data:`BATCH_FSYNC_EVERY` appends and
  on close, ``never`` leaves fsync to the OS.
- **Snapshots** -- :func:`write_snapshot` atomically (write-temp +
  ``os.replace``) persists a compacted ``{revision, objects}`` image
  using the same checked framing, so recovery replays snapshot + WAL
  suffix instead of the full history.

The module also hosts the **crash-point hook** used by the
process-level chaos harness (:mod:`repro.faults.crash`): a supervised
child arms :func:`arm_crashpoint` from :data:`CRASH_POINT_ENV` and the
store/HTTP layers call :func:`crashpoint` at the three commit points
(``pre-append``, ``post-append``, ``post-ack``); on the armed hit the
process SIGKILLs itself, which is how "kill at an injector-chosen
commit point" is made deterministic.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import threading
import zlib
from pathlib import Path
from typing import Any

__all__ = [
    "BATCH_FSYNC_EVERY",
    "CRASH_POINTS",
    "CRASH_POINT_ENV",
    "FSYNC_ENV",
    "FSYNC_POLICIES",
    "NO_WAL_ENV",
    "SNAPSHOT_NAME",
    "WAL_NAME",
    "WalError",
    "WriteAheadLog",
    "arm_crashpoint",
    "crashpoint",
    "encode_record",
    "load_snapshot",
    "scan_records",
    "write_snapshot",
]

#: ``<u32 payload length><u32 crc32(payload)>`` little-endian header.
_HEADER = struct.Struct("<II")

#: Record terminator: keeps the log line-oriented for humans/grep.
_TERMINATOR = b"\n"

#: Default file names inside a store data directory.
WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.json"

#: Supported fsync disciplines (see module docstring).
FSYNC_POLICIES = ("always", "batch", "never")
FSYNC_ENV = "REPRO_WAL_FSYNC"
DEFAULT_FSYNC = "batch"

#: Appends between fsyncs under the ``batch`` policy.
BATCH_FSYNC_EVERY = 64


class WalError(RuntimeError):
    """Unrecoverable WAL/snapshot problem (corrupt snapshot, bad op)."""


def encode_record(record: dict[str, Any]) -> bytes:
    """One framed record: header + compact JSON payload + newline."""
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload + _TERMINATOR


def scan_records(data: bytes) -> tuple[list[dict[str, Any]], int, str | None]:
    """Decode the acknowledged prefix of a WAL byte string.

    Returns ``(records, valid_bytes, torn_reason)``: every frame that
    passes length + CRC + terminator checks, the byte offset where the
    valid prefix ends, and why scanning stopped (``None`` for a clean
    end-of-file).  Everything past ``valid_bytes`` is the torn tail --
    by construction an append that never completed, i.e. a write the
    store never acknowledged.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    size = len(data)
    reason: str | None = None
    while offset < size:
        if size - offset < _HEADER.size:
            reason = "torn header"
            break
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        payload = data[start:start + length]
        if len(payload) < length:
            reason = "torn payload"
            break
        if zlib.crc32(payload) != crc:
            reason = "crc mismatch"
            break
        if data[start + length:start + length + 1] != _TERMINATOR:
            reason = "missing terminator"
            break
        try:
            record = json.loads(payload)
        except ValueError:
            reason = "undecodable payload"
            break
        if not isinstance(record, dict):
            reason = "non-object payload"
            break
        records.append(record)
        offset = start + length + 1
    return records, offset, reason


def _resolve_fsync(policy: str | None) -> str:
    resolved = policy or os.environ.get(FSYNC_ENV, "") or DEFAULT_FSYNC
    if resolved not in FSYNC_POLICIES:
        raise ValueError(
            f"unknown fsync policy {resolved!r} (expected one of {FSYNC_POLICIES})"
        )
    return resolved


class WriteAheadLog:
    """Append-only checked log with torn-tail truncation on open.

    Opening scans the existing file, keeps the acknowledged prefix in
    :attr:`recovered`, truncates the torn tail (recording
    :attr:`truncated_bytes` / :attr:`torn_reason`), and positions the
    handle for appends.  Thread-safe: appends serialize on an internal
    lock (the store's own lock already serializes callers, but the log
    must stay consistent even if shared).
    """

    def __init__(self, path: str | Path, fsync: str | None = None):
        self.path = Path(path)
        self.fsync_policy = _resolve_fsync(fsync)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = self.path.read_bytes() if self.path.exists() else b""
        self.recovered, valid_bytes, self.torn_reason = scan_records(existing)
        self.truncated_bytes = len(existing) - valid_bytes
        self._lock = threading.Lock()
        self._file = open(self.path, "r+b" if self.path.exists() else "w+b")
        self._file.truncate(valid_bytes)
        self._file.seek(valid_bytes)
        #: Records appended through this handle (not counting recovery).
        self.appends = 0
        self._since_fsync = 0
        self._closed = False

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record; returns only once the frame is
        flushed to the OS (and fsynced, per policy)."""
        frame = encode_record(record)
        with self._lock:
            self._file.write(frame)
            self._file.flush()
            self.appends += 1
            if self.fsync_policy == "always":
                os.fsync(self._file.fileno())
            elif self.fsync_policy == "batch":
                self._since_fsync += 1
                if self._since_fsync >= BATCH_FSYNC_EVERY:
                    os.fsync(self._file.fileno())
                    self._since_fsync = 0

    def sync(self) -> None:
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._since_fsync = 0

    def reset(self) -> None:
        """Truncate to empty (called after a compacting snapshot has
        been atomically persisted)."""
        with self._lock:
            self._file.truncate(0)
            self._file.seek(0)
            self._file.flush()
            if self.fsync_policy != "never":
                os.fsync(self._file.fileno())
            self._since_fsync = 0

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._file.flush()
            if self.fsync_policy != "never":
                try:
                    os.fsync(self._file.fileno())
                except OSError:  # pragma: no cover - fs teardown races
                    pass
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- snapshots --------------------------------------------------------------


def write_snapshot(path: str | Path, revision: int, objects: list[dict[str, Any]]) -> None:
    """Atomically persist a compacted store image.

    Write-temp + fsync + ``os.replace`` so a crash mid-snapshot can
    never be observed: either the previous snapshot or the new one is
    on disk, both CRC-framed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    frame = encode_record({"revision": revision, "objects": objects})
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(frame)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_snapshot(path: str | Path) -> tuple[int, list[dict[str, Any]]]:
    """Load a snapshot; ``(0, [])`` when none exists.

    A snapshot that exists but fails its CRC check is disk corruption
    (the write path is atomic), which recovery cannot paper over: that
    raises :class:`WalError` instead of silently dropping state.
    """
    path = Path(path)
    if not path.exists():
        return 0, []
    records, _, torn = scan_records(path.read_bytes())
    if not records:
        raise WalError(f"snapshot {path} is corrupt ({torn or 'empty'})")
    image = records[0]
    revision = int(image.get("revision", 0))
    objects = image.get("objects", [])
    if not isinstance(objects, list):
        raise WalError(f"snapshot {path} has a malformed object list")
    return revision, objects


# -- crash points (process-level chaos) -------------------------------------

#: The three commit points a durable write passes through, in order:
#: before the WAL append (nothing durable, nothing acknowledged),
#: after the append but before the client sees a response (durable,
#: client-unconfirmed), and after the HTTP response has been written
#: (durable and acknowledged).
CRASH_POINTS = ("pre-append", "post-append", "post-ack")

#: ``point:nth`` spec, e.g. ``post-append:3`` = SIGKILL on the third
#: time the post-append point is reached.
CRASH_POINT_ENV = "REPRO_CRASH_POINT"


class _CrashPoint:
    __slots__ = ("point", "target", "seen", "appends")

    def __init__(self, point: str, target: int):
        self.point = point
        self.target = target
        self.seen = 0
        self.appends = 0

    def hit(self, name: str) -> None:
        if self.point == "post-ack" and name == "pre-append":
            # An armed post-ack kill has a window: between the fatal
            # ack reaching the socket and the handler thread getting
            # scheduled to run its crashpoint, the client's *next*
            # write (sent the instant that ack lands) can be picked up
            # by another pool worker and become durable -- a write the
            # client will never see acknowledged, which recovery would
            # then "resurrect".  Once the armed ordinal's appends are
            # exhausted the kill is inevitable, so a further append
            # means that race was lost: die here, before anything
            # beyond the fatal ack hits the log.
            self.appends += 1
            if self.appends > self.target:
                os.kill(os.getpid(), signal.SIGKILL)
            return
        if name != self.point:
            return
        self.seen += 1
        if self.seen >= self.target:
            # SIGKILL, not sys.exit: the whole point is that no
            # cleanup, flush, or atexit hook runs -- the same fault
            # model as a kernel OOM-kill or power-cycled container.
            os.kill(os.getpid(), signal.SIGKILL)


_ARMED: _CrashPoint | None = None


def arm_crashpoint(spec: str | None) -> None:
    """Arm (or with ``None``/empty, disarm) the crash-point hook from a
    ``point:nth`` spec.  Only the chaos child process ever arms this."""
    global _ARMED
    if not spec:
        _ARMED = None
        return
    point, _, nth = spec.partition(":")
    if point not in CRASH_POINTS:
        raise ValueError(
            f"unknown crash point {point!r} (expected one of {CRASH_POINTS})"
        )
    target = int(nth) if nth else 1
    if target < 1:
        raise ValueError(f"crash-point ordinal must be >= 1, got {target}")
    _ARMED = _CrashPoint(point, target)


def crashpoint(name: str) -> None:
    """Commit-point marker: a no-op unless armed (one global read)."""
    armed = _ARMED
    if armed is not None:
        armed.hit(name)
