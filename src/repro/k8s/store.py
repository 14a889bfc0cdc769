"""An etcd-like versioned object store.

The store keeps Kubernetes objects keyed by ``(kind, namespace, name)``
with a monotonically increasing cluster-wide ``resourceVersion``,
optimistic-concurrency checks on update, and an event stream that
watchers consume (a simplified watch).

All operations are guarded by a reentrant lock so HTTP worker threads,
watchers and the CVE scanner loop can share one store:
:meth:`ObjectStore.snapshot` gives readers a torn-read-free view —
every write that returned before the snapshot call is included.

Durability (crash-only operation) is layered in via
:mod:`repro.k8s.wal`: a store opened through :meth:`ObjectStore.recover`
appends every create/update/delete to a write-ahead log *before*
mutating memory or acknowledging the caller, periodically compacts
into an atomic snapshot, and on restart replays snapshot + WAL back to
the exact last-acknowledged revision.  A store built without a data
directory stays purely in memory (see docs/RESILIENCE.md, "Durability
& crash recovery").
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.k8s.errors import ApiError
from repro.k8s.objects import K8sObject
from repro.k8s.wal import (
    SNAPSHOT_NAME,
    WAL_NAME,
    WalError,
    WriteAheadLog,
    crashpoint,
    load_snapshot,
    write_snapshot,
)

#: Appends between automatic compacting snapshots (override with the
#: env var; 0 disables auto-compaction).
COMPACT_EVERY_ENV = "REPRO_WAL_COMPACT_EVERY"
DEFAULT_COMPACT_EVERY = 1024


def _env_compact_every() -> int:
    raw = os.environ.get(COMPACT_EVERY_ENV, "")
    try:
        return int(raw) if raw else DEFAULT_COMPACT_EVERY
    except ValueError:
        return DEFAULT_COMPACT_EVERY


@dataclass(frozen=True)
class StoreEvent:
    """One watch event: ADDED, MODIFIED or DELETED."""

    type: str
    obj: K8sObject
    resource_version: int


@dataclass
class RecoveryInfo:
    """What :meth:`ObjectStore.recover` rebuilt, for observability."""

    path: str
    revision: int
    snapshot_objects: int
    replayed: int
    truncated_bytes: int
    torn_reason: str | None
    duration_s: float
    #: Set once an APIServer has published the ``kind="recovery"``
    #: SecurityEvent for this recovery (so restarts announce exactly
    #: once, no matter how many servers front the store).
    announced: bool = False


class ObjectStore:
    """In-memory versioned store with watch semantics and an optional
    write-ahead log for crash-only durability."""

    #: Consecutive watch-callback failures before the watcher is
    #: detached (mirrors ``EventBus.MAX_SUBSCRIBER_ERRORS``).
    MAX_WATCHER_ERRORS = 8

    def __init__(
        self,
        wal: WriteAheadLog | None = None,
        compact_every: int | None = None,
    ) -> None:
        self._objects: dict[tuple[str, str, str], K8sObject] = {}
        self._revision = 0
        self._watchers: list[Callable[[StoreEvent], None]] = []
        # Reentrant: watch callbacks fire under the lock and may
        # re-enter the store.
        self._lock = threading.RLock()
        self._wal = wal
        self._compact_every = (
            compact_every if compact_every is not None else _env_compact_every()
        )
        self._appends_since_compact = 0
        #: Compacting snapshots taken over this store's lifetime.
        self.compactions = 0
        #: Populated by :meth:`recover`; ``None`` for a fresh store.
        self.recovery: RecoveryInfo | None = None
        #: Watch callbacks that raised out of a committed write (total),
        #: and watchers detached for failing repeatedly.
        self.watcher_errors = 0
        self.dropped_watchers = 0
        self._watcher_failures: dict[int, int] = {}
        # Bound by bind_metrics(); plain counters above always work.
        self._m_watcher_errors: Any | None = None
        self._m_wal_appends: Any | None = None

    # -- durability --------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log (``None`` = in-memory store)."""
        return self._wal

    @property
    def durable(self) -> bool:
        return self._wal is not None

    @classmethod
    def recover(
        cls,
        path: str | Path,
        fsync: str | None = None,
        compact_every: int | None = None,
    ) -> "ObjectStore":
        """Rebuild a store from ``path`` (a data directory) and attach
        its WAL for further appends.

        Replays the compacted snapshot, then every complete WAL record
        — restoring the exact last-acknowledged revision.  A torn tail
        (an append interrupted mid-write, i.e. never acknowledged) is
        truncated, never half-applied.
        """
        data_dir = Path(path)
        started = time.perf_counter()
        snap_revision, snap_objects = load_snapshot(data_dir / SNAPSHOT_NAME)
        wal = WriteAheadLog(data_dir / WAL_NAME, fsync=fsync)
        store = cls(wal=wal, compact_every=compact_every)
        with store._lock:
            store._revision = snap_revision
            for data in snap_objects:
                obj = K8sObject(data)
                store._objects[obj.key()] = obj
            for record in wal.recovered:
                store._apply_record(record)
        store.recovery = RecoveryInfo(
            path=str(data_dir),
            revision=store._revision,
            snapshot_objects=len(snap_objects),
            replayed=len(wal.recovered),
            truncated_bytes=wal.truncated_bytes,
            torn_reason=wal.torn_reason,
            duration_s=time.perf_counter() - started,
        )
        return store

    def _apply_record(self, record: dict[str, Any]) -> None:
        """Replay one WAL record (idempotent: replaying a prefix twice
        — e.g. snapshot taken, crash before WAL reset — converges)."""
        op = record.get("op")
        revision = int(record.get("rev", self._revision + 1))
        if op in ("create", "update"):
            obj = K8sObject(record["obj"])
            self._objects[obj.key()] = obj
        elif op == "delete":
            key = record["key"]
            self._objects.pop((key[0], key[1], key[2]), None)
        else:
            raise WalError(f"unknown WAL op {op!r}")
        self._revision = max(self._revision, revision)

    def _log(
        self,
        op: str,
        revision: int,
        obj: K8sObject | None = None,
        key: tuple[str, str, str] | None = None,
    ) -> None:
        """Append-before-ack: runs under the store lock, before the
        in-memory mutation, the watch emit, and the caller's return.
        The crash points bracketing the append are no-ops outside the
        chaos child (see :mod:`repro.k8s.wal`)."""
        wal = self._wal
        if wal is None:
            return
        crashpoint("pre-append")
        record: dict[str, Any] = {"op": op, "rev": revision}
        if obj is not None:
            record["obj"] = obj.data
        if key is not None:
            record["key"] = list(key)
        wal.append(record)
        if self._m_wal_appends is not None:
            self._m_wal_appends.inc()
        crashpoint("post-append")
        self._appends_since_compact += 1

    def _maybe_compact_locked(self) -> None:
        """Auto-compaction trigger.  Must run *after* the in-memory
        mutation: compacting from inside :meth:`_log` would snapshot a
        state that misses the write that tripped the threshold and then
        reset the WAL holding its record -- losing an acknowledged
        write."""
        if (
            self._wal is not None
            and self._compact_every
            and self._appends_since_compact >= self._compact_every
        ):
            self._compact_locked()

    def compact(self) -> None:
        """Persist an atomic snapshot of the current state and truncate
        the WAL (no-op for in-memory stores)."""
        with self._lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        wal = self._wal
        if wal is None:
            return
        write_snapshot(
            wal.path.with_name(SNAPSHOT_NAME),
            self._revision,
            [obj.data for obj in self._objects.values()],
        )
        wal.reset()
        self._appends_since_compact = 0
        self.compactions += 1

    def close(self) -> None:
        """Flush and close the WAL (safe to call on in-memory stores)."""
        if self._wal is not None:
            self._wal.close()

    def bind_metrics(self, registry: Any) -> None:
        """Register this store's counters on a metrics registry (the
        fronting APIServer's, so they land on its /metrics surface)."""
        self._m_watcher_errors = registry.counter(
            "kubefence_watcher_errors_total",
            "Watch callbacks that raised out of an already-committed write "
            "(caught and counted; repeat offenders are detached).",
        )
        self._m_wal_appends = registry.counter(
            "kubefence_wal_appends_total",
            "Records appended to the store's write-ahead log.",
        )
        if self._wal is not None and self._wal.appends:
            self._m_wal_appends.inc(self._wal.appends)
        if self.recovery is not None:
            registry.counter(
                "kubefence_recovery_replayed_total",
                "WAL records replayed during crash recovery.",
            ).inc(self.recovery.replayed)
            registry.gauge(
                "kubefence_recovery_duration_seconds",
                "Wall-clock seconds the last snapshot+WAL replay took.",
            ).set(self.recovery.duration_s)

    # -- versioning --------------------------------------------------------

    @property
    def revision(self) -> int:
        """Current cluster-wide resource version."""
        with self._lock:
            return self._revision

    # -- CRUD --------------------------------------------------------------

    def create(self, obj: K8sObject) -> K8sObject:
        with self._lock:
            key = obj.key()
            if key in self._objects:
                raise ApiError.conflict(obj.kind, obj.name)
            stored = obj.copy()
            revision = self._revision + 1
            stored.metadata["resourceVersion"] = str(revision)
            stored.metadata.setdefault("uid", f"uid-{revision:08d}")
            # WAL first: memory mutates (and the caller is acknowledged)
            # only once the record is durable.
            self._log("create", revision, obj=stored)
            self._revision = revision
            self._objects[key] = stored
            self._maybe_compact_locked()
            self._emit(StoreEvent("ADDED", stored.copy(), revision))
            return stored.copy()

    def get(self, kind: str, namespace: str, name: str) -> K8sObject:
        with self._lock:
            try:
                return self._objects[(kind, namespace, name)].copy()
            except KeyError:
                raise ApiError.not_found(kind, name) from None

    def exists(self, kind: str, namespace: str, name: str) -> bool:
        with self._lock:
            return (kind, namespace, name) in self._objects

    def update(self, obj: K8sObject, check_version: bool = False) -> K8sObject:
        with self._lock:
            key = obj.key()
            if key not in self._objects:
                raise ApiError.not_found(obj.kind, obj.name)
            if check_version:
                current = self._objects[key]
                if obj.resource_version is not None and obj.resource_version != current.resource_version:
                    raise ApiError.conflict(
                        obj.kind,
                        obj.name,
                        message=(
                            f"Operation cannot be fulfilled on {obj.kind} {obj.name!r}: "
                            "the object has been modified"
                        ),
                    )
            stored = obj.copy()
            # Preserve the uid assigned at creation time.
            stored.metadata["uid"] = self._objects[key].metadata.get("uid")
            revision = self._revision + 1
            stored.metadata["resourceVersion"] = str(revision)
            self._log("update", revision, obj=stored)
            self._revision = revision
            self._objects[key] = stored
            self._maybe_compact_locked()
            self._emit(StoreEvent("MODIFIED", stored.copy(), revision))
            return stored.copy()

    def delete(self, kind: str, namespace: str, name: str) -> K8sObject:
        with self._lock:
            key = (kind, namespace, name)
            if key not in self._objects:
                raise ApiError.not_found(kind, name)
            obj = self._objects[key].copy()
            revision = self._revision + 1
            # The deletion bumps the cluster revision; stamp it into
            # the returned object so the DELETED event and the response
            # body agree on the resourceVersion of the deletion.
            obj.metadata["resourceVersion"] = str(revision)
            self._log("delete", revision, key=key)
            self._objects.pop(key)
            self._revision = revision
            self._maybe_compact_locked()
            self._emit(StoreEvent("DELETED", obj.copy(), revision))
            return obj

    def list(self, kind: str, namespace: str | None = None) -> list[K8sObject]:
        with self._lock:
            out = [
                o.copy()
                for (k, ns, _), o in self._objects.items()
                if k == kind and (namespace is None or ns == namespace)
            ]
        out.sort(key=lambda o: (o.namespace, o.name))
        return out

    def all_objects(self) -> Iterator[K8sObject]:
        with self._lock:
            items = [obj.copy() for obj in self._objects.values()]
        yield from items

    def snapshot(self) -> tuple[int, list[K8sObject]]:
        """Atomic ``(revision, objects)`` view of the store.

        Any write whose call returned before ``snapshot()`` was entered
        is guaranteed to be reflected — the contract the scanner relies
        on to never miss an object committed before a scan tick.
        """
        with self._lock:
            return self._revision, [o.copy() for o in self._objects.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)

    # -- watch -------------------------------------------------------------

    def watch(self, callback: Callable[[StoreEvent], None]) -> Callable[[], None]:
        """Register a watcher; returns an unsubscribe function."""
        with self._lock:
            self._watchers.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                if callback in self._watchers:
                    self._watchers.remove(callback)
                self._watcher_failures.pop(id(callback), None)

        return unsubscribe

    def _emit(self, event: StoreEvent) -> None:
        # The write is already committed (and, when durable, already in
        # the WAL) by the time watchers run: a raising callback must not
        # propagate — the caller would believe the write failed — nor
        # starve the remaining watchers.  Mirror the EventBus contract:
        # catch, count, detach after MAX_WATCHER_ERRORS consecutive
        # failures.
        for watcher in list(self._watchers):
            try:
                watcher(event)
            except Exception:
                self._note_watcher_failure(watcher)
            else:
                self._watcher_failures.pop(id(watcher), None)

    def _note_watcher_failure(self, watcher: Callable[[StoreEvent], None]) -> None:
        self.watcher_errors += 1
        if self._m_watcher_errors is not None:
            self._m_watcher_errors.inc()
        count = self._watcher_failures.get(id(watcher), 0) + 1
        self._watcher_failures[id(watcher)] = count
        if count >= self.MAX_WATCHER_ERRORS:
            try:
                self._watchers.remove(watcher)
            except ValueError:
                pass
            else:
                self.dropped_watchers += 1
            self._watcher_failures.pop(id(watcher), None)
