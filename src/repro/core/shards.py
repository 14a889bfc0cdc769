"""Sharded, low-contention decision cache for the enforcement hot path.

A single ``OrderedDict`` LRU is correct under the GIL, but every worker
thread funnels through the same structure, and every hit mutates the
shared recency list.  Under sustained multi-identity load that one
structure is the contention point of the whole data plane.

:class:`ShardedDecisionCache` splits the key space across N independent
LRU shards:

- **Shard selection** hashes the body fingerprint
  (:func:`fast_body_key`'s marshal bytes, so distinct manifests spread
  uniformly) and masks into a power-of-two shard count -- one dict
  probe, no modulo.
- **Lock-free read fast path.**  Entries are stored as
  ``(revision, result)`` pairs, so a reader never needs the shard lock
  to prove freshness: a single GIL-atomic ``dict.get`` plus a tuple
  compare either yields a result judged under the caller's exact
  policy revision or misses.  A revision bump can therefore never
  serve a stale decision, even while another thread is mid-clear --
  the tag check is per entry, not per shard.
- **Per-shard write locks.**  Misses and LRU maintenance take only
  their shard's lock; writers on different shards never serialize
  against each other.
- **Opportunistic recency.**  A hit refreshes its LRU position only
  when the shard lock is free (``acquire(blocking=False)``); under
  contention the hit simply returns -- recency decays toward FIFO
  instead of readers queuing behind writers.
"""

from __future__ import annotations

import marshal
import threading
from collections import OrderedDict
from typing import Any

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "ShardedDecisionCache",
    "fast_body_key",
]

#: Default shard count: enough to spread a handful of worker threads
#: without fragmenting small caches (power of two for mask selection).
DEFAULT_SHARD_COUNT = 8


def fast_body_key(body: Any) -> bytes | None:
    """The decision cache's fingerprint: C-speed ``marshal`` bytes.

    ``marshal.dumps`` is ~10x cheaper than a canonical-JSON digest
    (``json.dumps(sort_keys=True)`` plus a hash) and *collision-free*:
    it is a deterministic serializer, so two bodies producing the same
    bytes decode to equal values.  It is however **order-sensitive** -- equal dicts with
    different key insertion order fingerprint differently.  That only
    costs a cache miss (the body is re-validated, decisions stay
    identical), and API-server clients resubmitting a manifest send it
    byte-identical anyway.  Returns ``None`` for unmarshallable bodies
    (not cached).

    Marshal **version 2** specifically: versions >= 3 add object
    *instancing* (shared/interned objects serialize as backreferences),
    which makes the bytes depend on object identity -- two equal
    bodies fingerprint differently just because one shares substructure
    the other duplicates.  Version 2 is purely structural.
    """
    try:
        return marshal.dumps(body, 2)
    except (ValueError, TypeError):
        return None


class _Shard:
    """One independent LRU segment with its own write lock."""

    __slots__ = ("maxsize", "lock", "entries")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.lock = threading.Lock()
        #: key -> (revision, result); OrderedDict for LRU order.
        self.entries: "OrderedDict[Any, tuple[Any, Any]]" = OrderedDict()


class ShardedDecisionCache:
    """N independent revision-tagged LRU shards.

    Capacity is divided across shards (each shard holds
    ``ceil(maxsize / shards)`` entries), so worst-case memory is that
    of one ``maxsize``-entry cache.  Revision freshness is carried per
    entry, which is what makes the read path lock-free: there is no
    shard-wide revision cell a reader could observe mid-update.
    """

    def __init__(self, maxsize: int = 1024, shards: int = DEFAULT_SHARD_COUNT):
        if maxsize <= 0:
            raise ValueError("ShardedDecisionCache maxsize must be positive")
        if shards <= 0 or shards & (shards - 1):
            raise ValueError("shard count must be a positive power of two")
        self.maxsize = maxsize
        per_shard = (maxsize + shards - 1) // shards
        self._mask = shards - 1
        self._shards = tuple(_Shard(per_shard) for _ in range(shards))

    @property
    def shard_count(self) -> int:
        return self._mask + 1

    def _shard_for(self, key: Any) -> _Shard:
        return self._shards[hash(key) & self._mask]

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()

    def get(self, key: Any, revision: Any) -> Any | None:
        """Lock-free lookup: one dict probe plus a revision-tag compare.

        The LRU touch is opportunistic -- taken only when the shard
        lock happens to be free -- so readers never block behind a
        writer on another key.
        """
        shard = self._shard_for(key)
        entry = shard.entries.get(key)
        if entry is None or entry[0] != revision:
            return None
        if shard.lock.acquire(blocking=False):
            try:
                shard.entries.move_to_end(key)
            except KeyError:
                pass  # evicted between the probe and the touch
            finally:
                shard.lock.release()
        return entry[1]

    def put(self, key: Any, result: Any, revision: Any) -> None:
        shard = self._shard_for(key)
        with shard.lock:
            entries = shard.entries
            entries[key] = (revision, result)
            entries.move_to_end(key)
            while len(entries) > shard.maxsize:
                entries.popitem(last=False)
