"""Sharded decision cache unit tests plus the concurrency hammer.

The hammer is the coherence contract for the lock-free read fast path:
under concurrent hits, misses, and revision invalidations, a ``get``
may miss spuriously but must **never** return a result judged under a
different policy revision than the caller's.
"""

import threading
import time

import pytest

from repro.core.proxy import ProxyStats, ValidationGate
from repro.core.shards import (
    DEFAULT_SHARD_COUNT,
    ShardedDecisionCache,
    fast_body_key,
)


class TestFastBodyKey:
    def test_equal_bodies_equal_keys(self):
        a = {"kind": "Pod", "spec": {"containers": [{"name": "c"}]}}
        b = {"kind": "Pod", "spec": {"containers": [{"name": "c"}]}}
        assert fast_body_key(a) == fast_body_key(b)

    def test_distinct_bodies_distinct_keys(self):
        a = {"kind": "Pod", "replicas": 1}
        b = {"kind": "Pod", "replicas": 2}
        assert fast_body_key(a) != fast_body_key(b)

    def test_returns_bytes(self):
        assert isinstance(fast_body_key({"kind": "Pod"}), bytes)

    def test_unmarshallable_body_returns_none(self):
        assert fast_body_key({"bad": object()}) is None

    def test_key_order_sensitivity_is_miss_not_collision(self):
        # Different insertion order MAY fingerprint differently -- the
        # contract is only that equal keys imply equal bodies.
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        ka, kb = fast_body_key(a), fast_body_key(b)
        if ka == kb:  # pragma: no cover - marshal implementation detail
            assert a == b


class TestShardedDecisionCache:
    def test_roundtrip(self):
        cache = ShardedDecisionCache(maxsize=16)
        cache.put("k", "allowed", revision=1)
        assert cache.get("k", revision=1) == "allowed"

    def test_revision_mismatch_misses(self):
        cache = ShardedDecisionCache(maxsize=16)
        cache.put("k", "allowed", revision=1)
        assert cache.get("k", revision=2) is None

    def test_new_revision_overwrites(self):
        cache = ShardedDecisionCache(maxsize=16)
        cache.put("k", "old", revision=1)
        cache.put("k", "new", revision=2)
        assert cache.get("k", revision=2) == "new"
        assert cache.get("k", revision=1) is None

    def test_miss_on_absent_key(self):
        assert ShardedDecisionCache(maxsize=16).get("nope", 1) is None

    def test_clear_and_len(self):
        cache = ShardedDecisionCache(maxsize=64)
        for i in range(10):
            cache.put(f"k{i}", i, revision=1)
        assert len(cache) == 10
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k0", 1) is None

    def test_lru_eviction_bounded(self):
        cache = ShardedDecisionCache(maxsize=8, shards=1)
        for i in range(20):
            cache.put(f"k{i}", i, revision=1)
        assert len(cache) == 8
        assert cache.get("k19", 1) == 19  # newest survives
        assert cache.get("k0", 1) is None  # oldest evicted

    def test_lru_hit_refreshes_recency(self):
        cache = ShardedDecisionCache(maxsize=2, shards=1)
        cache.put("a", 1, revision=1)
        cache.put("b", 2, revision=1)
        assert cache.get("a", 1) == 1  # touch: a newest
        cache.put("c", 3, revision=1)  # evicts b, not a
        assert cache.get("a", 1) == 1
        assert cache.get("b", 1) is None

    def test_hit_returns_even_while_shard_lock_held(self):
        # The opportunistic touch must not turn reads into blockers.
        cache = ShardedDecisionCache(maxsize=16, shards=1)
        cache.put("k", "v", revision=1)
        shard = cache._shards[0]
        with shard.lock:
            assert cache.get("k", revision=1) == "v"

    def test_capacity_split_across_shards(self):
        cache = ShardedDecisionCache(maxsize=64, shards=8)
        assert cache.shard_count == 8
        assert all(s.maxsize == 8 for s in cache._shards)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="maxsize"):
            ShardedDecisionCache(maxsize=0)
        with pytest.raises(ValueError, match="power of two"):
            ShardedDecisionCache(maxsize=16, shards=3)
        with pytest.raises(ValueError, match="power of two"):
            ShardedDecisionCache(maxsize=16, shards=0)


class TestFactory:
    def test_default_is_sharded(self, nginx_validator):
        cache = ValidationGate(nginx_validator, ProxyStats()).cache
        assert isinstance(cache, ShardedDecisionCache)
        assert cache.shard_count == DEFAULT_SHARD_COUNT

    def test_explicit_shard_count(self):
        assert ShardedDecisionCache(128, shards=2).shard_count == 2


class TestGateWiring:
    def test_gate_uses_sharded_cache_and_fast_key(
        self, nginx_validator, nginx_deployment
    ):
        gate = ValidationGate(nginx_validator, ProxyStats())
        gate.check(nginx_deployment)
        revision = (id(nginx_validator), nginx_validator.policy_revision)
        assert gate.cache.get(fast_body_key(nginx_deployment), revision).allowed


class TestHammer:
    """Satellite: concurrent hits/misses/revision invalidations.

    Results stored in the cache encode the revision they were judged
    under; every hit must hand back a result tagged with exactly the
    revision the reader asked for.  Runs ~0.4s with 6 reader/writer
    threads plus a dedicated revision bumper.
    """

    def test_no_stale_revision_decision_under_concurrency(self):
        cache = ShardedDecisionCache(maxsize=128, shards=4)
        keys = [f"body-{i}" for i in range(48)]
        revision_cell = [0]
        stop = threading.Event()
        violations: list[tuple] = []

        def churn():
            local: list[tuple] = []
            while not stop.is_set():
                revision = revision_cell[0]
                for key in keys:
                    hit = cache.get(key, revision)
                    if hit is not None and hit != ("decision", revision):
                        local.append((key, revision, hit))
                    cache.put(key, ("decision", revision), revision)
            violations.extend(local)

        def bump():
            while not stop.is_set():
                revision_cell[0] += 1
                time.sleep(0.002)

        workers = [threading.Thread(target=churn, daemon=True) for _ in range(6)]
        bumper = threading.Thread(target=bump, daemon=True)
        for thread in (*workers, bumper):
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in (*workers, bumper):
            thread.join(timeout=5)
            assert not thread.is_alive()

        assert violations == []
        assert len(cache) <= cache.maxsize
