"""Unit tests for the etcd-like versioned store."""

import pytest

from repro.k8s.errors import ApiError
from repro.k8s.objects import K8sObject
from repro.k8s.store import ObjectStore


def make_pod(name: str, namespace: str = "default") -> K8sObject:
    return K8sObject.make("v1", "Pod", name, namespace=namespace, spec={"containers": []})


class TestCrud:
    def test_create_assigns_version_and_uid(self):
        store = ObjectStore()
        stored = store.create(make_pod("a"))
        assert stored.resource_version == 1
        assert stored.metadata["uid"].startswith("uid-")

    def test_create_duplicate_conflicts(self):
        store = ObjectStore()
        store.create(make_pod("a"))
        with pytest.raises(ApiError) as excinfo:
            store.create(make_pod("a"))
        assert excinfo.value.code == 409

    def test_same_name_different_namespace_ok(self):
        store = ObjectStore()
        store.create(make_pod("a", "ns1"))
        store.create(make_pod("a", "ns2"))
        assert len(store) == 2

    def test_get_returns_copy(self):
        store = ObjectStore()
        store.create(make_pod("a"))
        first = store.get("Pod", "default", "a")
        first.data["spec"]["mutated"] = True
        second = store.get("Pod", "default", "a")
        assert "mutated" not in second.data["spec"]

    def test_get_missing_raises_404(self):
        with pytest.raises(ApiError) as excinfo:
            ObjectStore().get("Pod", "default", "nope")
        assert excinfo.value.code == 404

    def test_update_bumps_version_preserves_uid(self):
        store = ObjectStore()
        created = store.create(make_pod("a"))
        uid = created.metadata["uid"]
        updated = store.update(make_pod("a"))
        assert updated.resource_version == 2
        assert updated.metadata["uid"] == uid

    def test_update_missing_raises(self):
        with pytest.raises(ApiError):
            ObjectStore().update(make_pod("ghost"))

    def test_optimistic_concurrency_conflict(self):
        store = ObjectStore()
        store.create(make_pod("a"))
        stale = store.get("Pod", "default", "a")
        store.update(make_pod("a"))  # bumps version
        with pytest.raises(ApiError) as excinfo:
            store.update(stale, check_version=True)
        assert excinfo.value.code == 409

    def test_delete(self):
        store = ObjectStore()
        store.create(make_pod("a"))
        store.delete("Pod", "default", "a")
        assert not store.exists("Pod", "default", "a")

    def test_delete_missing_raises(self):
        with pytest.raises(ApiError):
            ObjectStore().delete("Pod", "default", "x")

    def test_list_filters_and_sorts(self):
        store = ObjectStore()
        for name in ("b", "a"):
            store.create(make_pod(name))
        store.create(K8sObject.make("v1", "Service", "svc"))
        pods = store.list("Pod")
        assert [p.name for p in pods] == ["a", "b"]
        assert store.list("Pod", namespace="other") == []


class TestWatch:
    def test_events_emitted_in_order(self):
        store = ObjectStore()
        events = []
        store.watch(lambda e: events.append((e.type, e.obj.name)))
        store.create(make_pod("a"))
        store.update(make_pod("a"))
        store.delete("Pod", "default", "a")
        assert events == [("ADDED", "a"), ("MODIFIED", "a"), ("DELETED", "a")]

    def test_unsubscribe(self):
        store = ObjectStore()
        events = []
        unsubscribe = store.watch(lambda e: events.append(e))
        store.create(make_pod("a"))
        unsubscribe()
        store.create(make_pod("b"))
        assert len(events) == 1

    def test_revision_monotonically_increases(self):
        store = ObjectStore()
        revisions = []
        store.watch(lambda e: revisions.append(e.resource_version))
        for name in ("a", "b", "c"):
            store.create(make_pod(name))
        assert revisions == sorted(revisions)
        assert len(set(revisions)) == 3

    def test_watcher_gets_an_independent_copy(self):
        store = ObjectStore()
        events = []
        store.watch(events.append)
        store.create(make_pod("a"))
        store.update(make_pod("a"))
        store.create(make_pod("b"))
        deleted = store.delete("Pod", "default", "b")
        assert [e.type for e in events] == ["ADDED", "MODIFIED", "ADDED", "DELETED"]
        for event in events:
            event.obj.data["spec"]["mutated"] = True
        assert "mutated" not in store.get("Pod", "default", "a").data["spec"]
        assert "mutated" not in deleted.data["spec"]

    def test_no_watcher_no_event_copy(self, monkeypatch):
        """A write builds its watch event -- a deep copy -- only for a
        registered watcher."""
        copies = []
        original = K8sObject.copy
        monkeypatch.setattr(K8sObject, "copy",
                            lambda obj: copies.append(obj) or original(obj))

        def update_copies(store: ObjectStore) -> int:
            store.create(make_pod("a"))
            copies.clear()
            store.update(make_pod("a"))
            return len(copies)

        unwatched = update_copies(ObjectStore())
        watched_store = ObjectStore()
        watched_store.watch(lambda _event: None)
        assert unwatched == update_copies(watched_store) - 1


class TestDeleteRevision:
    def test_delete_stamps_deletion_revision(self):
        # Regression: delete() used to return the object with its
        # *pre-deletion* resourceVersion while the DELETED watch event
        # carried the bumped one -- response body and event disagreed.
        store = ObjectStore()
        store.create(make_pod("a"))  # rev 1
        store.create(make_pod("b"))  # rev 2
        events = []
        store.watch(lambda e: events.append(e))
        deleted = store.delete("Pod", "default", "a")  # rev 3
        assert deleted.resource_version == 3
        assert store.revision == 3
        event = events[-1]
        assert event.type == "DELETED"
        assert event.resource_version == 3
        assert event.obj.resource_version == deleted.resource_version


class TestWatcherFailureContainment:
    def test_raising_watcher_does_not_fail_the_write(self):
        # Regression: an exception out of a watch callback used to
        # propagate to the writer *after* the write had committed --
        # the caller saw a failure for a write that happened (the
        # store-level fail-open twin of the EventBus bug).
        store = ObjectStore()

        def bad(_event):
            raise RuntimeError("boom")

        seen = []
        store.watch(bad)
        store.watch(lambda e: seen.append(e.obj.name))
        created = store.create(make_pod("a"))
        assert created.resource_version == 1
        assert store.exists("Pod", "default", "a")
        assert seen == ["a"]  # later watchers are not starved
        assert store.watcher_errors == 1

    def test_repeat_offender_detached_after_threshold(self):
        store = ObjectStore()
        calls = []

        def bad(_event):
            calls.append(1)
            raise RuntimeError("boom")

        store.watch(bad)
        for i in range(store.MAX_WATCHER_ERRORS + 3):
            store.create(make_pod(f"p{i}"))
        assert len(calls) == store.MAX_WATCHER_ERRORS
        assert store.dropped_watchers == 1
        assert store.watcher_errors == store.MAX_WATCHER_ERRORS

    def test_success_resets_consecutive_count(self):
        store = ObjectStore()
        fail = True

        def flaky(_event):
            if fail:
                raise RuntimeError("boom")

        store.watch(flaky)
        for i in range(store.MAX_WATCHER_ERRORS - 1):
            store.create(make_pod(f"a{i}"))
        fail = False
        store.create(make_pod("ok"))
        fail = True
        for i in range(store.MAX_WATCHER_ERRORS - 1):
            store.create(make_pod(f"b{i}"))
        assert store.dropped_watchers == 0  # never hit the threshold twice

    def test_watcher_errors_land_on_bound_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = ObjectStore()
        store.bind_metrics(registry)
        store.watch(lambda e: (_ for _ in ()).throw(RuntimeError("boom")))
        store.create(make_pod("a"))
        assert registry.counter("kubefence_watcher_errors_total").value == 1
        assert "kubefence_watcher_errors_total 1" in registry.expose()
