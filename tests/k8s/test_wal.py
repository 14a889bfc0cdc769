"""Unit tests for the write-ahead log and crash recovery.

The load-bearing property (satellite of the crash-only durability PR):
for *every* byte offset of the final WAL record, truncating or
corrupting the file there must leave ``ObjectStore.recover`` with a
clean prefix -- it never raises and never half-applies a record.
"""

import os

import pytest

from repro.k8s.objects import K8sObject
from repro.k8s.store import ObjectStore
from repro.k8s.wal import (
    BATCH_FSYNC_EVERY,
    CRASH_POINTS,
    FSYNC_POLICIES,
    SNAPSHOT_NAME,
    WAL_NAME,
    WalError,
    WriteAheadLog,
    arm_crashpoint,
    crashpoint,
    encode_record,
    load_snapshot,
    scan_records,
    write_snapshot,
)


def make_pod(name: str, namespace: str = "default") -> K8sObject:
    return K8sObject.make("v1", "Pod", name, namespace=namespace, spec={"containers": []})


class TestFraming:
    def test_roundtrip_multiple_records(self):
        records = [{"op": "create", "rev": i, "obj": {"n": i}} for i in range(5)]
        blob = b"".join(encode_record(r) for r in records)
        decoded, valid, torn = scan_records(blob)
        assert decoded == records
        assert valid == len(blob)
        assert torn is None

    def test_empty_is_clean(self):
        assert scan_records(b"") == ([], 0, None)

    def test_trailing_garbage_is_torn(self):
        blob = encode_record({"op": "create", "rev": 1})
        decoded, valid, torn = scan_records(blob + b"\x01\x02")
        assert len(decoded) == 1
        assert valid == len(blob)
        assert torn == "torn header"

    def test_non_object_payload_rejected(self):
        import json
        import struct
        import zlib

        payload = json.dumps([1, 2, 3]).encode()
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload + b"\n"
        decoded, valid, torn = scan_records(frame)
        assert decoded == []
        assert valid == 0
        assert torn == "non-object payload"


class TestWriteAheadLog:
    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_append_and_reopen(self, tmp_path, policy):
        path = tmp_path / WAL_NAME
        with WriteAheadLog(path, fsync=policy) as wal:
            for i in range(3):
                wal.append({"op": "create", "rev": i + 1})
            assert wal.appends == 3
        reopened = WriteAheadLog(path, fsync=policy)
        assert [r["rev"] for r in reopened.recovered] == [1, 2, 3]
        assert reopened.truncated_bytes == 0
        assert reopened.torn_reason is None
        reopened.close()

    def test_open_truncates_torn_tail(self, tmp_path):
        path = tmp_path / WAL_NAME
        with WriteAheadLog(path) as wal:
            wal.append({"op": "create", "rev": 1})
        clean = path.read_bytes()
        path.write_bytes(clean + encode_record({"op": "create", "rev": 2})[:-3])
        wal = WriteAheadLog(path)
        assert [r["rev"] for r in wal.recovered] == [1]
        assert wal.truncated_bytes > 0
        assert wal.torn_reason in ("torn payload", "missing terminator")
        # The tail is physically gone: appends go after the good prefix.
        wal.append({"op": "create", "rev": 2})
        wal.close()
        records, _, torn = scan_records(path.read_bytes())
        assert [r["rev"] for r in records] == [1, 2]
        assert torn is None

    def test_reset_empties_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_NAME)
        wal.append({"op": "create", "rev": 1})
        wal.reset()
        wal.close()
        assert (tmp_path / WAL_NAME).read_bytes() == b""

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / WAL_NAME, fsync="sometimes")

    def test_batch_constant_sane(self):
        assert BATCH_FSYNC_EVERY > 0


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / SNAPSHOT_NAME
        objects = [{"kind": "Pod", "metadata": {"name": "a"}}]
        write_snapshot(path, 7, objects)
        assert load_snapshot(path) == (7, objects)

    def test_missing_is_empty(self, tmp_path):
        assert load_snapshot(tmp_path / SNAPSHOT_NAME) == (0, [])

    def test_corrupt_snapshot_raises(self, tmp_path):
        path = tmp_path / SNAPSHOT_NAME
        write_snapshot(path, 1, [])
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(WalError):
            load_snapshot(path)

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / SNAPSHOT_NAME
        write_snapshot(path, 1, [])
        write_snapshot(path, 2, [{"kind": "Pod", "metadata": {"name": "x"}}])
        revision, objects = load_snapshot(path)
        assert revision == 2 and len(objects) == 1
        assert [p.name for p in tmp_path.iterdir()] == [SNAPSHOT_NAME]


def seed_store(data_dir) -> ObjectStore:
    """create a, create b, update a, delete b, create c -- a workload
    covering every WAL op, ending at revision 5."""
    store = ObjectStore.recover(data_dir)
    store.create(make_pod("a"))
    store.create(make_pod("b"))
    store.update(make_pod("a"))
    store.delete("Pod", "default", "b")
    store.create(make_pod("c"))
    return store


class TestRecovery:
    def test_roundtrip_restores_exact_state(self, tmp_path):
        store = seed_store(tmp_path)
        revision, objects = store.snapshot()
        store.close()

        recovered = ObjectStore.recover(tmp_path)
        assert recovered.durable
        assert recovered.revision == revision == 5
        assert {o.name for o in recovered.all_objects()} == {o.name for o in objects}
        assert recovered.get("Pod", "default", "a").resource_version == 3
        assert not recovered.exists("Pod", "default", "b")
        info = recovered.recovery
        assert info is not None
        assert info.replayed == 5 and info.snapshot_objects == 0
        assert info.truncated_bytes == 0 and info.torn_reason is None
        # Writes continue from the recovered revision, not from zero.
        assert recovered.create(make_pod("d")).resource_version == 6
        recovered.close()

    def test_compaction_snapshot_plus_suffix(self, tmp_path):
        store = ObjectStore.recover(tmp_path, compact_every=0)
        for name in ("a", "b", "c"):
            store.create(make_pod(name))
        store.compact()
        assert store.compactions == 1
        store.create(make_pod("d"))  # lands in the post-snapshot WAL
        store.close()

        recovered = ObjectStore.recover(tmp_path)
        assert recovered.revision == 4
        assert {o.name for o in recovered.all_objects()} == {"a", "b", "c", "d"}
        info = recovered.recovery
        assert info.snapshot_objects == 3 and info.replayed == 1
        recovered.close()

    def test_auto_compaction_threshold(self, tmp_path):
        store = ObjectStore.recover(tmp_path, compact_every=4)
        for i in range(9):
            store.create(make_pod(f"p{i}"))
        assert store.compactions == 2
        store.close()
        recovered = ObjectStore.recover(tmp_path)
        assert len(recovered) == 9 and recovered.revision == 9
        recovered.close()

    def test_replay_is_idempotent_after_crash_between_snapshot_and_reset(
        self, tmp_path
    ):
        # Simulate a crash after write_snapshot but before wal.reset():
        # the snapshot already contains what the WAL also holds.
        store = seed_store(tmp_path)
        revision, objects = store.snapshot()
        write_snapshot(tmp_path / SNAPSHOT_NAME, revision, [o.data for o in objects])
        store.close()  # WAL still has all 5 records

        recovered = ObjectStore.recover(tmp_path)
        assert recovered.revision == 5
        assert {o.name for o in recovered.all_objects()} == {"a", "c"}
        recovered.close()

    def test_store_without_data_dir_stays_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ObjectStore()
        assert not store.durable and store.wal is None
        store.create(make_pod("a"))
        store.compact()  # no-op, writes nothing
        store.close()
        assert list(tmp_path.iterdir()) == []


class TestTornTailProperty:
    """Satellite: truncate/corrupt the WAL at every byte offset of the
    final record; recover() never raises, never half-applies."""

    def _final_frame_bounds(self, tmp_path):
        store = seed_store(tmp_path)
        expected = {o.name for o in store.all_objects()}
        store.close()
        blob = (tmp_path / WAL_NAME).read_bytes()
        records, valid, torn = scan_records(blob)
        assert torn is None and len(records) == 5
        prefix = b"".join(encode_record(r) for r in records[:-1])
        assert blob.startswith(prefix)
        return blob, len(prefix), expected

    def _assert_prefix_recovery(self, tmp_path, expected):
        recovered = ObjectStore.recover(tmp_path)
        names = {o.name for o in recovered.all_objects()}
        revision = recovered.revision
        info = recovered.recovery
        recovered.close()
        # Either the final record survived intact (full state, rev 5)
        # or it was dropped whole (prefix state, rev 4): never a blend.
        assert names in ({"a", "c"}, {"a"})
        if names == {"a", "c"}:
            assert revision == 5 and names == expected
        else:
            assert revision == 4
            assert info.replayed == 4
        return names

    def test_truncation_at_every_offset_of_final_record(self, tmp_path):
        blob, prefix_len, expected = self._final_frame_bounds(tmp_path)
        outcomes = set()
        for cut in range(prefix_len, len(blob)):
            (tmp_path / WAL_NAME).write_bytes(blob[:cut])
            names = self._assert_prefix_recovery(tmp_path, expected)
            outcomes.add(frozenset(names))
            if cut < len(blob):
                assert names == {"a"}  # incomplete frame is never applied
        # Restore the intact log: full state comes back.
        (tmp_path / WAL_NAME).write_bytes(blob)
        assert self._assert_prefix_recovery(tmp_path, expected) == {"a", "c"}

    def test_corruption_at_every_offset_of_final_record(self, tmp_path):
        blob, prefix_len, expected = self._final_frame_bounds(tmp_path)
        for offset in range(prefix_len, len(blob)):
            corrupted = bytearray(blob)
            corrupted[offset] ^= 0xFF
            (tmp_path / WAL_NAME).write_bytes(bytes(corrupted))
            self._assert_prefix_recovery(tmp_path, expected)


class TestCrashPoints:
    def test_points_are_the_documented_commit_points(self):
        assert CRASH_POINTS == ("pre-append", "post-append", "post-ack")

    def test_disarmed_is_noop(self):
        arm_crashpoint(None)
        crashpoint("post-append")  # must not raise or kill

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            arm_crashpoint("mid-flight:1")
        with pytest.raises(ValueError):
            arm_crashpoint("pre-append:0")

    def test_arm_counts_only_its_point(self):
        # Arm far beyond reach so the test process never SIGKILLs.
        arm_crashpoint("post-append:1000000")
        try:
            from repro.k8s import wal as wal_module

            crashpoint("pre-append")
            crashpoint("post-ack")
            assert wal_module._ARMED.seen == 0
            crashpoint("post-append")
            assert wal_module._ARMED.seen == 1
        finally:
            arm_crashpoint(None)


class TestFsyncEnvDefault:
    def test_env_policy_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_FSYNC", "never")
        wal = WriteAheadLog(tmp_path / WAL_NAME)
        assert wal.fsync_policy == "never"
        wal.close()

    def test_env_invalid_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_FSYNC", "yolo")
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / WAL_NAME)

    def test_snapshot_tmp_files_never_linger(self, tmp_path):
        write_snapshot(tmp_path / SNAPSHOT_NAME, 1, [])
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []
