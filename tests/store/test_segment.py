"""The segment WAL backend: rotation, retention, lenient load.

These are unit tests against the raw :class:`SegmentStore` (below the
``RunJournal`` seam): epoch numbering, the 4-step checkpoint protocol,
the two-generation retention window, lenient damage handling in
``load``, and the in-process failpoints the chaos suites hang off.
The :class:`MemoryStore` runs the same logical scenarios as the
reference the durable backend must agree with.
"""

import pytest

from repro.errors import StoreError
from repro.resilience import SimulatedCrash
from repro.store import (
    FAILPOINTS,
    FSYNC_ENV,
    MemoryStore,
    SegmentStore,
    list_segments,
    segment_epoch,
    segment_name,
)


def checkpoint_doc(n):
    return {"version": 1, "step": n}


@pytest.fixture
def store(tmp_path):
    with SegmentStore(tmp_path / "s") as store:
        yield store


class TestNaming:
    def test_segment_name_round_trips(self):
        assert segment_name(3) == "wal-00000003.log"
        assert segment_epoch(segment_name(3)) == 3

    def test_malformed_names_are_not_segments(self, tmp_path):
        for name in ("wal-x.log", "wal-.log", "other.log", "wal-1"):
            (tmp_path / name).write_text("")
        (tmp_path / segment_name(2)).write_text("")
        assert [segment_epoch(p) for p in list_segments(tmp_path)] == [2]


class TestAppendLoad:
    def test_fresh_store_loads_empty(self, store):
        snapshot = store.load()
        assert snapshot.document is None
        assert snapshot.records == []
        assert snapshot.epoch == -1

    def test_append_then_load(self, store):
        for t in (1, 2, 3):
            store.append({"t": t})
        snapshot = store.load()
        assert [r["t"] for r in snapshot.records] == [1, 2, 3]
        assert snapshot.torn_records == 0
        assert store.records_written == 3

    def test_checkpoint_then_load(self, store):
        store.checkpoint(checkpoint_doc(0))  # the initial checkpoint
        store.append({"t": 1})
        store.checkpoint(checkpoint_doc(1))
        store.append({"t": 2})
        snapshot = store.load()
        assert snapshot.document == checkpoint_doc(1)
        assert snapshot.epoch == 1
        # the pre-checkpoint record sits in the older retained segment,
        # which only a *fallback* load would replay
        assert [r["t"] for r in snapshot.records] == [2]

    def test_closed_store_refuses(self, store):
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.append({"t": 1})
        store.close()  # idempotent


class TestWriteCommit:
    def test_written_records_become_readable_at_commit(self, store):
        for t in (1, 2, 3):
            store.write({"t": t})
        assert store.load().records == []  # still in the buffer
        store.commit()
        assert [r["t"] for r in store.load().records] == [1, 2, 3]
        assert store.records_written == 3

    def test_one_commit_passes_the_record_failpoints_once(
        self, store, monkeypatch
    ):
        hits = []
        monkeypatch.setattr(store, "_failpoint", hits.append)
        for t in (1, 2, 3):
            store.write({"t": t})
        store.commit()
        store.commit()  # nothing written since: no flush, no failpoint
        assert hits == ["record_pre_fsync", "record_post_fsync"]
        store.append({"t": 4})  # the single-record path commits itself
        assert hits == ["record_pre_fsync", "record_post_fsync"] * 2

    def test_commit_failpoint_leaves_the_group_recoverable(self, tmp_path):
        with SegmentStore(
            tmp_path / "s", failpoints=("record_post_fsync",)
        ) as store:
            store.write({"t": 1})
            store.write({"t": 2})
            with pytest.raises(SimulatedCrash):
                store.commit()
        with SegmentStore(tmp_path / "s") as store:
            assert [r["t"] for r in store.load().records] == [1, 2]

    def test_checkpoint_covers_uncommitted_records(self, store, monkeypatch):
        store.write({"t": 1})
        store.checkpoint(checkpoint_doc(1))
        hits = []
        monkeypatch.setattr(store, "_failpoint", hits.append)
        store.commit()  # the rotation left nothing to commit
        assert hits == []
        assert store.load().records == []

    def test_memory_store_commits_every_write(self):
        memory = MemoryStore()
        memory.write({"t": 1})
        assert [r["t"] for r in memory.load().records] == [1]
        memory.commit()
        assert [r["t"] for r in memory.load().records] == [1]


class TestRotationAndRetention:
    def test_checkpoint_rotates_to_a_new_segment(self, store):
        store.checkpoint(checkpoint_doc(0))
        first = store.journal_path
        store.append({"t": 1})
        store.checkpoint(checkpoint_doc(1))
        assert store.epoch == 1
        assert store.journal_path != first
        store.append({"t": 2})
        assert store.journal_path.exists()

    def test_retention_keeps_two_generations(self, store):
        for n in range(5):
            store.append({"t": n})
            store.checkpoint(checkpoint_doc(n))
        epochs = [segment_epoch(p) for p in list_segments(store.directory)]
        assert epochs == [3, 4]
        assert store.checkpoint_path.exists()
        assert store.prev_checkpoint_path.exists()

    def test_prev_generation_retained(self, store):
        store.checkpoint(checkpoint_doc(1))
        store.checkpoint(checkpoint_doc(2))
        snapshot = store.load()
        assert snapshot.document == checkpoint_doc(2)
        # damage the current generation: load falls back to prev
        data = bytearray(store.checkpoint_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        store.checkpoint_path.write_bytes(bytes(data))
        snapshot = store.load()
        assert snapshot.fallback
        assert snapshot.document == checkpoint_doc(1)

    def test_reattach_resumes_epoch_numbering(self, tmp_path):
        with SegmentStore(tmp_path / "s") as store:
            store.checkpoint(checkpoint_doc(1))
            store.checkpoint(checkpoint_doc(2))
            assert store.epoch == 1
        with SegmentStore(tmp_path / "s") as store:
            assert store.epoch == 1
            store.checkpoint(checkpoint_doc(3))
            assert store.epoch == 2


class TestLenientLoad:
    def test_torn_tail_is_counted_not_fatal(self, store):
        store.append({"t": 1})
        store.append({"t": 2})
        store._fh.flush()
        with open(store.journal_path, "ab") as fh:
            fh.write(b"rs1 20 0123456789abcdef {\"t\"")
        snapshot = store.load()
        assert [r["t"] for r in snapshot.records] == [1, 2]
        assert snapshot.torn_records == 1

    def test_damage_in_older_segment_truncates_later_ones(self, store):
        # records in segments *after* a damaged frame would replay
        # against the wrong state; they are torn too
        store.checkpoint(checkpoint_doc(0))
        store.append({"t": 1})
        store.checkpoint(checkpoint_doc(1))
        store.append({"t": 2})
        prev_segment = list_segments(store.directory)[0]
        data = bytearray(prev_segment.read_bytes())
        data[len(data) - 3] ^= 0x01
        prev_segment.write_bytes(bytes(data))
        # lose the current checkpoint: fallback now *needs* the
        # damaged older segment, so both its record and the newer
        # segment's are lost to the tear
        store.checkpoint_path.unlink()
        snapshot = store.load()
        assert snapshot.fallback
        assert snapshot.document == checkpoint_doc(0)
        assert snapshot.records == []
        assert snapshot.torn_records == 2

    def test_append_after_torn_load_truncates_the_tail(self, tmp_path):
        # the documented lifecycle (construct → load → append) against
        # a torn active segment: appends must not land *behind* the
        # damaged bytes, or the next load would stop at the tear and
        # silently discard every post-recovery record
        with SegmentStore(tmp_path / "s") as store:
            store.append({"t": 1})
            journal = store.journal_path
        with open(journal, "ab") as fh:
            fh.write(b"rs1 20 0123456789abcdef {\"t\"")
        with SegmentStore(tmp_path / "s") as store:
            assert store.load().torn_records == 1
            store.append({"t": 2})
        with SegmentStore(tmp_path / "s") as store:
            snapshot = store.load()
            assert [r["t"] for r in snapshot.records] == [1, 2]
            assert snapshot.torn_records == 0

    def test_both_generations_damaged_loads_empty(self, store):
        store.checkpoint(checkpoint_doc(1))
        store.checkpoint(checkpoint_doc(2))
        for path in (store.checkpoint_path, store.prev_checkpoint_path):
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
        snapshot = store.load()
        assert snapshot.document is None


class TestFailpoints:
    def test_unknown_failpoint_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="unknown failpoint"):
            SegmentStore(tmp_path / "s", failpoints=("no_such_point",))

    @pytest.mark.parametrize("point", FAILPOINTS[:2])
    def test_record_failpoints_crash_append(self, tmp_path, point):
        with SegmentStore(tmp_path / "s", failpoints=(point,)) as store:
            with pytest.raises(SimulatedCrash, match=point):
                store.append({"t": 1})

    @pytest.mark.parametrize("point", FAILPOINTS[2:])
    def test_checkpoint_failpoints_crash_checkpoint(self, tmp_path, point):
        with SegmentStore(tmp_path / "s", failpoints=(point,)) as store:
            with pytest.raises(SimulatedCrash, match=point):
                store.checkpoint(checkpoint_doc(1))

    def test_crash_before_rename_keeps_old_checkpoint(self, tmp_path):
        with SegmentStore(tmp_path / "s") as store:
            store.checkpoint(checkpoint_doc(1))
        with SegmentStore(
            tmp_path / "s", failpoints=("checkpoint_pre_rename",)
        ) as store:
            with pytest.raises(SimulatedCrash):
                store.checkpoint(checkpoint_doc(2))
        with SegmentStore(tmp_path / "s") as store:
            assert store.load().document == checkpoint_doc(1)

    def test_crash_before_unlink_leaves_recoverable_extras(self, tmp_path):
        with SegmentStore(tmp_path / "s") as store:
            for n in range(3):
                store.append({"t": n})
                store.checkpoint(checkpoint_doc(n))
        with SegmentStore(
            tmp_path / "s", failpoints=("rotate_pre_unlink",)
        ) as store:
            with pytest.raises(SimulatedCrash):
                store.checkpoint(checkpoint_doc(99))
        # the checkpoint itself committed; only reclamation was lost
        with SegmentStore(tmp_path / "s") as store:
            snapshot = store.load()
            assert snapshot.document == checkpoint_doc(99)
            assert snapshot.torn_records == 0


class TestMemoryParity:
    """The in-memory reference agrees with the durable backend."""

    def scenario(self, store):
        store.append({"t": 1})
        store.checkpoint(checkpoint_doc(1))
        store.append({"t": 2})
        store.append({"t": 3})
        return store.load()

    def test_same_logical_outcome(self, tmp_path):
        memory = self.scenario(MemoryStore())
        with SegmentStore(tmp_path / "s") as durable_store:
            durable = self.scenario(durable_store)
        assert memory.document == durable.document
        # the durable backend also reports the already-covered record
        # from its retained segment; the logical tail agrees
        assert memory.records == durable.records[-len(memory.records):]
        assert memory.torn_records == durable.torn_records == 0

    def test_memory_store_is_not_durable(self):
        assert MemoryStore.durable is False
        assert SegmentStore.durable is True

    def test_memory_rejects_unencodable_records(self):
        store = MemoryStore()
        with pytest.raises(Exception):
            store.append({"bad": object()})

    def test_memory_closed_refuses(self):
        store = MemoryStore()
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.append({"t": 1})


class TestSyncIsResolvedAtConstruction:
    """Whether ``sync`` really fsyncs is asked once, when the store is
    built; ``"force"`` never depends on the answer."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        import os

        calls = []
        monkeypatch.setattr(os, "fsync", calls.append)
        return calls

    def exercise(self, store):
        store.append({"t": 1})
        store.checkpoint(checkpoint_doc(1), {"aux0": [[[1], [1]]]})
        store.append({"t": 2})

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_force_ignores_the_escape_hatch(
        self, tmp_path, monkeypatch, fsyncs, when
    ):
        monkeypatch.delenv(FSYNC_ENV, raising=False)
        if when == "before":
            monkeypatch.setenv(FSYNC_ENV, "off")
        with SegmentStore(tmp_path / "s", sync="force") as store:
            monkeypatch.setenv(FSYNC_ENV, "off")
            self.exercise(store)
            synchronous = store._cold_store()._conn.execute(
                "PRAGMA synchronous"
            ).fetchone()
        # a record each, and in the checkpoint: the temp file, the
        # directory after the renames, the new segment, the directory
        assert len(fsyncs) == 2 + 4
        assert synchronous == (2,)  # FULL

    def test_true_keeps_the_answer_it_got(
        self, tmp_path, monkeypatch, fsyncs
    ):
        monkeypatch.setenv(FSYNC_ENV, "off")
        with SegmentStore(tmp_path / "off", sync=True) as store:
            monkeypatch.delenv(FSYNC_ENV)
            self.exercise(store)
            synchronous = store._cold_store()._conn.execute(
                "PRAGMA synchronous"
            ).fetchone()
        assert fsyncs == [] and synchronous == (0,)  # OFF
        with SegmentStore(tmp_path / "on", sync=True) as store:
            monkeypatch.setenv(FSYNC_ENV, "off")
            self.exercise(store)
        assert len(fsyncs) == 2 + 4

    def test_flush_only_never_fsyncs(self, tmp_path, monkeypatch, fsyncs):
        monkeypatch.delenv(FSYNC_ENV, raising=False)
        with SegmentStore(tmp_path / "s", sync=False) as store:
            self.exercise(store)
        assert fsyncs == []
