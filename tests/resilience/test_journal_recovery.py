"""Journaled auto-checkpointing and crash recovery.

The central chaos property: for every crash point N,
``recover(journal_dir)`` after a kill at step N yields a monitor whose
continued run is bit-for-bit the uninterrupted run.

Since the journal moved onto the checksummed segment store, damage no
longer aborts recovery: a torn or bit-flipped record truncates the
replay at the last valid record, and the loss is *reported* via
``RecoveryResult.torn_records`` instead of raised.  Only a missing/
unusable checkpoint and semantically unreplayable records remain
``RecoveryError``.
"""

import json

import pytest

from repro.core.monitor import Monitor
from repro.core.persist import recover
from repro.db import DatabaseSchema, Transaction
from repro.errors import MonitorError, RecoveryError
from repro.resilience import run_until_crash
from repro.store import encode_record, scan_segment


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})


def stream(length=12):
    items = []
    t = 0
    for i in range(length):
        t += 1 + (i % 2)
        rel = "p" if i % 3 else "q"
        items.append((t, Transaction({rel: [(i % 4,)]})))
    return items


def make_monitor(schema, **kwargs):
    monitor = Monitor(schema, **kwargs)
    monitor.add_constraint("window", "q(x) -> ONCE[0,3] p(x)")
    return monitor


def journal_times(journal):
    """Timestamps of the records in the journal's active segment."""
    scan = scan_segment(journal.journal_path)
    assert scan.clean
    return [record["t"] for record in scan.records]


def frame_step(time, txn):
    """One journal step as the framed bytes the store would append."""
    record = {"t": time}
    record.update(txn.to_dict())
    return encode_record(record)


class TestRunJournal:
    def test_attach_writes_initial_checkpoint(self, schema, tmp_path):
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j")
        assert monitor.journal.checkpoint_path.exists()
        assert monitor.journal.checkpoints_written == 1

    def test_steps_are_journaled(self, schema, tmp_path):
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=100)
        for t, txn in stream(5):
            monitor.step(t, txn)
        assert journal_times(monitor.journal) == [
            t for t, _ in stream(5)
        ]
        assert monitor.journal.records_written == 5

    def test_group_commit_holds_records_until_the_owner_commits(
        self, schema, tmp_path
    ):
        monitor = make_monitor(schema)
        journal = monitor.enable_journal(tmp_path / "j", checkpoint_every=100)
        journal.group_commit = True
        for t, txn in stream(3):
            monitor.step(t, txn)
        assert journal.records_written == 3
        assert journal_times(journal) == []  # a crash now loses all 3
        journal.commit()
        assert journal_times(journal) == [t for t, _ in stream(3)]

    def test_auto_checkpoint_rotates_the_journal(self, schema, tmp_path):
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=3)
        for t, txn in stream(7):
            monitor.step(t, txn)
        # 7 steps at cadence 3: initial + 2 automatic checkpoints,
        # the active segment holds only the single step since the last
        assert monitor.journal.checkpoints_written == 3
        assert len(journal_times(monitor.journal)) == 1
        monitor.journal.close()

    def test_faulted_steps_never_reach_the_journal(self, schema, tmp_path):
        monitor = make_monitor(schema, fault_policy="skip")
        monitor.enable_journal(tmp_path / "j", checkpoint_every=100)
        monitor.step(1, Transaction({"p": [(1,)]}))
        monitor.step(0, Transaction({"p": [(2,)]}))  # clock fault
        monitor.step(2, Transaction({"nope": [(1,)]}))  # schema fault
        monitor.step(3, Transaction({"q": [(1,)]}))
        assert journal_times(monitor.journal) == [1, 3]
        monitor.journal.close()

    def test_non_incremental_engine_rejected(self, schema, tmp_path):
        monitor = make_monitor(schema, engine="naive")
        with pytest.raises(MonitorError, match="incremental"):
            monitor.enable_journal(tmp_path / "j")

    def test_step_state_refused_under_journal(self, schema, tmp_path):
        from repro.db import DatabaseState

        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j")
        with pytest.raises(MonitorError, match="journaled"):
            monitor.step_state(1, DatabaseState.empty(schema))

    def test_memory_backend_journals_without_files(self, schema, tmp_path):
        monitor = make_monitor(schema)
        journal = monitor.enable_journal(
            tmp_path / "j", backend="memory"
        )
        for t, txn in stream(4):
            monitor.step(t, txn)
        assert journal.checkpoint_path is None
        assert not (tmp_path / "j").exists()
        snapshot = journal.store.load()
        assert [r["t"] for r in snapshot.records] == [
            t for t, _ in stream(4)
        ]


class TestRecovery:
    @pytest.mark.parametrize("crash_at", [0, 1, 3, 5, 8, 11])
    @pytest.mark.parametrize("checkpoint_every", [1, 3, 100])
    def test_recover_reproduces_uninterrupted_run(
        self, schema, tmp_path, crash_at, checkpoint_every
    ):
        full = stream(12)
        uninterrupted = make_monitor(schema).run(full)

        crashed = make_monitor(schema)
        crashed.enable_journal(
            tmp_path / "j", checkpoint_every=checkpoint_every
        )
        partial = run_until_crash(crashed, full, crash_at)

        monitor, result = Monitor.recover(tmp_path / "j")
        assert monitor.now == (full[crash_at - 1][0] if crash_at else None)
        continued = monitor.run(full[crash_at:])

        resumed_steps = list(partial.steps) + list(continued.steps)
        assert resumed_steps == list(uninterrupted.steps)

    def test_recovery_result_reports_replay(self, schema, tmp_path):
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=4)
        for t, txn in stream(6):
            monitor.step(t, txn)
        monitor.journal.close()
        result = recover(tmp_path / "j")
        # checkpoint after step 4; journal replays steps 5 and 6
        assert result.journal_entries == 2
        assert len(result.replayed) == 2
        assert result.torn_records == 0
        assert not result.fallback
        assert result.checker.now == stream(6)[-1][0]
        assert result.checkpoint_time == stream(6)[3][0]

    def test_recovered_monitor_keeps_journaling(self, schema, tmp_path):
        crashed = make_monitor(schema)
        crashed.enable_journal(tmp_path / "j", checkpoint_every=100)
        run_until_crash(crashed, stream(6), 4)
        monitor, _ = Monitor.recover(tmp_path / "j")
        assert monitor.journal is not None
        for t, txn in stream(6)[4:]:
            monitor.step(t, txn)
        # recovery checkpointed; only post-recovery steps in the journal
        assert journal_times(monitor.journal) == [
            t for t, _ in stream(6)[4:]
        ]
        monitor.journal.close()

    def test_missing_checkpoint_is_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="cannot recover"):
            recover(tmp_path / "empty")

    def test_torn_journal_tail_is_truncated_not_fatal(
        self, schema, tmp_path
    ):
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=100)
        for t, txn in stream(3):
            monitor.step(t, txn)
        journal_file = monitor.journal.journal_path
        monitor.journal.close()
        # tear the tail mid-frame, as a crash mid-write would
        with open(journal_file, "ab") as fh:
            fh.write(frame_step(99, Transaction({"p": [(9,)]}))[:-7])
        result = recover(tmp_path / "j")
        assert result.torn_records == 1
        assert result.journal_entries == 3
        assert result.checker.now == stream(3)[-1][0]

    def test_corrupted_middle_record_truncates_replay(
        self, schema, tmp_path
    ):
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=100)
        for t, txn in stream(3):
            monitor.step(t, txn)
        journal_file = monitor.journal.journal_path
        monitor.journal.close()
        # flip one payload byte in the middle record
        data = bytearray(journal_file.read_bytes())
        scan = scan_segment(journal_file)
        assert len(scan.records) == 3
        lines = journal_file.read_bytes().splitlines(keepends=True)
        offset = len(lines[0]) + len(lines[1]) // 2
        data[offset] ^= 0x01
        journal_file.write_bytes(bytes(data))
        result = recover(tmp_path / "j")
        # replay stops before the damaged record: later records would
        # apply against the wrong state
        assert result.journal_entries == 1
        assert result.torn_records == 2
        assert result.checker.now == stream(3)[0][0]

    def test_stale_journal_records_are_skipped(self, schema, tmp_path):
        # a crash between checkpoint-write and segment-reclaim leaves
        # records the checkpoint already covers; recovery must skip
        # them by timestamp, not replay them twice
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=100)
        for t, txn in stream(4):
            monitor.step(t, txn)
        monitor.journal.checkpoint(monitor.checker)
        journal_file = monitor.journal.journal_path
        monitor.journal.close()
        # resurrect the pre-checkpoint records into the fresh segment
        with open(journal_file, "ab") as fh:
            for t, txn in stream(4):
                fh.write(frame_step(t, txn))
        result = recover(tmp_path / "j")
        assert result.journal_entries == 0
        assert result.checker.now == stream(4)[-1][0]

    def test_unreplayable_journal_is_recovery_error(self, schema, tmp_path):
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=100)
        monitor.step(1, Transaction({"p": [(1,)]}))
        journal_file = monitor.journal.journal_path
        monitor.journal.close()
        # a record that verifies and parses but violates the schema on
        # replay — integrity checking cannot excuse semantic garbage
        with open(journal_file, "ab") as fh:
            fh.write(encode_record({"t": 5, "insert": {"ghost": [[1]]}}))
        with pytest.raises(RecoveryError, match="does not replay"):
            recover(tmp_path / "j")

    def test_damaged_checkpoint_falls_back_to_previous(
        self, schema, tmp_path
    ):
        monitor = make_monitor(schema)
        monitor.enable_journal(tmp_path / "j", checkpoint_every=3)
        for t, txn in stream(7):
            monitor.step(t, txn)
        checkpoint = monitor.journal.checkpoint_path
        monitor.journal.close()
        # flip a byte inside the current checkpoint frame
        data = bytearray(checkpoint.read_bytes())
        data[len(data) // 2] ^= 0x10
        checkpoint.write_bytes(bytes(data))
        result = recover(tmp_path / "j")
        assert result.fallback
        # the previous generation plus both retained segments replay
        # to exactly the last completed step
        assert result.checker.now == stream(7)[-1][0]
