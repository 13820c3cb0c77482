"""The OS-process transport: real fault isolation behind a pipe.

Small streams only — every worker is a genuine ``multiprocessing``
child, and crashes are real ``os._exit`` calls whose recovery goes
through the same journal replay as the inline transport.
"""

from repro.core.monitor import Monitor
from repro.db import DatabaseSchema, Transaction
from repro.resilience import ShardChaosPlan
from repro.shard import ShardedMonitor

SCHEMA = DatabaseSchema.from_dict({"p": ["k"], "q": ["k"]})


def stream(length=16):
    items = []
    for i in range(length):
        rel = "p" if i % 3 else "q"
        items.append((i + 1, Transaction({rel: [(i % 6,)]})))
    return items


def reference(items):
    single = Monitor(SCHEMA, engine="incremental")
    single.add_constraint("window", "q(x) -> ONCE[0,3] p(x)")
    return [single.step(t, txn) for t, txn in items]


def make_sharded(tmp_path, transport="process", **kwargs):
    monitor = ShardedMonitor(
        SCHEMA, key="k", shards=2, journal_root=tmp_path,
        transport=transport, **kwargs
    )
    monitor.add_constraint("window", "q(x) -> ONCE[0,3] p(x)")
    return monitor


class TestProcessTransport:
    def test_clean_run_matches_single_monitor(self, tmp_path):
        items = stream()
        monitor = make_sharded(tmp_path)
        got = list(monitor.run(items).steps)
        monitor.close()
        assert got == reference(items)

    def test_real_crashes_recover_by_journal_replay(self, tmp_path):
        items = stream()
        chaos = ShardChaosPlan(
            2,
            [
                {"shard": 0, "step": 5, "mode": "before"},
                {"shard": 1, "step": 9, "mode": "torn"},
            ],
            seed=0,
        )
        monitor = make_sharded(tmp_path, chaos=chaos)
        got = list(monitor.run(items).steps)
        summary = monitor.supervisor.summary()
        acct = monitor.accounting()
        monitor.close()
        assert got == reference(items)
        assert summary["crashes"] == 2
        assert summary["respawns"] == 2
        assert summary["tombstoned"] == []
        assert acct["degraded"] == 0
        assert acct["steps_fed"] == len(items)

    def test_dead_child_journal_lock_is_stolen(self, tmp_path):
        # the crashed child holds the shard journal's pid lock; the
        # respawned child must detect the dead owner and steal it
        items = stream()
        chaos = ShardChaosPlan(
            2, [{"shard": 0, "step": 3, "mode": "torn"}], seed=0
        )
        monitor = make_sharded(tmp_path, chaos=chaos)
        got = list(monitor.run(items).steps)
        monitor.close()
        assert got == reference(items)
        lock = tmp_path / "shard-0000" / "journal.lock"
        assert not lock.exists()  # released on clean close
