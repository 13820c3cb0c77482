"""A worker killed before its attach checkpoint starts over.

Between ``Process.start()`` and the child's ``ready`` a shard has
written no checkpoint and acknowledged nothing: a kill there loses
nothing, so the supervisor respawns the worker fresh and redelivers
instead of trying (and failing) to recover from an empty journal.  Any
other journal that does not recover still costs the shard.  The last
class runs the process transport under the ``spawn`` start method,
where a child imports ``repro.shard.worker`` from nothing.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import RecoveryError
from repro.resilience import SimulatedCrash
from repro.shard import ShardedMonitor
from repro.store import FAILPOINT_ENV, SegmentStore

from .test_process_transport import SCHEMA, make_sharded, reference, stream

SRC = str(Path(repro.__file__).resolve().parents[1])


def finish(monitor, items):
    got = list(monitor.run(items).steps)
    summary = monitor.supervisor.summary()
    acct = monitor.accounting()
    monitor.close()
    assert got == reference(items)
    assert acct["degraded"] == 0
    assert acct["steps_fed"] == acct["verdicts"] == len(items)
    return summary


def killed_while_attaching(directory):
    """Leave ``directory`` as a kill inside the attach checkpoint does:
    a lock file and a checkpoint that was never renamed into place."""
    shutil.rmtree(directory)
    store = SegmentStore(directory, failpoints={"checkpoint_pre_rename"})
    with pytest.raises(SimulatedCrash):
        store.checkpoint({"version": 1})


class TestProcessTransport:
    def test_child_dies_at_its_attach_checkpoint(self, tmp_path, monkeypatch):
        # both first children inherit the failpoint and exit inside
        # their attach checkpoint; the respawns (forked once the
        # variable is gone) start over
        monkeypatch.setenv(FAILPOINT_ENV, "checkpoint_pre_rename:1")
        monitor = make_sharded(tmp_path)
        workers = list(monitor.supervisor.workers)
        monkeypatch.delenv(FAILPOINT_ENV)
        for worker in workers:
            worker.process.join(timeout=30)
            assert worker.process.exitcode is not None
        summary = finish(monitor, stream(16))
        assert summary["crashes"] == 2
        assert summary["respawns"] == 2
        assert summary["tombstoned"] == []
        assert summary["replayed_steps"] == 0

    def test_sigkill_between_start_and_ready(self, tmp_path):
        # wherever the kill lands — before the attach checkpoint (the
        # worker starts over) or after it (the worker recovers) — the
        # shard comes back and nothing is lost
        monitor = make_sharded(tmp_path)
        worker = monitor.supervisor.workers[1]
        os.kill(worker.process.pid, signal.SIGKILL)
        summary = finish(monitor, stream(16))
        assert summary["crashes"] == 1
        assert summary["respawns"] == 1
        assert summary["tombstoned"] == []


class TestInlineTransport:
    def test_wreckage_of_a_start_up_kill_starts_over(self, tmp_path):
        monitor = make_sharded(tmp_path, transport="inline")
        worker = monitor.supervisor.workers[0]
        worker.kill()
        killed_while_attaching(tmp_path / "shard-0000")
        summary = finish(monitor, stream(16))
        assert summary["crashes"] == 1
        assert summary["respawns"] == 1
        assert summary["tombstoned"] == []
        assert summary["replayed_steps"] == 0

    def test_a_lost_journal_after_an_acknowledgement_is_not_forgiven(
        self, tmp_path
    ):
        # the same wreckage once the shard has acknowledged a step: its
        # state is gone for real, and starting over would hide that
        items = stream(16)
        monitor = make_sharded(tmp_path, transport="inline")
        for time, txn in items[:4]:
            monitor.step(time, txn)
        monitor.supervisor.workers[0].kill()
        killed_while_attaching(tmp_path / "shard-0000")
        with pytest.raises(RecoveryError, match="no usable checkpoint"):
            monitor.step(*items[4])
        monitor.close()

    def test_a_restarted_supervisor_never_starts_a_shard_over(self, tmp_path):
        items = stream(16)
        first = make_sharded(tmp_path, transport="inline")
        for time, txn in items[:4]:
            first.step(time, txn)
        first.close()
        monitor, _ = ShardedMonitor.recover(tmp_path)
        monitor.supervisor.workers[0].kill()
        killed_while_attaching(tmp_path / "shard-0000")
        with pytest.raises(RecoveryError, match="no usable checkpoint"):
            monitor.step(*items[4])
        monitor.close()


SPAWNED = """
import multiprocessing, sys
from tests.shard.test_process_transport import make_sharded, stream

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    items = stream(12)
    tables = []
    for transport in ("process", "inline"):
        monitor = make_sharded(sys.argv[1] + "/" + transport,
                               transport=transport)
        tables.append([
            (r.time, r.index, [(v.constraint, sorted(v.witnesses.rows))
                               for v in r.violations])
            for r in monitor.run(items).steps
        ])
        if transport == "process":
            starts = {type(w.process).__name__
                      for w in monitor.supervisor.workers}
            assert starts == {"SpawnProcess"}, starts
        monitor.close()
    assert tables[0] == tables[1], tables
    assert any(violations for _, _, violations in tables[0])
    print("equal", len(tables[0]))
"""


class TestSpawnStartMethod:
    def test_spawned_children_give_the_inline_verdicts(self, tmp_path):
        # a spawned child unpickles its WorkerSpec and target by
        # reference, importing repro.shard.worker into an interpreter
        # that has imported nothing else of repro
        script = tmp_path / "spawned.py"
        script.write_text(SPAWNED)
        root = str(Path(__file__).resolve().parents[2])
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, root])},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "equal 12"
