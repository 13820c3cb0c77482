"""The framed process transport: steps and acks travel in frames.

Small streams over real ``multiprocessing`` children.  With the
default ``mailbox_capacity`` of 8 a pipelined ``run`` sends seq 0 at
once (the child is idle) and then cuts the stream into frames of four
steps — seqs 1-4, 5-8, 9-12, ... until the first crash — which is what
places the injections below at the first, a middle and the last step
of a frame.  The two per-frame invariants
(journal-then-ack, checkpoint-after-ack), the in-flight bound and the
in-band step deadline are pinned here; the inline transport's chaos
suites live in ``test_equivalence.py``.
"""

import pytest

from repro.obs import MetricsRegistry, MonitorInstrumentation
from repro.resilience import ShardChaosPlan
from repro.shard import ShardedMonitor
from repro.shard.worker import WorkerSpec, _worker_main
from repro.store import SegmentStore

from .test_process_transport import SCHEMA, make_sharded, reference, stream

CONSTRAINT = ("window", "q(x) -> ONCE[0,3] p(x)")


class TestFrameBoundaryChaos:
    # seq of the injected crash, in frame 5-8
    POSITIONS = {"first": 5, "middle": 6, "last": 8}

    def crash_run(self, tmp_path, mode, seq, **kwargs):
        items = stream(24)
        chaos = ShardChaosPlan(
            2, [{"shard": 0, "step": seq, "mode": mode}], seed=0
        )
        monitor = make_sharded(tmp_path, chaos=chaos, **kwargs)
        got = list(monitor.run(items).steps)
        summary = monitor.supervisor.summary()
        acct = monitor.accounting()
        monitor.close()
        assert got == reference(items)
        assert acct["steps_fed"] == len(items)
        assert acct["steps_fed"] == (
            acct["verdicts"] + acct["degraded"] + acct["shed"]
        )
        assert acct["degraded"] == 0
        assert summary["crashes"] == 1
        assert summary["respawns"] == 1
        assert summary["tombstoned"] == []
        assert summary["degraded_fragments"] == 0
        return summary

    @pytest.mark.parametrize("position", sorted(POSITIONS))
    def test_killed_before_a_step(self, tmp_path, position):
        # the frame's earlier steps were applied and never committed:
        # they are lost with the process, and redelivered
        self.crash_run(tmp_path, "before", self.POSITIONS[position])

    @pytest.mark.parametrize("position", sorted(POSITIONS))
    def test_torn_handoff(self, tmp_path, position):
        # journal committed, acknowledgement frame never sent: every
        # step of the frame up to the torn one is answered from replay
        summary = self.crash_run(tmp_path, "torn", self.POSITIONS[position])
        assert summary["replayed_steps"] > 0

    def test_torn_at_the_checkpoint_cadence(self, tmp_path):
        # seq 8 is the 9th applied step: the frame that reaches the
        # cadence dies before its acks, so it must not have checkpointed
        summary = self.crash_run(tmp_path, "torn", 8, checkpoint_every=9)
        assert summary["replayed_steps"] >= 9

    def test_killed_right_after_the_cadence_checkpoint(self, tmp_path):
        # frame 5-8 acknowledged, then checkpointed; the next frame's
        # first step kills the worker with an empty journal tail
        self.crash_run(tmp_path, "before", 9, checkpoint_every=9)

    def test_torn_mid_frame_past_the_cadence(self, tmp_path):
        # the cadence (7) is reached inside frame 5-8 at seq 6: the
        # checkpoint waits for the frame's acks, which never leave
        summary = self.crash_run(tmp_path, "torn", 6, checkpoint_every=7)
        assert summary["replayed_steps"] >= 7

    def test_two_crashes_in_one_frame(self, tmp_path):
        items = stream(24)
        chaos = ShardChaosPlan(
            2,
            [
                {"shard": 1, "step": 6, "mode": "torn"},
                {"shard": 1, "step": 7, "mode": "before"},
            ],
            seed=0,
        )
        monitor = make_sharded(tmp_path, chaos=chaos)
        got = list(monitor.run(items).steps)
        summary = monitor.supervisor.summary()
        monitor.close()
        assert got == reference(items)
        assert summary["crashes"] == 2
        assert summary["respawns"] == 2
        assert summary["degraded_fragments"] == 0


class TestRealKill:
    def test_sigkill_between_two_submissions_loses_nothing(self, tmp_path):
        # not an injection: the child is killed from outside wherever
        # it happens to be — mid-frame, between commit and ack, or idle
        import os
        import signal

        items = stream(40)
        monitor = make_sharded(tmp_path)

        def killing():
            for i, item in enumerate(items):
                if i == 14:
                    worker = monitor.supervisor.workers[0]
                    os.kill(worker.process.pid, signal.SIGKILL)
                yield item

        got = list(monitor.run(killing()).steps)
        summary = monitor.supervisor.summary()
        acct = monitor.accounting()
        monitor.close()
        assert got == reference(items)
        assert summary["crashes"] == 1
        assert summary["respawns"] == 1
        assert acct["degraded"] == 0
        assert acct["steps_fed"] == acct["verdicts"] == len(items)


class RecordingConnection:
    """Stands in for the child's end of the pipe, in this process."""

    def __init__(self, messages, journal_dir, log):
        self.messages = list(messages)
        self.journal_dir = journal_dir
        self.log = log
        self.ack_frames = []

    def recv(self):
        return self.messages.pop(0)

    def send(self, message):
        if message[0] != "acks":
            return
        # what is on disk at the moment the ack frame leaves
        with SegmentStore(self.journal_dir, lock=False) as reader:
            on_disk = {r["t"] for r in reader.load().records}
        self.log.append("send")
        self.ack_frames.append((message[1], on_disk))


class TestJournalThenAck:
    def test_no_ack_frame_leaves_before_its_commit(
        self, tmp_path, monkeypatch
    ):
        log = []
        failpoint = SegmentStore._failpoint

        def recording_failpoint(self, name):
            log.append(name)
            failpoint(self, name)

        monkeypatch.setattr(SegmentStore, "_failpoint", recording_failpoint)
        spec = WorkerSpec(
            0, SCHEMA.to_dict(), [CONSTRAINT],
            journal_dir=tmp_path / "shard-0000", checkpoint_every=5,
        )
        items = [(seq, time, txn) for seq, (time, txn) in enumerate(stream(9))]
        conn = RecordingConnection(
            [("frame", items[:5]), ("frame", items[5:]), ("stop",)],
            spec.journal_dir, log,
        )
        _worker_main(conn, spec, [], recovered=False)
        attach = log.index("rotate_post_unlink") + 1  # the attach checkpoint
        # frame one: five records, ONE commit, then the acks, then the
        # checkpoint its cadence asked for
        assert log[attach:attach + 3] == [
            "record_pre_fsync", "record_post_fsync", "send",
        ]
        assert log[attach + 3] == "checkpoint_pre_rename"
        # frame two: one commit again, acks after it, no checkpoint
        assert log[-3:] == ["record_pre_fsync", "record_post_fsync", "send"]
        assert len(conn.ack_frames) == 2
        first, second = conn.ack_frames
        assert [seq for seq, _, _ in first[0]] == [0, 1, 2, 3, 4]
        assert {time for _, time, _ in items[:5]} <= first[1]
        assert [seq for seq, _, _ in second[0]] == [5, 6, 7, 8]
        assert {time for _, time, _ in items[5:]} <= second[1]
        assert not any(replayed for acks, _ in conn.ack_frames
                       for _, _, replayed in acks)


class TestInFlightBound:
    @pytest.mark.parametrize("capacity", [1, 3, 8])
    def test_pipelined_run_stays_within_capacity_plus_one(
        self, tmp_path, capacity
    ):
        items = stream(40)
        monitor = make_sharded(tmp_path, mailbox_capacity=capacity)
        got = list(monitor.run(items).steps)
        summary = monitor.supervisor.summary()
        monitor.close()
        assert got == reference(items)
        assert summary["max_mailbox_depth"] <= capacity + 1
        assert 1.0 <= summary["mean_frame_steps"] <= max(1, capacity // 2)
        assert summary["in_flight"] == 0

    def test_frame_layout_of_a_pipelined_run(self, tmp_path):
        # what TestFrameBoundaryChaos places its injections by
        monitor = make_sharded(tmp_path)
        sizes = {0: [], 1: []}
        supervisor = monitor.supervisor
        for worker in supervisor.workers:
            worker.on_frame = lambda shard, steps, _: sizes[shard].append(steps)
        list(monitor.run(stream(13)).steps)
        monitor.close()
        assert sizes == {0: [1, 4, 4, 4], 1: [1, 4, 4, 4]}

    def test_an_idle_worker_is_sent_its_step_at_once(self, tmp_path):
        # a synchronous step must reach every shard before the
        # supervisor waits on the first, or the shards take turns
        monitor = make_sharded(tmp_path)
        time, txn = stream(1)[0]
        supervisor = monitor.supervisor
        supervisor.submit(time, txn, 0)
        assert all(len(w._frames) == 1 for w in supervisor.workers)
        assert supervisor.flush()[0] == reference([(time, txn)])[0]
        monitor.close()

    def test_synchronous_steps_are_frames_of_one(self, tmp_path):
        items = stream(6)
        monitor = make_sharded(tmp_path)
        got = [monitor.step(t, txn) for t, txn in items]
        summary = monitor.supervisor.summary()
        monitor.close()
        assert got == reference(items)
        assert summary["frames"] == 2 * len(items)
        assert summary["mean_frame_steps"] == 1.0


class TestStepDeadlineInBand:
    # 1 ns is exhausted by the time the first constraint is reached
    NEVER_ENOUGH = 1e-9

    def test_deadline_reaches_process_workers(self, tmp_path):
        monitor = make_sharded(tmp_path)
        monitor.set_step_deadline(self.NEVER_ENOUGH)
        reports = list(monitor.run(stream(6)).steps)
        acct = monitor.accounting()
        monitor.close()
        assert all(r.deferred == ("window",) for r in reports)
        assert acct["degraded"] == 6

    def test_deadline_applies_in_submission_order(self, tmp_path):
        items = stream(9)
        monitor = make_sharded(tmp_path)
        clean = [monitor.step(t, txn) for t, txn in items[:3]]
        monitor.set_step_deadline(self.NEVER_ENOUGH)
        shed = [monitor.step(t, txn) for t, txn in items[3:6]]
        monitor.set_step_deadline(None)
        again = [monitor.step(t, txn) for t, txn in items[6:]]
        monitor.close()
        assert not any(r.deferred for r in clean + again)
        assert all(r.deferred == ("window",) for r in shed)

    def test_urgent_constraints_are_never_shed(self, tmp_path):
        items = stream(6)
        monitor = make_sharded(tmp_path)
        monitor.set_step_deadline(self.NEVER_ENOUGH, urgent=("window",))
        got = list(monitor.run(items).steps)
        monitor.close()
        assert got == reference(items)

    @pytest.mark.parametrize("transport", ["inline", "process"])
    def test_respawned_worker_keeps_the_deadline(self, tmp_path, transport):
        # both shards die: a merged report defers what ANY shard shed,
        # so one surviving budget would hide a respawn that lost its own
        chaos = ShardChaosPlan(
            2,
            [
                {"shard": 0, "step": 3, "mode": "before"},
                {"shard": 1, "step": 3, "mode": "torn"},
            ],
            seed=0,
        )
        monitor = ShardedMonitor(
            SCHEMA, key="k", shards=2, journal_root=tmp_path,
            transport=transport, chaos=chaos,
        )
        monitor.add_constraint(*CONSTRAINT)
        monitor.set_step_deadline(self.NEVER_ENOUGH)
        reports = list(monitor.run(stream(8)).steps)
        summary = monitor.supervisor.summary()
        monitor.close()
        assert summary["respawns"] == 2
        assert all(r.deferred == ("window",) for r in reports)

    def test_pressure_deadline_arms_process_workers(self, tmp_path):
        items = stream(30)
        monitor = make_sharded(
            tmp_path, mailbox_capacity=2, pressure_deadline=30.0
        )
        got = list(monitor.run(items).steps)
        summary = monitor.supervisor.summary()
        monitor.close()
        assert got == reference(items)  # 30 s is never exceeded
        assert summary["backpressure_engagements"] >= 1


class TestFrameObservability:
    def test_frame_families_and_summary(self, tmp_path):
        registry = MetricsRegistry()
        monitor = make_sharded(
            tmp_path, instrumentation=MonitorInstrumentation(metrics=registry)
        )
        list(monitor.run(stream(24)).steps)
        summary = monitor.supervisor.summary()
        monitor.close()
        families = {
            name: children for name, _, _, children in registry.families()
        }
        frames = {
            labels["shard"]: child.value
            for labels, child in families["repro_shard_frames_total"]
        }
        steps = {
            labels["shard"]: child.value
            for labels, child in families["repro_shard_frame_steps_total"]
        }
        latency = {
            labels["shard"]: child.count
            for labels, child in families["repro_shard_frame_seconds"]
        }
        assert steps == {"0": 24, "1": 24}
        assert latency == frames
        assert sum(frames.values()) == summary["frames"]
        assert summary["mean_frame_steps"] == 48 / summary["frames"]
        assert summary["mean_frame_steps"] > 1.0

    def test_inline_transport_has_no_frames(self, tmp_path):
        monitor = ShardedMonitor(
            SCHEMA, key="k", shards=2, journal_root=tmp_path
        )
        monitor.add_constraint(*CONSTRAINT)
        list(monitor.run(stream(8)).steps)
        summary = monitor.supervisor.summary()
        monitor.close()
        assert summary["frames"] == 0
        assert summary["mean_frame_steps"] == 0.0
