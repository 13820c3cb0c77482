"""Shard workers: isolated monitors the supervisor can kill and revive.

Each worker owns one full :class:`~repro.core.monitor.Monitor` (its
own incremental checker and, when a journal root is configured, its
own ``RunJournal`` under ``<root>/shard-NNNN/``) and processes the
sub-transactions routed to its partition in submission order.

Two transports share one protocol (``submit`` / ``pump`` /
``set_step_deadline`` / ``alive`` / ``kill``) and one serve routine,
:meth:`ShardServer.serve`:

* :class:`InlineWorker` — in-process and fully deterministic: one
  mailbox item per ``pump``, so the chaos harness's injection points
  (kill-before-step, torn handoff, stall) are exact, which is what the
  keystone equivalence tests need;
* :class:`ProcessWorker` — a real ``multiprocessing`` child behind a
  pipe, for genuine fault isolation (a crash is ``os._exit``, not a
  flag).

Frames.  Steps and acknowledgements cross the pipe in *frames*, never
one by one.  ``ProcessWorker.submit`` queues into an outbox that goes
out as one ``("frame", items)`` message when it holds
:attr:`ProcessWorker.frame_steps` items, or as soon as the child has
no frame in flight (an idle child is sent its step at once, so a
synchronous step is a frame of one, sent to every shard before the
supervisor waits on any); the child answers each frame with one
``("acks", [(seq, report, replayed), ...])`` message, which ``pump``
hands out one :class:`WorkerAck` at a time without touching the pipe
(a frame that begins with redelivered steps comes back in two: the
replay answers leave before anything fresh is applied).  An item is a
step ``(seq, time, txn)`` or the control item ``(None, deadline,
urgent)``, a step-budget change applied between the steps around it.
The other messages are the child's ``("ready", recovery)`` handshake,
``("stop",)`` / ``("stopped",)``, and ``("crash", seq, mode)``, by
which a chaos-killed child names the injection that fired.

Durability protocol, per frame: a worker journals every applied step
(``sync`` defaults on for shard journals) but commits the journal
*once*, after the frame's last step, and only then sends the
acknowledgements — **journal-then-ack**: no acknowledgement leaves a
worker before the journal holds its step.  It also *manages its own
checkpoint cadence*, checkpointing only after the acknowledgements
are on their way out — **checkpoint-after-ack**.  The auto-cadence
inside ``RunJournal`` would truncate the journal in the same call that
appends the record, so a torn handoff (crash after apply+journal,
before ack) at a checkpoint boundary would swallow the record and lose
the verdict; with the worker-managed order the torn records are always
still in the tail, and recovery replay regenerates the exact reports
the acknowledgements would have carried.  A crash in the middle of a
frame loses what the frame had applied and not yet committed — all of
it unacknowledged, so the supervisor still holds every such step and
redelivers it.

A recovered worker answers redelivered steps at or before its restored
frontier from the replay (:attr:`ShardServer.replayed`) instead of
re-stepping — re-applying a transaction twice would corrupt the
checker — and falls back to a *degraded* fragment (all its constraint
names deferred) only when the verdict predates the last checkpoint and
is genuinely unrecoverable.
"""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.monitor import Monitor
from repro.core.violations import StepReport
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.temporal.clock import Timestamp

#: RunJournal auto-checkpoint cadence is disabled for shard workers —
#: the worker checkpoints explicitly, after acking (see module doc).
NEVER_CHECKPOINT = 1 << 60

#: Exit codes a chaos-crashed worker process dies with, by crash mode.
CRASH_EXIT = {"before": 17, "torn": 18}


class WorkerSpec:
    """Everything needed to (re)build one shard's monitor.

    Plain picklable data — the process transport ships it through the
    pipe, and the supervisor rebuilds from it on every respawn.
    """

    __slots__ = (
        "shard",
        "schema",
        "constraints",
        "journal_dir",
        "checkpoint_every",
        "sync",
    )

    def __init__(
        self,
        shard: int,
        schema: dict,
        constraints: List[tuple],
        journal_dir: Optional[str] = None,
        checkpoint_every: int = 64,
        sync: bool = True,
    ):
        self.shard = shard
        self.schema = schema
        self.constraints = list(constraints)
        self.journal_dir = str(journal_dir) if journal_dir else None
        self.checkpoint_every = checkpoint_every
        self.sync = sync

    def __repr__(self) -> str:
        return (
            f"WorkerSpec(shard={self.shard}, "
            f"{len(self.constraints)} constraint(s), "
            f"journal={self.journal_dir!r})"
        )


def build_worker_monitor(spec: WorkerSpec) -> Monitor:
    """A fresh monitor for one shard, journaled when configured."""
    schema = DatabaseSchema.from_dict(spec.schema)
    monitor = Monitor(schema, engine="incremental")
    for name, text in spec.constraints:
        monitor.add_constraint(name, text)
    if spec.journal_dir is not None:
        Path(spec.journal_dir).mkdir(parents=True, exist_ok=True)
        monitor.enable_journal(
            spec.journal_dir,
            checkpoint_every=NEVER_CHECKPOINT,
            sync=spec.sync,
        )
    return monitor


def recover_worker_monitor(spec: WorkerSpec):
    """Rebuild a shard monitor from its journal after a crash.

    Returns ``(monitor, replayed, recovery)`` where ``replayed`` maps
    each journal-replayed timestamp to the regenerated
    :class:`~repro.core.violations.StepReport` — the acknowledgements
    the dead incarnation never delivered — and ``recovery`` is the
    plain-data summary the supervisor keeps.
    """
    monitor, result = Monitor.recover(
        spec.journal_dir,
        sync=spec.sync,
        checkpoint_every=NEVER_CHECKPOINT,
    )
    replayed = {report.time: report for report in result.replayed.steps}
    recovery = {
        "shard": spec.shard,
        "checkpoint_time": result.checkpoint_time,
        "replayed": len(replayed),
        "now": monitor.now,
    }
    return monitor, replayed, recovery


def never_attached(spec: WorkerSpec) -> bool:
    """Whether the shard's journal directory holds nothing to recover.

    True when no checkpoint generation loads *and* no journal record
    is readable: what a worker killed in its start-up window — before
    its attach checkpoint was renamed into place — leaves behind.  It
    served no step, so a fresh worker may take the directory over.
    """
    from repro.store.segment import SegmentStore

    with SegmentStore(spec.journal_dir, lock=False) as store:
        snapshot = store.load()
    return snapshot.document is None and not snapshot.records


def degraded_fragment(time, constraints) -> StepReport:
    """The fragment for a verdict that is lost but accounted.

    Carries no violations and defers every constraint the shard
    evaluates — the merged step is explicitly *degraded*, never
    silently dropped.  The index is a sentinel; the supervisor assigns
    the global index at merge time.
    """
    return StepReport(
        time, -1, [], deferred=tuple(c.name for c in constraints)
    )


class WorkerAck:
    """One processed step flowing back to the supervisor."""

    __slots__ = ("shard", "seq", "report", "replayed")

    def __init__(
        self, shard: int, seq: int, report: StepReport, replayed: bool
    ):
        self.shard = shard
        self.seq = seq
        self.report = report
        self.replayed = replayed

    def __repr__(self) -> str:
        mark = ", replayed" if self.replayed else ""
        return f"WorkerAck(shard={self.shard}, seq={self.seq}{mark})"


class ShardServer:
    """One incarnation of a shard: its monitor, and how it serves.

    Both transports answer through :meth:`serve` — the inline worker
    with frames of one item, the child process with whatever frame the
    pipe delivered.

    Args:
        spec: the shard's build recipe.
        chaos: injected fault events for this shard (dicts with
            ``step`` = global submission seq, ``mode`` in
            ``before``/``torn``/``stall``); each fires at most once.
        monitor: a pre-built monitor (the respawn path passes the
            recovered one).
        replayed: journal-replayed reports by timestamp (respawn path).
    """

    def __init__(
        self,
        spec: WorkerSpec,
        chaos: Optional[List[dict]] = None,
        monitor: Optional[Monitor] = None,
        replayed: Optional[Dict[Timestamp, StepReport]] = None,
    ):
        self.spec = spec
        self.shard = spec.shard
        self.monitor = monitor if monitor is not None else (
            build_worker_monitor(spec)
        )
        if self.monitor.journal is not None:
            # serve() commits once per frame
            self.monitor.journal.group_commit = True
        self.chaos = list(chaos or ())
        self.replayed = dict(replayed or {})
        #: steps applied by THIS incarnation (a respawn starts at 0 —
        #: the replay-not-reprocess assertions key off this)
        self.steps_applied = 0
        self._since_checkpoint = 0

    def chaos_event(self, seq: int, modes: Sequence[str]) -> Optional[dict]:
        """Fire (at most once) the injected event at ``seq``, if any."""
        for event in self.chaos:
            if (
                not event.get("fired")
                and event.get("step") == seq
                and event.get("mode") in modes
            ):
                event["fired"] = True
                return event
        return None

    def serve(
        self,
        items: Sequence[tuple],
        send: Callable[[List[tuple]], None],
        die: Callable[[int, str], None],
    ) -> None:
        """Serve one frame: apply, commit the journal, acknowledge.

        ``send`` receives the frame's acknowledgements — ``(seq,
        report, replayed)`` per step — after the journal commit that
        covers them has returned (and once before that, for the replay
        answers a redelivered frame begins with); the checkpoint, when
        its cadence is reached, comes after ``send``.  ``die(seq,
        mode)`` is the injected crash (a process exit, or the inline
        worker's flag): *before* a step it takes the frame's
        uncommitted records with it, a *torn* handoff commits them and
        dies unacknowledged.
        """
        monitor = self.monitor
        journal = monitor.journal
        acks: List[tuple] = []
        applied = 0
        for seq, time, txn in items:
            if seq is None:
                monitor.set_step_deadline(time, urgent=txn)
                continue
            now = monitor.now
            if now is not None and time <= now:
                # Redelivered step this incarnation already holds: answer
                # from the journal replay; a pre-checkpoint verdict is
                # unrecoverable and degrades explicitly.
                report = self.replayed.get(time)
                if report is None:
                    report = degraded_fragment(time, monitor.constraints)
                acks.append((seq, report, True))
                continue
            if acks and not applied:
                # replay answers live only in this incarnation's memory
                # (re-attaching the journal checkpointed past them):
                # they leave before a fresh step can take it down
                send(acks)
                acks = []
            event = self.chaos_event(seq, ("before", "torn"))
            if event is not None and event["mode"] == "before":
                # died before applying: nothing of this step journaled,
                # the supervisor redelivers to the respawn
                return die(seq, "before")
            report = monitor.step(time, txn)
            self.steps_applied += 1
            applied += 1
            if event is not None:
                # died after apply+journal, before ack: the records are
                # in the journal tail, replay regenerates these reports
                if journal is not None:
                    journal.commit()
                return die(seq, "torn")
            acks.append((seq, report, False))
        if journal is not None:
            if applied:
                journal.commit()
            self._since_checkpoint += applied
        send(acks)
        if self._since_checkpoint >= self.spec.checkpoint_every:
            monitor.checkpoint()
            self._since_checkpoint = 0

    def close(self) -> None:
        """Release the journal (file handle and writer lock)."""
        if self.monitor.journal is not None:
            self.monitor.journal.close()


class InlineWorker(ShardServer):
    """Deterministic in-process worker with exact chaos injection.

    The supervisor drives it by discrete ``pump()`` calls — one
    mailbox item per pump, served as a frame of one — so stalls,
    crashes, and backpressure are reproducible pump-for-pump in tests.
    Constructor arguments are :class:`ShardServer`'s.
    """

    transport = "inline"
    #: inline workers have no startup latency — always heartbeat-ready
    ready = True

    def __init__(self, spec, chaos=None, monitor=None, replayed=None):
        super().__init__(spec, chaos, monitor, replayed)
        self.mailbox: deque = deque()
        self.dead = False
        self.crash_mode: Optional[str] = None
        self._stall = 0

    @property
    def alive(self) -> bool:
        return not self.dead

    @property
    def depth(self) -> int:
        """Mailbox backlog (the supervisor's backpressure signal)."""
        return len(self.mailbox)

    def submit(self, seq: int, time: Timestamp, txn: Transaction) -> None:
        self.mailbox.append((seq, time, txn))

    def set_step_deadline(self, deadline, urgent=()) -> None:
        """Install or clear the step budget, at once: the monitor is in
        this process and between two steps whenever this is called."""
        self.monitor.set_step_deadline(deadline, urgent=urgent)

    def _die(self, seq: int, mode: str) -> None:
        self.dead = True
        self.crash_mode = mode

    def pump(self) -> Optional[WorkerAck]:
        """Process at most one mailbox item; return its ack, if any.

        Returns ``None`` when dead, stalled, idle — or when a chaos
        kill fired (the supervisor discovers the death via
        :attr:`alive` and recovers the lost acknowledgement from the
        journal).
        """
        if self.dead:
            return None
        if self._stall > 0:
            self._stall -= 1
            return None
        if not self.mailbox:
            return None
        seq, time, _ = self.mailbox[0]
        now = self.monitor.now
        if now is None or time > now:
            event = self.chaos_event(seq, ("stall",))
            if event is not None:
                self._stall = int(event.get("duration", 1))
                return None
        acks: List[tuple] = []
        self.serve([self.mailbox.popleft()], acks.extend, self._die)
        if not acks:
            return None
        return WorkerAck(self.shard, *acks[0])

    def kill(self) -> None:
        """Tear the worker down (crash cleanup or tombstoning)."""
        self.dead = True
        self.close()

    def __repr__(self) -> str:
        state = "dead" if self.dead else f"depth={self.depth}"
        return f"InlineWorker(shard={self.shard}, {state})"


# ----------------------------------------------------------------------
# process transport
# ----------------------------------------------------------------------

def _worker_main(conn, spec: WorkerSpec, chaos: List[dict],
                 recovered: bool) -> None:
    """Child-process loop: rebuild the monitor, serve the pipe."""
    if recovered:
        monitor, replayed, recovery = recover_worker_monitor(spec)
        server = ShardServer(spec, chaos, monitor, replayed)
    else:
        server, recovery = ShardServer(spec, chaos), None
    # readiness handshake: imports + journal replay can take long
    # enough that the supervisor's heartbeat would otherwise count the
    # warm-up as a stall and kill a healthy child
    conn.send(("ready", recovery))

    def send(acks: List[tuple]) -> None:
        conn.send(("acks", acks))

    def die(seq: int, mode: str) -> None:
        # the supervisor prunes fired injections before it respawns;
        # its copy of the chaos plan cannot see this process's marks
        conn.send(("crash", seq, mode))
        os._exit(CRASH_EXIT[mode])

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            server.close()
            conn.send(("stopped",))
            break
        server.serve(message[1], send, die)


class ProcessWorker:
    """A shard monitor in its own OS process, behind a pipe.

    Same protocol as :class:`InlineWorker`; crashes are real process
    exits, detected as a broken pipe or a dead child.  ``pump`` polls
    briefly rather than blocking so the supervisor's round-robin loop
    keeps servicing the other shards while one is slow.
    """

    transport = "process"
    #: outbox size that sends a frame while the child is still busy
    #: with an earlier one; the supervisor sets it to half its mailbox
    #: capacity
    frame_steps = 1
    #: supervisor hooks: ``on_frame(shard, steps, seconds)`` when a
    #: frame's acknowledgements arrive (seconds from its send), and
    #: ``on_recovery(recovery)`` when a respawned child reports ready
    on_frame: Optional[Callable[[int, int, float], None]] = None
    on_recovery: Optional[Callable[[dict], None]] = None

    def __init__(
        self,
        spec: WorkerSpec,
        chaos: Optional[List[dict]] = None,
        recovered: bool = False,
        poll_timeout: float = 0.05,
    ):
        import multiprocessing

        self.spec = spec
        self.shard = spec.shard
        self.poll_timeout = poll_timeout
        self.chaos = list(chaos or ())
        self.steps_applied = 0
        self.dead = False
        #: set once the child reports its monitor is built/recovered;
        #: the supervisor's stall heartbeat skips warming workers
        self.ready = False
        #: the pipe broke on a send; the child is gone, but buffered
        #: acknowledgements may still be readable — death is declared
        #: only once they are drained
        self._broken = False
        self.crash_mode: Optional[str] = None
        #: items queued for the next frame
        self._outbox: List[tuple] = []
        #: [steps unanswered, steps, send time] of every frame in flight
        self._frames: deque = deque()
        #: acknowledgements received and not yet handed out
        self._acks: deque = deque()
        #: steps submitted and not yet handed back: outbox + sent +
        #: acknowledged-but-buffered
        self.depth = 0
        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, spec, self.chaos, recovered),
            daemon=True,
        )
        self.process.start()
        child.close()

    @property
    def alive(self) -> bool:
        # a dead child's acknowledgements stay readable after it exits
        # (here or still in the pipe); the worker counts as alive until
        # they are drained, so the supervisor computes the crash
        # frontier from a fully acknowledged pending set
        if self.dead:
            return False
        if self._acks:
            return True
        if (
            self._broken or not self.process.is_alive()
        ) and not self._conn.poll():
            self.dead = True
        return not self.dead

    def submit(self, seq: int, time: Timestamp, txn: Transaction) -> None:
        self.depth += 1
        self._outbox.append((seq, time, txn))
        if len(self._outbox) >= self.frame_steps or not self._frames:
            # full, or the child has nothing in flight: waiting for
            # more would only leave it idle
            self._send_frame()

    def set_step_deadline(self, deadline, urgent=()) -> None:
        """Install or clear the child's step budget, in band: it takes
        effect after the steps already submitted."""
        self._outbox.append((None, deadline, tuple(urgent)))

    def _send_frame(self) -> None:
        items, self._outbox = self._outbox, []
        steps = sum(1 for item in items if item[0] is not None)
        self._frames.append([steps, steps, perf_counter()])
        try:
            self._conn.send(("frame", items))
        except (BrokenPipeError, OSError):
            self._broken = True

    def pump(self) -> Optional[WorkerAck]:
        """Hand out one acknowledgement, going to the pipe only when
        none is buffered."""
        if self.dead:
            return None
        if not self._acks:
            self._exchange()
            if not self._acks:
                return None
        seq, report, replayed = self._acks.popleft()
        self.depth -= 1
        if not replayed:
            self.steps_applied += 1
        return WorkerAck(self.shard, seq, report, replayed)

    def _exchange(self) -> None:
        """Read at most one message; first send the outbox when the
        child has nothing in flight and would never answer otherwise."""
        if self._outbox and not self._frames:
            self._send_frame()
        try:
            if not self._conn.poll(self.poll_timeout):
                if self._broken or not self.process.is_alive():
                    self.dead = True
                return
            message = self._conn.recv()
        except (EOFError, OSError):
            self.dead = True
            return
        kind = message[0]
        if kind == "acks":
            self._acks.extend(message[1])
            frame = self._frames[0]
            frame[0] -= len(message[1])
            if frame[0] <= 0:
                # a frame that began with replay answers came back in two
                _, steps, sent = self._frames.popleft()
                if self.on_frame is not None:
                    self.on_frame(self.shard, steps, perf_counter() - sent)
        elif kind == "ready":
            self.ready = True
            if message[1] is not None and self.on_recovery is not None:
                self.on_recovery(message[1])
        elif kind == "crash":
            _, seq, self.crash_mode = message
            for event in self.chaos:
                if event.get("step") == seq and (
                    event.get("mode") == self.crash_mode
                ):
                    event["fired"] = True

    def kill(self) -> None:
        self.dead = True
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        self._conn.close()

    def close(self) -> None:
        if self.dead:
            return
        try:
            self._conn.send(("stop",))
            if self._conn.poll(2):
                self._conn.recv()
        except (BrokenPipeError, OSError, EOFError):
            pass
        self.process.join(timeout=5)
        self.dead = True
        self._conn.close()

    def __repr__(self) -> str:
        state = "dead" if self.dead else f"pid={self.process.pid}"
        return f"ProcessWorker(shard={self.shard}, {state})"
