"""The shard supervisor: dispatch, heartbeats, crash recovery, merge.

Owns the worker pool and the global verdict order.  Per submitted
step it splits the transaction with the plan, mails each shard its
sub-transaction, and pumps the workers round-robin; completed times
merge in submission order (:mod:`repro.shard.merge`).  On the process
transport the mail travels in frames of up to ``mailbox_capacity // 2``
steps and comes back as frames of acknowledgements (see
:mod:`repro.shard.worker`); the supervisor sees one
:class:`~repro.shard.worker.WorkerAck` per ``pump`` either way.

The robustness loop:

* **bounded mailboxes** — a shard whose backlog (queued for a frame,
  sent, or acknowledged and not yet handed over) exceeds the mailbox
  capacity blocks further submission until it drains (dispatch-side
  backpressure), so a shard never has more than ``mailbox_capacity +
  1`` steps in flight; crossing the high-water mark arms the
  configured ``pressure_deadline`` as a
  :class:`~repro.resilience.StepBudget` on that worker's monitor
  (disarmed at the low-water mark) — the same hysteresis the ingest
  queue applies;
* **heartbeats** — liveness is counted in pump rounds, so it is
  deterministic: a live worker with a non-empty mailbox that produces
  nothing for ``stall_timeout`` consecutive pumps is declared stalled
  and killed;
* **crash recovery** — a dead worker's shard is respawned from its
  journal (checkpoint + tail replay, never the full stream); the
  pending steps are redelivered, and the respawned worker answers the
  already-applied ones from the replay.  Each crash emits a
  :class:`~repro.resilience.FaultRecord` carrying the shard id and the
  last-applied step;
* **tombstoning** — with no journal or the respawn budget exhausted,
  the shard is tombstoned: every verdict it owed or will owe becomes a
  *degraded* fragment (its constraints deferred), so the merged run
  accounts for every step — no silent drops.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.violations import StepReport
from repro.db.transactions import Transaction
from repro.errors import MonitorError
from repro.resilience.policy import FaultRecord
from repro.shard.merge import merge_fragments
from repro.shard.partition import ShardPlan
from repro.shard.worker import (
    InlineWorker,
    ProcessWorker,
    WorkerSpec,
    never_attached,
    recover_worker_monitor,
)
from repro.temporal.clock import Timestamp

TRANSPORTS = ("inline", "process")

# repro_shard_* metric families (registered lazily, like the fault and
# ingest families — an uneventful run adds no series).
SHARD_STEPS_TOTAL = "repro_shard_steps_total"
SHARD_MERGES_TOTAL = "repro_shard_merges_total"
SHARD_CRASHES_TOTAL = "repro_shard_crashes_total"
SHARD_RESPAWNS_TOTAL = "repro_shard_respawns_total"
SHARD_REPLAYED_TOTAL = "repro_shard_replayed_steps_total"
SHARD_STALL_KILLS_TOTAL = "repro_shard_stall_kills_total"
SHARD_TOMBSTONES_TOTAL = "repro_shard_tombstones_total"
SHARD_DEGRADED_FRAGMENTS_TOTAL = "repro_shard_degraded_fragments_total"
SHARD_BACKPRESSURE_TOTAL = "repro_shard_backpressure_total"
SHARD_MAILBOX_DEPTH = "repro_shard_mailbox_depth"
SHARD_FRAMES_TOTAL = "repro_shard_frames_total"
SHARD_FRAME_STEPS_TOTAL = "repro_shard_frame_steps_total"
SHARD_FRAME_SECONDS = "repro_shard_frame_seconds"

#: Pump rounds without any global progress before the supervisor gives
#: up — a deadlock backstop far above any legitimate stall budget.
_PROGRESS_LIMIT = 10_000


class _Tombstone:
    """Placeholder for a shard that can no longer produce verdicts."""

    alive = False
    depth = 0

    def __init__(self, shard: int):
        self.shard = shard

    def __repr__(self) -> str:
        return f"Tombstone(shard={self.shard})"


class ShardSupervisor:
    """Supervised worker pool behind :class:`~repro.shard.ShardedMonitor`.

    Args:
        plan: the admission/routing plan.
        specs: one :class:`~repro.shard.worker.WorkerSpec` per shard.
        order: constraint names in registration order (merge order).
        transport: ``"inline"`` (deterministic, default) or
            ``"process"`` (real OS-process isolation).
        chaos: optional :class:`~repro.resilience.ShardChaosPlan`.
        mailbox_capacity: per-shard backlog bound; dispatch blocks
            (pumps) while any live shard exceeds it.  Process workers
            send frames of ``max(1, mailbox_capacity // 2)`` steps.
        stall_timeout: consecutive unproductive pumps after which a
            backlogged worker is declared stalled and killed.
        max_respawns: per-shard crash budget before tombstoning.
        pressure_deadline: optional seconds armed as a step budget on a
            worker whose mailbox crosses the high-water mark.
        urgent: constraint names never shed under pressure.
        metrics: optional metrics registry for ``repro_shard_*``.
        on_fault: callback receiving each crash/stall/tombstone
            :class:`~repro.resilience.FaultRecord`.
        recovered: build workers from their journals (supervisor
            restart) instead of fresh.
    """

    def __init__(
        self,
        plan: ShardPlan,
        specs: List[WorkerSpec],
        order: List[str],
        transport: str = "inline",
        chaos=None,
        mailbox_capacity: int = 8,
        stall_timeout: int = 16,
        max_respawns: int = 2,
        pressure_deadline: Optional[float] = None,
        urgent: Tuple[str, ...] = (),
        metrics=None,
        on_fault: Optional[Callable[[FaultRecord], None]] = None,
        recovered: bool = False,
    ):
        if transport not in TRANSPORTS:
            raise MonitorError(
                f"unknown shard transport {transport!r}; "
                f"choose from {TRANSPORTS}"
            )
        if mailbox_capacity < 1:
            raise MonitorError(
                f"mailbox_capacity must be >= 1, got {mailbox_capacity!r}"
            )
        self.plan = plan
        self.specs = specs
        self.order = list(order)
        self.transport = transport
        self.chaos = chaos
        self.mailbox_capacity = mailbox_capacity
        self.stall_timeout = stall_timeout
        self.max_respawns = max_respawns
        self.pressure_deadline = pressure_deadline
        self.urgent = tuple(urgent)
        self.metrics = metrics
        self.on_fault = on_fault
        #: the pool was rebuilt from its journals (a supervisor restart)
        self.recovered = recovered
        n = len(specs)
        self._events: List[List[dict]] = [
            list(chaos.for_shard(s)) if chaos is not None else []
            for s in range(n)
        ]
        self.recoveries: List[dict] = []
        self.pending: List[Dict[int, Tuple[Timestamp, Transaction]]] = [
            {} for _ in range(n)
        ]
        self.tombstoned: set = set()
        self.respawns = [0] * n
        self.stall_counts = [0] * n
        self.last_delivered = [-1] * n
        self.last_applied: List[Optional[Timestamp]] = [None] * n
        self._pressure_armed = [False] * n
        #: the budget set_step_deadline installed, for respawns
        self._step_deadline: Optional[tuple] = None
        self._fragments: Dict[int, Dict[int, StepReport]] = {}
        self._meta: Dict[int, Tuple[Timestamp, int]] = {}
        self._seq = 0
        self._next_emit = 0
        # accounting (mirrored into metrics when a registry is given)
        self.crashes = 0
        self.stall_kills = 0
        self.replayed_steps = 0
        self.degraded_fragments = 0
        self.backpressure_engagements = 0
        self.max_depth = 0
        self.frames = 0
        self.frame_steps = 0
        self._closed = False
        # spawn last: the recovered path records into the counters above
        self.workers: List[object] = [
            self._spawn(spec, recovered=recovered) for spec in specs
        ]

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def _count(self, family: str, amount: int = 1, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(family, **labels).inc(amount)

    def _spawn(self, spec: WorkerSpec, recovered: bool = False):
        events = self._events[spec.shard]
        if self.transport == "process":
            if spec.journal_dir is not None:
                # what a journaled child needs (and the store behind
                # it): a forked child inherits the modules imported
                # here, instead of every worker compiling them again
                import repro.core.persist  # noqa: F401
            worker = ProcessWorker(spec, chaos=events, recovered=recovered)
            worker.frame_steps = max(1, self.mailbox_capacity // 2)
            worker.on_frame = self._note_frame
            worker.on_recovery = self._note_recovery
            return worker
        if recovered:
            monitor, replayed, recovery = recover_worker_monitor(spec)
            self._note_recovery(recovery)
            return InlineWorker(
                spec, chaos=events, monitor=monitor, replayed=replayed
            )
        return InlineWorker(spec, chaos=events)

    def _note_recovery(self, recovery: dict) -> None:
        """A worker came back from its journal (inline: at once;
        process: when the child reports ready)."""
        self.recoveries.append(recovery)
        self.replayed_steps += recovery["replayed"]
        self._count(
            SHARD_REPLAYED_TOTAL,
            amount=recovery["replayed"],
            shard=str(recovery["shard"]),
            help="Steps replayed from per-shard journals",
        )

    def _note_frame(self, shard: int, steps: int, seconds: float) -> None:
        """A frame's acknowledgements arrived (process transport)."""
        self.frames += 1
        self.frame_steps += steps
        label = str(shard)
        self._count(
            SHARD_FRAMES_TOTAL, shard=label,
            help="Step frames acknowledged by shard workers",
        )
        self._count(
            SHARD_FRAME_STEPS_TOTAL, amount=steps, shard=label,
            help="Steps carried by acknowledged frames",
        )
        if self.metrics is not None:
            self.metrics.histogram(
                SHARD_FRAME_SECONDS, shard=label,
                help="Frame send to acknowledgement-frame receipt",
            ).observe(seconds)

    def _record_fault(self, shard: int, kind: str, reason: str) -> None:
        worker = self.workers[shard]
        last = self.last_applied[shard]
        monitor = getattr(worker, "monitor", None)
        if monitor is not None and monitor.now is not None:
            last = monitor.now
        record = FaultRecord(
            "shard",
            last,
            reason,
            payload={
                "shard": shard,
                "kind": kind,
                "last_applied": last,
                "pending": len(self.pending[shard]),
                "respawns": self.respawns[shard],
            },
            policy="supervise",
        )
        if self.on_fault is not None:
            self.on_fault(record)

    def _tombstone(self, shard: int, reason: str) -> None:
        worker = self.workers[shard]
        if hasattr(worker, "kill"):
            worker.kill()
        self.workers[shard] = _Tombstone(shard)
        self.tombstoned.add(shard)
        self._count(
            SHARD_TOMBSTONES_TOTAL, shard=str(shard),
            help="Shards permanently degraded",
        )
        self._record_fault(shard, "tombstone", reason)
        for seq, (time, _) in sorted(self.pending[shard].items()):
            self._degrade(shard, seq, time)
        self.pending[shard].clear()

    def _degrade(self, shard: int, seq: int, time: Timestamp) -> None:
        self._fragments.setdefault(seq, {})[shard] = (
            self._degraded_report(time)
        )
        self.degraded_fragments += 1
        self._count(
            SHARD_DEGRADED_FRAGMENTS_TOTAL, shard=str(shard),
            help="Verdict fragments degraded on a dead shard",
        )

    def _degraded_report(self, time: Timestamp) -> StepReport:
        return StepReport(time, -1, [], deferred=tuple(self.order))

    def _crash(self, shard: int, kind: str, reason: str) -> None:
        """A worker died (or was stall-killed): respawn or tombstone."""
        self.crashes += 1
        worker = self.workers[shard]
        mode = getattr(worker, "crash_mode", None)
        self._count(
            SHARD_CRASHES_TOTAL, shard=str(shard),
            mode=mode or kind,
            help="Shard worker deaths detected by the supervisor",
        )
        self._record_fault(shard, kind, reason)
        spec = self.specs[shard]
        if spec.journal_dir is None or (
            self.respawns[shard] >= self.max_respawns
        ):
            why = (
                "no journal to recover from"
                if spec.journal_dir is None
                else f"respawn budget ({self.max_respawns}) exhausted"
            )
            self._tombstone(shard, f"shard {shard} tombstoned: {why}")
            return
        self.respawns[shard] += 1
        self._count(
            SHARD_RESPAWNS_TOTAL, shard=str(shard),
            help="Shard workers respawned from their journals",
        )
        if hasattr(worker, "kill"):
            worker.kill()
        # chaos events already consumed by the dead incarnation must
        # not re-fire on redelivery: drop the fired ones (a dying child
        # names its injection, see ProcessWorker) and whatever lies at
        # or before the crash frontier
        crash_seq = min(self.pending[shard], default=self.last_delivered[shard])
        self._events[shard] = [
            e for e in self._events[shard]
            if not e.get("fired") and e.get("step", -1) > crash_seq
        ]
        # a worker killed in its start-up window (before its attach
        # checkpoint) left nothing to recover, and nothing it did was
        # ever acknowledged: it starts over.  Any other journal that
        # does not recover still costs the shard.
        start_over = (
            not self.recovered
            and self.last_applied[shard] is None
            and never_attached(spec)
        )
        replacement = self._spawn(spec, recovered=not start_over)
        self.workers[shard] = replacement
        self.stall_counts[shard] = 0
        self._pressure_armed[shard] = False
        if self._step_deadline is not None:
            replacement.set_step_deadline(*self._step_deadline)
        for seq, (time, txn) in sorted(self.pending[shard].items()):
            replacement.submit(seq, time, txn)

    # ------------------------------------------------------------------
    # dispatch and pumping
    # ------------------------------------------------------------------

    def submit(self, time: Timestamp, txn: Transaction,
               index: int) -> List[StepReport]:
        """Route one step to every shard; return any completed merges.

        Blocks (by pumping) while a live shard's mailbox exceeds the
        capacity bound — dispatch-side backpressure.
        """
        if self._closed:
            raise MonitorError("the shard supervisor is closed")
        seq = self._seq
        self._seq += 1
        self._meta[seq] = (time, index)
        subs = self.plan.split(txn)
        for shard, worker in enumerate(self.workers):
            if shard in self.tombstoned:
                self._degrade(shard, seq, time)
                continue
            worker.submit(seq, time, subs[shard])
            self.pending[shard][seq] = (time, subs[shard])
            self.last_delivered[shard] = seq
            self.max_depth = max(self.max_depth, worker.depth)
            self._count(
                SHARD_STEPS_TOTAL, shard=str(shard),
                help="Steps dispatched to shard workers",
            )
        ready = self._drain_ready()
        guard = 0
        while self._over_capacity():
            self._count(
                SHARD_BACKPRESSURE_TOTAL,
                help="Dispatches blocked on a full shard mailbox",
            )
            progressed = self._pump_round()
            ready.extend(self._drain_ready())
            guard = 0 if progressed else guard + 1
            if guard > _PROGRESS_LIMIT:
                raise MonitorError(
                    "shard supervisor made no progress while "
                    "backpressured; a worker is wedged beyond the "
                    "stall budget"
                )
        self._apply_pressure()
        return ready

    def _over_capacity(self) -> bool:
        return any(
            shard not in self.tombstoned
            and worker.depth > self.mailbox_capacity
            for shard, worker in enumerate(self.workers)
        )

    def _apply_pressure(self) -> None:
        """Arm/disarm per-worker step budgets as backlogs move."""
        if self.pressure_deadline is None:
            return
        low = max(1, self.mailbox_capacity // 4)
        for shard, worker in enumerate(self.workers):
            if shard in self.tombstoned:
                continue
            if not self._pressure_armed[shard] and (
                worker.depth >= self.mailbox_capacity
            ):
                worker.set_step_deadline(
                    self.pressure_deadline, urgent=self.urgent
                )
                self._pressure_armed[shard] = True
                self.backpressure_engagements += 1
            elif self._pressure_armed[shard] and worker.depth <= low:
                # back to the budget the caller set, if any
                worker.set_step_deadline(*(self._step_deadline or (None,)))
                self._pressure_armed[shard] = False

    def _pump_round(self) -> bool:
        """Pump every live worker once; handle deaths and stalls.

        Returns whether any shard made progress (an ack, a crash
        handled, or a tombstone laid counts — all move the run
        forward).
        """
        progressed = False
        for shard, worker in enumerate(self.workers):
            if shard in self.tombstoned:
                continue
            ack = worker.pump()
            if ack is not None:
                self._note_ack(shard, ack)
                progressed = True
                continue
            if not worker.alive:
                self._crash(
                    shard, "crash",
                    f"shard {shard} worker died "
                    f"(mode={getattr(worker, 'crash_mode', None)!r}) "
                    f"with {len(self.pending[shard])} step(s) in flight",
                )
                progressed = True
                continue
            if not getattr(worker, "ready", True):
                # still warming up (process spawn + journal replay);
                # heartbeats start once the child reports ready
                continue
            if self.pending[shard]:
                self.stall_counts[shard] += 1
                if self.stall_counts[shard] > self.stall_timeout:
                    self.stall_kills += 1
                    self._count(
                        SHARD_STALL_KILLS_TOTAL, shard=str(shard),
                        help="Workers killed after missing heartbeats",
                    )
                    worker.kill()
                    self._crash(
                        shard, "stall",
                        f"shard {shard} worker missed "
                        f"{self.stall_counts[shard]} heartbeat(s) with "
                        f"{len(self.pending[shard])} step(s) in flight",
                    )
                    progressed = True
        return progressed

    def _note_ack(self, shard: int, ack) -> None:
        self.stall_counts[shard] = 0
        self.pending[shard].pop(ack.seq, None)
        report = ack.report
        self.last_applied[shard] = report.time
        if ack.replayed and report.index < 0:
            # unrecoverable pre-checkpoint verdict — degraded
            self.degraded_fragments += 1
            self._count(
                SHARD_DEGRADED_FRAGMENTS_TOTAL, shard=str(shard),
                help="Verdict fragments degraded on a dead shard",
            )
        self._fragments.setdefault(ack.seq, {})[shard] = report

    def _drain_ready(self) -> List[StepReport]:
        """Merge every completed seq at the emission frontier."""
        out: List[StepReport] = []
        shards = len(self.workers)
        while (
            self._next_emit in self._fragments
            and len(self._fragments[self._next_emit]) == shards
        ):
            seq = self._next_emit
            self._next_emit += 1
            time, index = self._meta.pop(seq)
            fragments = self._fragments.pop(seq)
            out.append(
                merge_fragments(time, index, fragments, self.plan, self.order)
            )
            self._count(
                SHARD_MERGES_TOTAL, help="Global verdicts merged"
            )
        if self.metrics is not None:
            for shard, worker in enumerate(self.workers):
                self.metrics.gauge(
                    SHARD_MAILBOX_DEPTH, shard=str(shard),
                    help="Per-shard mailbox backlog",
                ).set(worker.depth)
        return out

    def flush(self) -> List[StepReport]:
        """Pump until every submitted step has merged."""
        out = self._drain_ready()
        guard = 0
        while self._next_emit < self._seq:
            progressed = self._pump_round()
            out.extend(self._drain_ready())
            guard = 0 if progressed else guard + 1
            if guard > _PROGRESS_LIMIT:
                raise MonitorError(
                    "shard supervisor made no progress while flushing; "
                    "a worker is wedged beyond the stall budget"
                )
        self._apply_pressure()
        return out

    @property
    def in_flight(self) -> int:
        """Submitted steps not yet merged."""
        return self._seq - self._next_emit

    def set_step_deadline(self, deadline, urgent=()) -> None:
        """Forward a budget change to every live worker (and to the
        respawns that replace them)."""
        self._step_deadline = (
            None if deadline is None else (deadline, tuple(urgent))
        )
        for shard, worker in enumerate(self.workers):
            if shard not in self.tombstoned:
                worker.set_step_deadline(deadline, urgent=urgent)

    # ------------------------------------------------------------------
    # reporting / shutdown
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Supervision accounting (CLI / test reporting)."""
        return {
            "shards": len(self.workers),
            "transport": self.transport,
            "crashes": self.crashes,
            "respawns": sum(self.respawns),
            "stall_kills": self.stall_kills,
            "tombstoned": sorted(self.tombstoned),
            "replayed_steps": self.replayed_steps,
            "degraded_fragments": self.degraded_fragments,
            "backpressure_engagements": self.backpressure_engagements,
            "max_mailbox_depth": self.max_depth,
            "in_flight": self.in_flight,
            "frames": self.frames,
            "mean_frame_steps": (
                self.frame_steps / self.frames if self.frames else 0.0
            ),
        }

    def close(self) -> None:
        """Shut every worker down (journals released)."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            if hasattr(worker, "close"):
                worker.close()

    def __repr__(self) -> str:
        return (
            f"ShardSupervisor({len(self.workers)} shard(s), "
            f"{self.crashes} crash(es), "
            f"{len(self.tombstoned)} tombstoned)"
        )
