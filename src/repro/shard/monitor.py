"""`ShardedMonitor` — the fault-isolated, partitioned monitor façade.

Drop-in for :class:`~repro.core.monitor.Monitor` on shardable
workloads::

    from repro.shard import ShardedMonitor

    monitor = ShardedMonitor(schema, key="sensor", shards=4,
                             journal_root="journal")
    monitor.add_constraint(
        "alarm-justified",
        "alarm(s) -> ONCE[0,10] reading(s, 2)",
    )
    report = monitor.step(3, txn)     # merged across the 4 workers
    assert monitor.accounting()["verdicts"] == 1

Updates hash-partition by the ``key`` attribute's value across N
isolated workers (each a full ``Monitor`` with its own checker and
per-shard journal under ``<root>/shard-NNNN/``); verdicts merge back
bit-for-bit equal to the single-process run — including under injected
worker crashes, which recover by journal replay (see
:mod:`repro.shard.supervisor` for the failure handling and
:mod:`repro.shard.partition` for when a constraint shards).

The façade is the fault *boundary*: timestamps and transactions are
validated before splitting, so a poisoned input is skipped or
quarantined supervisor-side (under the usual
:class:`~repro.resilience.FaultPolicy`) and the workers only ever see
clean steps.  The accounting identity — every fed step is exactly one
of a verdict, a degraded verdict, or a shed (skipped) step — is
exposed by :meth:`accounting` and holds whenever nothing is in
flight.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.checker import Constraint
from repro.core.formulas import Formula
from repro.core.monitor import MonitorFacade
from repro.core.parser import parse
from repro.core.violations import RunReport, StepReport
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import HistoryError, MonitorError
from repro.resilience.policy import FAULT_ERRORS, classify_fault
from repro.temporal.clock import Timestamp, validate_successor
from repro.temporal.stream import UpdateStream

if TYPE_CHECKING:
    from repro.shard.supervisor import ShardSupervisor
    from repro.shard.worker import WorkerSpec

MANIFEST_NAME = "shard-plan.json"


def _shard_dir(root: Path, shard: int) -> Path:
    return root / f"shard-{shard:04d}"


class ShardedMonitor(MonitorFacade):
    """Hash-partitioned monitoring across a supervised worker pool.

    Registration of constraint files and handlers, isolated dispatch,
    the fault policy, ``record_fault`` and ``feed`` are the shared
    :class:`~repro.core.monitor.MonitorFacade`'s; this class is the
    submit/flush transport over the workers and its accounting.
    """

    engine = "incremental"
    #: the supervisor-side fault series are labelled apart from the
    #: workers' own
    _series_engine = "sharded"

    def __init__(
        self,
        schema: DatabaseSchema,
        key: str,
        shards: int = 4,
        journal_root=None,
        checkpoint_every: int = 64,
        sync: bool = True,
        on_unkeyed: str = "reject",
        transport: str = "inline",
        chaos=None,
        mailbox_capacity: int = 8,
        stall_timeout: int = 16,
        max_respawns: int = 2,
        pressure_deadline: Optional[float] = None,
        urgent: Sequence[str] = (),
        instrumentation=None,
        fault_policy=None,
        quarantine_log=None,
    ):
        """Args:
            schema: the database schema.
            key: attribute designating keyed relations (see
                :class:`~repro.shard.ShardPlan`).
            shards: number of worker partitions.
            journal_root: directory receiving the ``shard-plan.json``
                manifest and one journal per shard; ``None`` disables
                persistence (crashed shards then tombstone instead of
                recovering).
            checkpoint_every: per-shard checkpoint cadence (steps).
            sync: fsync journal records and checkpoints (default on —
                an acknowledged step must survive a host crash).
            on_unkeyed: ``"reject"`` or ``"broadcast"`` for constraints
                touching no keyed relation.
            transport: ``"inline"`` (deterministic) or ``"process"``.
            chaos: optional
                :class:`~repro.resilience.ShardChaosPlan` of injected
                worker faults (tests, smoke runs).
            mailbox_capacity: per-shard backlog bound (backpressure);
                the process transport sends steps in frames of half
                this many.
            stall_timeout: heartbeat budget in pump rounds.
            max_respawns: per-shard crash budget before tombstoning.
            pressure_deadline: step budget (seconds) armed on a worker
                whose mailbox crosses the capacity mark.
            urgent: constraint names never shed under pressure.
            instrumentation: optional instrumentation whose metrics
                registry receives the ``repro_shard_*`` families.
            fault_policy: supervisor-side
                :class:`~repro.resilience.FaultPolicy` for poisoned
                inputs (and the channel shard-crash records ride).
            quarantine_log: optional
                :class:`~repro.resilience.QuarantineLog` or path.
        """
        from repro.shard.partition import ShardPlan

        super().__init__(
            schema, instrumentation, fault_policy, quarantine_log
        )
        self.key = key
        self.shards = shards
        self.plan = ShardPlan(schema, key, shards, on_unkeyed=on_unkeyed)
        self.journal_root = (
            Path(journal_root) if journal_root is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.sync = sync
        self.transport = transport
        self.chaos = chaos
        self.mailbox_capacity = mailbox_capacity
        self.stall_timeout = stall_timeout
        self.max_respawns = max_respawns
        self.pressure_deadline = pressure_deadline
        self.urgent = tuple(urgent)
        self._texts: List[tuple] = []
        self._supervisor: Optional[ShardSupervisor] = None
        self._now: Optional[Timestamp] = None
        self._index = 0
        self._steps_fed = 0
        self._verdicts = 0
        self._degraded = 0
        self._shed = 0

    @property
    def telemetry(self):
        """Event-time telemetry is per-worker; the façade has none."""
        return None

    @property
    def now(self) -> Optional[Timestamp]:
        """Timestamp of the last accepted step (None before any)."""
        return self._now

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def add_constraint(
        self, name: str, formula: Union[str, Formula]
    ) -> Constraint:
        """Register one constraint; it must route cleanly on the plan.

        Raises:
            ShardingError: when the constraint cannot be partitioned
                by the shard key (with a rewrite hint).
        """
        if self._supervisor is not None:
            raise MonitorError(
                "constraints must be registered before the first step"
            )
        if any(c.name == name for c in self.constraints):
            raise MonitorError(f"duplicate constraint name {name!r}")
        text = formula if isinstance(formula, str) else str(formula)
        if isinstance(formula, str):
            formula = parse(formula)
        constraint = Constraint(name, formula)
        constraint.validate_schema(self.schema)
        self.plan.admit(constraint)
        self.constraints.append(constraint)
        self._texts.append((name, text))
        return constraint

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------

    def _specs(self) -> List[WorkerSpec]:
        from repro.shard.worker import WorkerSpec

        return [
            WorkerSpec(
                shard,
                self.schema.to_dict(),
                list(self._texts),
                journal_dir=(
                    str(_shard_dir(self.journal_root, shard))
                    if self.journal_root is not None
                    else None
                ),
                checkpoint_every=self.checkpoint_every,
                sync=self.sync,
            )
            for shard in range(self.shards)
        ]

    def _write_manifest(self) -> None:
        if self.journal_root is None:
            return
        from repro.shard.partition import PLAN_VERSION

        self.journal_root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": PLAN_VERSION,
            "schema": self.schema.to_dict(),
            "key": self.key,
            "shards": self.shards,
            "on_unkeyed": self.plan.on_unkeyed,
            "checkpoint_every": self.checkpoint_every,
            "sync": self.sync,
            "constraints": [list(pair) for pair in self._texts],
            "plan": self.plan.to_dict(),
        }
        path = self.journal_root / MANIFEST_NAME
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

    def _build_supervisor(self, recovered: bool = False) -> ShardSupervisor:
        if not self.constraints:
            raise MonitorError(
                "register at least one constraint before stepping"
            )
        from repro.shard.supervisor import ShardSupervisor

        if not recovered:
            self._write_manifest()
        return ShardSupervisor(
            self.plan,
            self._specs(),
            order=[c.name for c in self.constraints],
            transport=self.transport,
            chaos=self.chaos,
            mailbox_capacity=self.mailbox_capacity,
            stall_timeout=self.stall_timeout,
            max_respawns=self.max_respawns,
            pressure_deadline=self.pressure_deadline,
            urgent=self.urgent,
            metrics=self._metrics(),
            on_fault=self._shard_fault,
            recovered=recovered,
        )

    @property
    def supervisor(self) -> ShardSupervisor:
        """The worker pool (created lazily at first use)."""
        if self._supervisor is None:
            self._supervisor = self._build_supervisor()
        return self._supervisor

    def _shard_fault(self, record) -> None:
        """Route a supervisor fault record into quarantine + alerts."""
        resilience = self._resilience
        if resilience is not None and resilience.quarantine is not None:
            resilience.quarantine.record(record)
            resilience.quarantined += 1
        self._emit_alerts([record])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------

    def step(self, time: Timestamp, txn: Transaction) -> StepReport:
        """Apply one transaction everywhere; return the merged verdict.

        Synchronous: pumps the pool until this step's fragments have
        all arrived (or degraded).  Input faults are intercepted here,
        before splitting, under the configured fault policy.
        """
        reports = self._submit(time, txn)
        reports.extend(self._flush())
        return reports[-1]

    def run(self, stream: Union[UpdateStream, Sequence]) -> RunReport:
        """Process a whole update stream, pipelining across shards.

        Unlike :meth:`step`, submission runs ahead of merging (bounded
        by the mailbox capacity), so a slow shard does not serialise
        the healthy ones; reports still arrive in stream order.
        """
        report = RunReport()
        for time, txn in stream:
            for merged in self._submit(time, txn):
                report.add(merged)
        for merged in self._flush():
            report.add(merged)
        return report

    def _submit(self, time: Timestamp, txn: Transaction) -> List[StepReport]:
        try:
            if not isinstance(txn, Transaction):
                raise HistoryError(
                    f"stream element at t={time!r} is not a Transaction "
                    f"but {type(txn).__name__}"
                )
            validate_successor(self._now, time)
            txn.validate(self.schema)
        except FAULT_ERRORS as exc:
            if self._resilience is None:
                raise
            # keep report order: everything in flight merges first
            ready = [self._finish(r) for r in self.supervisor.flush()]
            ready.append(
                self._absorb_fault(classify_fault(exc), exc, time, txn)
            )
            return ready
        self._steps_fed += 1
        self._now = time
        index = self._index
        self._index += 1
        return [
            self._finish(r) for r in self.supervisor.submit(time, txn, index)
        ]

    def _next_index(self) -> int:
        return self._index

    def _absorb_fault(self, kind: str, error, time, payload) -> StepReport:
        """A fault the policy absorbs is a fed step that was shed."""
        skipped = super()._absorb_fault(kind, error, time, payload)
        self._steps_fed += 1
        self._shed += 1
        return skipped

    def _flush(self) -> List[StepReport]:
        if self._supervisor is None:
            return []
        return [self._finish(r) for r in self._supervisor.flush()]

    def _finish(self, report: StepReport) -> StepReport:
        if report.degraded:
            self._degraded += 1
            if self._resilience is not None:
                self._resilience.note_step(report)
        else:
            self._verdicts += 1
        return self._dispatch(report)

    def set_step_deadline(self, deadline, urgent=()) -> None:
        """Install or clear a step budget on every live worker (a
        process worker takes it up after the steps already submitted)."""
        self.supervisor.set_step_deadline(deadline, urgent=urgent)

    # ------------------------------------------------------------------
    # accounting / health / shutdown
    # ------------------------------------------------------------------

    def accounting(self) -> Dict[str, int]:
        """Zero-silent-drop ledger.

        The identity ``steps_fed == verdicts + degraded + shed +
        in_flight`` always holds; at rest (nothing in flight) every
        fed step is exactly one merged verdict, one explicitly
        degraded verdict, or one shed (skipped/quarantined) step.
        """
        in_flight = (
            self._supervisor.in_flight if self._supervisor is not None else 0
        )
        return {
            "steps_fed": self._steps_fed,
            "verdicts": self._verdicts,
            "degraded": self._degraded,
            "shed": self._shed,
            "in_flight": in_flight,
        }

    def summary(self) -> Dict[str, object]:
        """Supervision + accounting summary (CLI / test reporting)."""
        out: Dict[str, object] = {"accounting": self.accounting()}
        if self._supervisor is not None:
            out["supervisor"] = self._supervisor.summary()
        if self._resilience is not None:
            out["resilience"] = self._resilience.summary()
        return out

    def health(self) -> Dict:
        """Merged ``repro-health/1`` snapshot across all live shards.

        Inline transport only — worker snapshots live in this process.
        The merged document gains a ``shards`` section with the
        supervision counters.
        """
        from repro.obs.health import build_sharded_health

        return build_sharded_health(self)

    def close(self) -> None:
        """Shut the pool down and release every shard journal."""
        if self._supervisor is not None:
            self._supervisor.close()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, journal_root, transport: str = "inline", chaos=None,
                **kwargs):
        """Rebuild a sharded monitor after a supervisor crash.

        Reads the ``shard-plan.json`` manifest under ``journal_root``,
        recovers every shard worker from its own journal (checkpoint +
        tail replay — never the full stream), and resumes at the
        merged frontier ``min(shard frontiers)``.  Re-fed steps between
        that frontier and a leading shard's own frontier are answered
        from the replay on the shards that already applied them.

        Returns:
            ``(monitor, info)`` — ``info`` has per-shard recovery
            detail and the global ``resume_from`` frontier.
        """
        from repro.shard.partition import PLAN_VERSION

        root = Path(journal_root)
        path = root / MANIFEST_NAME
        if not path.is_file():
            raise MonitorError(
                f"cannot recover a sharded run from {root}: "
                f"missing {MANIFEST_NAME}"
            )
        manifest = json.loads(path.read_text())
        if manifest.get("version") != PLAN_VERSION:
            raise MonitorError(
                f"unsupported shard manifest version "
                f"{manifest.get('version')!r} in {path} "
                f"(expected {PLAN_VERSION!r})"
            )
        monitor = cls(
            DatabaseSchema.from_dict(manifest["schema"]),
            manifest["key"],
            manifest["shards"],
            journal_root=root,
            checkpoint_every=manifest.get("checkpoint_every", 64),
            sync=manifest.get("sync", True),
            on_unkeyed=manifest.get("on_unkeyed", "reject"),
            transport=transport,
            chaos=chaos,
            **kwargs,
        )
        for name, text in manifest["constraints"]:
            monitor.add_constraint(name, text)
        monitor._supervisor = monitor._build_supervisor(recovered=True)
        frontiers = [
            getattr(w, "monitor", None).now
            if getattr(w, "monitor", None) is not None
            else None
            for w in monitor._supervisor.workers
        ]
        known = [f for f in frontiers if f is not None]
        resume_from = min(known) if len(known) == len(frontiers) and known \
            else None
        applied = [
            getattr(w, "monitor", None).checker.steps_processed
            if getattr(w, "monitor", None) is not None
            else 0
            for w in monitor._supervisor.workers
        ]
        merged_steps = min(applied) if applied else 0
        monitor._now = resume_from
        monitor._index = merged_steps
        monitor._steps_fed = merged_steps
        monitor._verdicts = merged_steps
        info = {
            "resume_from": resume_from,
            "merged_steps": merged_steps,
            "frontiers": frontiers,
            "recoveries": list(monitor._supervisor.recoveries),
        }
        return monitor, info

    def __repr__(self) -> str:
        return (
            f"ShardedMonitor({len(self.constraints)} constraint(s), "
            f"key={self.key!r}, shards={self.shards}, "
            f"transport={self.transport!r})"
        )
