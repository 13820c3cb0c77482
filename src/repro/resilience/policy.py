"""Fault policies and the quarantine dead-letter log.

A long-running monitor must not die on one bad input.  A
:class:`FaultPolicy` decides what happens when a step fault occurs —
a malformed or schema-violating transaction, a clock that moves
backwards, a violation handler that raises:

* ``fail_fast`` — re-raise (the pre-resilience behaviour, and still
  the default when no policy is configured);
* ``skip`` — count the fault, drop the input, keep monitoring;
* ``quarantine`` — like ``skip``, but additionally write a dead-letter
  record of the offending input to a :class:`QuarantineLog` so it can
  be inspected, repaired, and replayed later.

Crucially, every checking engine validates its input *before* mutating
any state (timestamps first, then schema), so a faulted step leaves the
checker exactly where it was — skipping is always safe.

:class:`ResilienceRuntime` is the per-monitor glue: it classifies
faults, applies the policy, keeps local tallies, and mirrors them into
the monitor's :class:`~repro.obs.metrics.MetricsRegistry` when one is
attached.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.violations import StepReport
from repro.db.transactions import Transaction
from repro.errors import (
    HistoryError,
    MonitorError,
    SchemaError,
    TimeError,
    TransactionError,
)

#: Exception types a fault policy intercepts at the step boundary.
#: Everything else (programming errors, ``MonitorError`` misuse) still
#: propagates — a policy shields the monitor from bad *inputs*, not
#: from bugs.
FAULT_ERRORS = (SchemaError, TransactionError, TimeError, HistoryError)

# Metric family names (registered lazily, only when a fault occurs, so
# a fault-free run adds no series).
FAULTS_TOTAL = "repro_faults_total"
QUARANTINED_TOTAL = "repro_quarantined_total"
HANDLER_FAILURES_TOTAL = "repro_handler_failures_total"
DEGRADED_STEPS_TOTAL = "repro_degraded_steps_total"
DEFERRED_EVALS_TOTAL = "repro_deferred_evaluations_total"
JOURNAL_RECORDS_TOTAL = "repro_journal_records_total"
CHECKPOINTS_TOTAL = "repro_checkpoints_total"


class FaultPolicy(Enum):
    """What the monitor does when a step fault occurs."""

    FAIL_FAST = "fail_fast"
    SKIP = "skip"
    QUARANTINE = "quarantine"

    @classmethod
    def coerce(cls, value: Union[str, "FaultPolicy"]) -> "FaultPolicy":
        """Accept a policy instance or its string name (``-``/``_``)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).replace("-", "_"))
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise MonitorError(
                f"unknown fault policy {value!r}; choose from {options}"
            ) from None


def classify_fault(exc: BaseException) -> str:
    """Map a step exception to a stable fault-kind label."""
    if isinstance(exc, TimeError):
        return "clock"
    if isinstance(exc, SchemaError):
        return "schema"
    if isinstance(exc, TransactionError):
        return "transaction"
    if isinstance(exc, HistoryError):
        return "history"
    return "handler" if exc.__class__.__name__ == "HandlerError" else "other"


def count_degraded(metrics, engine: str, report: StepReport) -> None:
    """Count one degraded step and each evaluation it shed into
    ``metrics`` (a no-op without a registry) — the one place the
    degraded/deferred series are written, with or without a policy."""
    if metrics is None:
        return
    metrics.counter(
        DEGRADED_STEPS_TOTAL, help="Steps that shed evaluations",
        engine=engine,
    ).inc()
    for name in report.deferred:
        metrics.counter(
            DEFERRED_EVALS_TOTAL,
            help="Constraint evaluations shed under deadline",
            engine=engine,
            constraint=name,
        ).inc()


class FaultRecord:
    """One dead-letter entry: what failed, when, and why."""

    __slots__ = ("kind", "time", "error", "payload", "policy")

    def __init__(
        self,
        kind: str,
        time: Optional[object],
        error: str,
        payload: Optional[object] = None,
        policy: str = FaultPolicy.QUARANTINE.value,
    ):
        self.kind = kind
        self.time = time
        self.error = error
        self.payload = payload
        self.policy = policy

    def to_dict(self) -> dict:
        """JSON-able form (the quarantine log's line format)."""
        if isinstance(self.payload, Transaction):
            payload = self.payload.to_dict()
        elif self.payload is None or isinstance(
            self.payload, (str, int, float, bool, list, dict)
        ):
            payload = self.payload
        else:
            payload = repr(self.payload)
        return {
            "kind": self.kind,
            "time": self.time if isinstance(self.time, int) else repr(self.time),
            "error": self.error,
            "payload": payload,
            "policy": self.policy,
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultRecord) and self.to_dict() == other.to_dict()
        )

    def __repr__(self) -> str:
        return f"FaultRecord({self.kind!r} at t={self.time}: {self.error})"


class QuarantineLog:
    """Append-only dead-letter store for quarantined inputs.

    Records are always retained in memory (:attr:`records`); when a
    ``path`` is given each record is additionally appended to a JSONL
    file and flushed immediately, so a crash loses at most the record
    being written.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        self.records: List[FaultRecord] = []
        self._fh = None

    def record(self, fault: FaultRecord) -> None:
        """Append one dead-letter record (and flush it to disk)."""
        self.records.append(fault)
        if self.path is not None:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a")
            self._fh.write(json.dumps(fault.to_dict(), sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        """Close the backing file (further records reopen it)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @staticmethod
    def read(path: Union[str, Path]) -> List[dict]:
        """Read a quarantine JSONL file back as plain dicts."""
        out: List[dict] = []
        for line in Path(path).read_text().splitlines():
            if line.strip():
                out.append(json.loads(line))
        return out

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __repr__(self) -> str:
        where = f" -> {self.path}" if self.path is not None else ""
        return f"QuarantineLog({len(self.records)} record(s){where})"


class ResilienceRuntime:
    """Per-monitor fault-handling state.

    Holds the active policy and quarantine log, keeps local fault
    tallies (usable without any metrics registry), and mirrors every
    count into the attached :class:`~repro.obs.metrics.MetricsRegistry`
    so the existing exporters pick the fault series up unchanged.
    """

    def __init__(
        self,
        policy: Union[str, FaultPolicy],
        quarantine: Optional[QuarantineLog] = None,
        metrics=None,
        engine: str = "",
    ):
        self.policy = FaultPolicy.coerce(policy)
        if self.policy is FaultPolicy.QUARANTINE and quarantine is None:
            quarantine = QuarantineLog()
        self.quarantine = quarantine
        self.metrics = metrics
        self.engine = engine
        #: fault tallies by kind (``schema``, ``clock``, ...)
        self.fault_counts: Dict[str, int] = {}
        self.skipped = 0
        self.quarantined = 0
        self.handler_failures = 0
        self.degraded_steps = 0

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------

    def _count(self, family: str, amount: int = 1, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                family, engine=self.engine, **labels
            ).inc(amount)

    def handle(
        self,
        kind: str,
        error: BaseException,
        time: Optional[object],
        payload: Optional[object],
        next_index: int,
    ) -> StepReport:
        """Apply the policy to one fault.

        Under ``fail_fast`` the original exception is re-raised; under
        ``skip``/``quarantine`` a *skipped* :class:`StepReport` is
        returned (``report.skipped`` is true, no state changed).
        """
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        self._count(
            FAULTS_TOTAL,
            kind=kind,
            policy=self.policy.value,
            help="Step faults intercepted by the fault policy",
        )
        if self.policy is FaultPolicy.FAIL_FAST:
            raise error
        self.skipped += 1
        record = FaultRecord(
            kind, time, str(error), payload, self.policy.value
        )
        if self.policy is FaultPolicy.QUARANTINE:
            self.quarantined += 1
            self.quarantine.record(record)
            self._count(QUARANTINED_TOTAL, help="Inputs dead-lettered")
        return StepReport(
            time if isinstance(time, int) else None,
            next_index,
            [],
            fault=record,
        )

    def handle_handler_failures(self, report, failures) -> None:
        """Count (and quarantine) violation-handler failures."""
        self.handler_failures += len(failures)
        self._count(
            HANDLER_FAILURES_TOTAL,
            amount=len(failures),
            help="Violation handler calls that raised",
        )
        if self.policy is FaultPolicy.QUARANTINE:
            for violation, exc in failures:
                self.quarantine.record(
                    FaultRecord(
                        "handler",
                        report.time,
                        f"{type(exc).__name__}: {exc}",
                        repr(violation),
                        self.policy.value,
                    )
                )
                self.quarantined += 1
            self._count(
                QUARANTINED_TOTAL,
                amount=len(failures),
                help="Inputs dead-lettered",
            )

    def note_step(self, report: StepReport) -> None:
        """Record degradation telemetry for a completed step."""
        if report.degraded:
            self.degraded_steps += 1
            count_degraded(self.metrics, self.engine, report)

    def summary(self) -> Dict[str, object]:
        """Counters as a plain dict (CLI / test reporting)."""
        return {
            "policy": self.policy.value,
            "faults": dict(sorted(self.fault_counts.items())),
            "skipped": self.skipped,
            "quarantined": self.quarantined,
            "handler_failures": self.handler_failures,
            "degraded_steps": self.degraded_steps,
        }

    def __repr__(self) -> str:
        return (
            f"ResilienceRuntime({self.policy.value}, "
            f"{sum(self.fault_counts.values())} fault(s))"
        )
