"""Violation reporting.

A constraint is an (implicitly universally closed) formula that must
hold at every state of the history.  When it fails, the checker reports
a :class:`Violation` carrying the *witnesses*: the valuations of the
constraint's free variables for which the formula is false at that
state (an empty-tuple witness for closed constraints).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.db.algebra import Table
from repro.db.types import Value
from repro.temporal.clock import Timestamp


class Violation:
    """One constraint failure at one history state."""

    __slots__ = ("constraint", "time", "index", "witnesses")

    def __init__(
        self,
        constraint: str,
        time: Timestamp,
        index: int,
        witnesses: Table,
    ):
        self.constraint = constraint
        self.time = time
        self.index = index
        # an engine may hand over a table it goes on patching: what
        # leaves in a report is the witnesses as they are now
        self.witnesses = witnesses.snapshot()

    @property
    def witness_count(self) -> int:
        """Number of violating valuations (1 for closed constraints)."""
        return max(1, len(self.witnesses))

    def witness_dicts(self) -> List[Dict[str, Value]]:
        """Witnesses as ``{variable: value}`` dicts (deterministic order)."""
        return list(self.witnesses.assignments())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Violation)
            and self.constraint == other.constraint
            and self.time == other.time
            and self.index == other.index
            and self.witnesses == other.witnesses
        )

    def __repr__(self) -> str:
        if self.witnesses.columns:
            detail = f"{len(self.witnesses)} witness(es)"
        else:
            detail = "closed"
        return (
            f"Violation({self.constraint!r} at t={self.time} "
            f"[state {self.index}], {detail})"
        )


class StepReport:
    """Outcome of checking all constraints at one new state.

    Besides the violations, a report can carry two resilience markers:

    * ``deferred`` — constraints whose evaluation was shed because the
      step exceeded its deadline budget (the step is *degraded*: the
      verdicts it does carry are sound, but the deferred constraints
      were not checked at this state);
    * ``fault`` — set when a fault policy *skipped* the step entirely
      (the input was quarantined or dropped; no state transition
      happened).  A faulted report carries no violations.
    """

    __slots__ = ("time", "index", "violations", "deferred", "fault")

    def __init__(
        self,
        time: Timestamp,
        index: int,
        violations: Sequence[Violation],
        deferred: Sequence[str] = (),
        fault: Optional[object] = None,
    ):
        self.time = time
        self.index = index
        self.violations = list(violations)
        self.deferred = tuple(deferred)
        self.fault = fault

    @property
    def ok(self) -> bool:
        """Whether every constraint held at this state."""
        return not self.violations

    @property
    def degraded(self) -> bool:
        """Whether any constraint evaluation was shed at this state."""
        return bool(self.deferred)

    @property
    def skipped(self) -> bool:
        """Whether a fault policy skipped this step (no state change)."""
        return self.fault is not None

    def violated_constraints(self) -> List[str]:
        """Names of constraints that failed at this state."""
        return [v.constraint for v in self.violations]

    def __bool__(self) -> bool:
        return self.ok

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StepReport)
            and self.time == other.time
            and self.index == other.index
            and self.violations == other.violations
            and self.deferred == other.deferred
            and self.fault == other.fault
        )

    def __repr__(self) -> str:
        if self.skipped:
            return f"StepReport(t={self.time}, skipped: {self.fault})"
        marks = f", {len(self.deferred)} deferred" if self.deferred else ""
        if self.ok:
            return f"StepReport(t={self.time}, ok{marks})"
        names = ", ".join(self.violated_constraints())
        return f"StepReport(t={self.time}, violated: {names}{marks})"


class RunReport:
    """Aggregated outcome of checking a whole update stream."""

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[StepReport] = ()):
        self.steps = list(steps)

    def add(self, step: StepReport) -> None:
        """Append one step's report."""
        self.steps.append(step)

    @property
    def ok(self) -> bool:
        """Whether the whole run was violation-free."""
        return all(s.ok for s in self.steps)

    @property
    def violations(self) -> List[Violation]:
        """All violations, in history order."""
        return [v for s in self.steps for v in s.violations]

    @property
    def violation_count(self) -> int:
        """Total number of violations over the run."""
        return sum(len(s.violations) for s in self.steps)

    @property
    def degraded_steps(self) -> List[StepReport]:
        """Steps whose constraint evaluation was partially shed."""
        return [s for s in self.steps if s.degraded]

    @property
    def skipped_steps(self) -> List[StepReport]:
        """Steps a fault policy skipped (inputs that never applied)."""
        return [s for s in self.steps if s.skipped]

    @property
    def checked_steps(self) -> List[StepReport]:
        """Steps that actually transitioned the database (not skipped)."""
        return [s for s in self.steps if not s.skipped]

    def first_violation(self) -> Violation:
        """The earliest violation.

        Raises:
            IndexError: if the run was clean.
        """
        return self.violations[0]

    def by_constraint(self) -> Dict[str, List[Violation]]:
        """Group violations by constraint name."""
        grouped: Dict[str, List[Violation]] = {}
        for v in self.violations:
            grouped.setdefault(v.constraint, []).append(v)
        return grouped

    def __iter__(self) -> Iterator[StepReport]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RunReport) and self.steps == other.steps

    def __repr__(self) -> str:
        marks = ""
        skipped = len(self.skipped_steps)
        degraded = len(self.degraded_steps)
        if skipped:
            marks += f", {skipped} skipped"
        if degraded:
            marks += f", {degraded} degraded"
        return (
            f"RunReport({len(self.steps)} steps, "
            f"{self.violation_count} violation(s){marks})"
        )
