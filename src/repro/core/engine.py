"""The step every pure-past engine takes: one template, three overrides.

The paper's per-state algorithm is a fixed sequence — apply the update,
fold the new state into each auxiliary relation bottom-up, evaluate each
constraint's violation formula — and :class:`Engine` is its one home.
The template (:meth:`Engine.step` / :meth:`Engine.step_state`) is::

    validate successor -> arm budget -> step_begin
        -> apply -> apply_done
        -> advance auxiliary relations (aux_advanced per node)
        -> per constraint: budget deferral, witnesses, constraint_checked
    -> step_end

and it owns the clock (``now``), the step counter, the optional
:class:`~repro.resilience.degrade.StepBudget`, the instrumentation hook
sites (:mod:`repro.obs.instrument`; no hook and no ``perf_counter``
call when ``instrumentation is None``) and the assembly of
:class:`~repro.core.violations.Violation` / ``StepReport``.  An engine
says only

* how it applies an update — :meth:`Engine._apply`;
* how it yields one constraint's witnesses — :meth:`Engine._witnesses`;
* what it counts as space — ``space_tuples()`` (and, for the
  per-constraint attribution of ``constraint_checked``,
  :meth:`Engine._constraint_tuples`).

Engines that keep auxiliary relations list them in ``_schedule`` and
receive each advanced virtual table through :meth:`Engine._publish`.
:class:`~repro.core.future.DelayedChecker` is not an ``Engine``: its
verdicts lag its input, so it has a different stepping API.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.core.auxiliary import AuxiliaryState
from repro.core.formulas import Formula
from repro.core.statespace import AuxAccounting
from repro.core.violations import RunReport, StepReport, Violation
from repro.db.algebra import Table
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import MonitorError
from repro.temporal.clock import Timestamp, validate_successor
from repro.temporal.stream import UpdateStream

if TYPE_CHECKING:
    from repro.core.checker import Constraint
    from repro.resilience.degrade import StepBudget


def reject_future_constraints(
    constraints: Iterable["Constraint"], engine: str
) -> None:
    """Guard for pure-past engines: future operators need the delayed
    checker, whose verdicts lag the input by the future horizon."""
    for c in constraints:
        if c.violation_formula.has_future:
            raise MonitorError(
                f"constraint {c.name!r} uses future temporal operators; "
                f"the {engine} engine is pure-past — use "
                f"repro.core.future.DelayedChecker"
            )


class Engine(AuxAccounting):
    """Base of the pure-past checking engines: the one step template.

    Subclasses set ``engine_label`` and implement :meth:`_apply` and
    :meth:`_witnesses`; everything a caller steps through —
    :meth:`step`, :meth:`step_state`, :meth:`run`, :attr:`now`,
    :attr:`steps_processed` — is defined here once.
    """

    #: engine label used in telemetry series and state profiles
    engine_label = "engine"

    #: optional per-step :class:`~repro.resilience.degrade.StepBudget`
    #: (set by the monitor; ``None`` keeps the hot path budget-free)
    budget: Optional["StepBudget"] = None

    def __init__(
        self,
        schema: DatabaseSchema,
        constraints: Sequence["Constraint"],
        instrumentation: Any = None,
    ) -> None:
        self.schema = schema
        self.constraints = list(constraints)
        for c in self.constraints:
            c.validate_schema(schema)
        reject_future_constraints(self.constraints, self.engine_label)
        #: hook sink (None = disabled; see repro.obs.instrument)
        self.instrumentation = instrumentation
        #: one auxiliary state per temporal node (none by default)
        self._aux: Dict[Formula, AuxiliaryState] = {}
        #: what a step advances, bottom-up: (auxiliary state, its
        #: ``evaluate_now``, its node's label, what ``_publish`` is
        #: told the advanced table belongs to)
        self._schedule: List[tuple] = []
        #: each constraint's auxiliary states, for telemetry attribution
        self._constraint_aux: Dict[str, Tuple[AuxiliaryState, ...]] = {}
        self._time: Optional[Timestamp] = None
        self._index = -1

    def _base_state(self, initial: Optional[DatabaseState]) -> DatabaseState:
        """The state the first transaction applies to."""
        state = (
            initial if initial is not None
            else DatabaseState.empty(self.schema)
        )
        if state.schema != self.schema:
            raise MonitorError("initial state does not match schema")
        return state

    def _attribute_aux(self, node_aux: Dict[Formula, AuxiliaryState]) -> None:
        """Precompute each constraint's auxiliary states (``node_aux``
        maps every temporal node to the state serving it) so the
        enabled-path attribution is a dict read."""
        self._constraint_aux = {
            c.name: tuple(
                {
                    id(node_aux[node]): node_aux[node]
                    for node in c.violation_formula.temporal_subformulas()
                }.values()
            )
            for c in self.constraints
        }

    # ------------------------------------------------------------------
    # the stepping API
    # ------------------------------------------------------------------

    @property
    def now(self) -> Optional[Timestamp]:
        """Timestamp of the last processed state (None before any)."""
        return self._time

    @property
    def steps_processed(self) -> int:
        """Number of states processed so far."""
        return self._index + 1

    def step(self, time: Timestamp, txn: Transaction) -> StepReport:
        """Apply ``txn`` at ``time`` and check all constraints.

        Timestamps must strictly increase across calls.

        Returns:
            A :class:`StepReport` with any violations at the new state.
        """
        return self._step(time, txn, None)

    def step_state(self, time: Timestamp, state: DatabaseState) -> StepReport:
        """Like :meth:`step`, but with the successor state given directly."""
        if state.schema != self.schema:
            raise MonitorError("state does not match checker schema")
        return self._step(time, None, state)

    def run(self, stream: Union[UpdateStream, Sequence]) -> RunReport:
        """Process a whole update stream; return the aggregate report."""
        report = RunReport()
        for time, txn in stream:
            report.add(self.step(time, txn))
        return report

    # ------------------------------------------------------------------
    # the template
    # ------------------------------------------------------------------

    def _step(
        self,
        time: Timestamp,
        txn: Optional[Transaction],
        state: Optional[DatabaseState],
    ) -> StepReport:
        """One step, from a transaction or (``txn is None``) a state.

        Input is validated before anything is mutated — the clock here,
        the update by :meth:`_apply` — so a faulted step leaves the
        engine where it was.
        """
        validate_successor(self._time, time)
        if self.budget is not None:
            self.budget.arm()
        obs = self.instrumentation
        if obs is not None:
            started = perf_counter()
            obs.step_begin(
                self.engine_label, time, None if txn is None else txn.size
            )
        applied = self._apply(time, txn, state)
        if obs is not None and applied:
            obs.apply_done(self.engine_label, time, perf_counter() - started)
        self._time = time
        self._index += 1
        report = self._verdict(time)
        if obs is not None:
            obs.step_end(
                self.engine_label,
                time,
                perf_counter() - started,
                len(report.violations),
                self.space_tuples(),
            )
        return report

    def _verdict(self, time: Timestamp) -> StepReport:
        """Fold the installed state into the auxiliary relations, then
        evaluate every constraint."""
        self._advance_auxiliary(time)
        return self._check_constraints(time, self._index)

    def _advance_auxiliary(self, time: Timestamp) -> None:
        """Advance every auxiliary state, bottom-up.

        ``_schedule`` is in registration order, which is post-order per
        constraint: a node's children were registered — hence are
        advanced and published — before it.
        """
        obs = self.instrumentation
        for aux, evaluate_now, label, target in self._schedule:
            if obs is not None:
                started = perf_counter()
                table = aux.advance(time, evaluate_now)
                obs.aux_advanced(
                    self.engine_label,
                    label,
                    perf_counter() - started,
                    aux.tuple_count(),
                )
            else:
                table = aux.advance(time, evaluate_now)
            self._publish(target, table)

    def _check_constraints(self, time: Timestamp, index: int) -> StepReport:
        """Evaluate each constraint not shed by the budget; assemble the
        report of state ``index``."""
        obs = self.instrumentation
        budget = self.budget
        violations: List[Violation] = []
        for position, c in enumerate(self.constraints):
            if budget is not None and budget.should_defer(c.name):
                continue
            if obs is not None:
                started = perf_counter()
                witnesses = self._witnesses(position, c)
                obs.constraint_checked(
                    self.engine_label,
                    c.name,
                    perf_counter() - started,
                    0 if witnesses.is_empty else max(1, len(witnesses)),
                    self._constraint_tuples(c),
                )
            else:
                witnesses = self._witnesses(position, c)
            if not witnesses.is_empty:
                violations.append(Violation(c.name, time, index, witnesses))
        return StepReport(
            time,
            index,
            violations,
            deferred=tuple(budget.deferred) if budget is not None else (),
        )

    # ------------------------------------------------------------------
    # what an engine says
    # ------------------------------------------------------------------

    def _apply(
        self,
        time: Timestamp,
        txn: Optional[Transaction],
        state: Optional[DatabaseState],
    ) -> bool:
        """Install the successor state — ``txn`` applied to the current
        one, or ``state`` itself when ``txn`` is None — raising before
        anything is mutated when the update is invalid.

        Returns whether a successor state was computed here, i.e.
        whether the template reports ``apply_done``.
        """
        raise NotImplementedError

    def _witnesses(self, position: int, constraint: "Constraint") -> Table:
        """The violating valuations of ``self.constraints[position]``
        at the state just installed."""
        raise NotImplementedError

    def _publish(self, target: Any, table: Table) -> None:
        """Receive the virtual table of one advanced ``_schedule`` entry."""
        raise NotImplementedError

    def _constraint_tuples(self, constraint: "Constraint") -> Optional[int]:
        """Auxiliary tuples attributable to ``constraint`` (``None`` for
        an engine without a per-constraint store)."""
        return sum(
            aux.tuple_count() for aux in self._constraint_aux[constraint.name]
        )
