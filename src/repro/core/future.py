"""Bounded-future constraints, checked with finite delay.

Real-time integrity constraints often speak about the *future*: "every
request is granted within 10 time units", "a transaction stays open
until its commit, at most 30 units later".  With **bounded** future
windows such constraints are checkable online with a *finite verdict
delay*: the verdict for the state at time ``t`` is determined once the
clock reaches ``t + H``, where ``H`` is the constraint's future horizon
(:func:`repro.core.bounds.future_horizon`).

:class:`DelayedChecker` implements this with a sliding window:

1. arriving states advance the *past* auxiliary relations immediately
   (so past subformulas cost bounded space exactly as in the pure-past
   checker) and cache their virtual tables with the buffered state;
2. a buffered state is *finalised* once the newest arrival proves that
   every state inside its future horizon has been seen — future
   subformulas are then evaluated by direct recursion over the buffer
   (which is complete for them, by the horizon argument), past
   subformulas resolve from the cached tables, and the verdict is
   emitted;
3. :meth:`DelayedChecker.finish` declares the stream ended and
   finalises the remainder under the closed-world future (``EVENTUALLY``
   with no remaining states is false) — the same answers the reference
   semantics gives on the completed history, which is how the property
   tests validate this module.

Space: past state is the bounded encoding; the buffer holds only the
states of the last ``H`` clock units.  Both independent of the history
length.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.auxiliary import AuxiliaryState, make_auxiliary
from repro.core.bounds import future_horizon
from repro.core.checker import Constraint
from repro.core.statespace import AuxAccounting
from repro.core.foeval import (
    AtomProvider,
    StateTablesProvider,
    evaluate,
    relation_atom_table,
)
from repro.core.formulas import (
    Atom,
    Eventually,
    Formula,
    Next,
    Until,
)
from repro.core.violations import RunReport, StepReport, Violation
from repro.db.algebra import Table
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import MonitorError
from repro.temporal.clock import Timestamp, validate_successor
from repro.temporal.stream import UpdateStream


def _header(formula: Formula) -> Tuple[str, ...]:
    return tuple(sorted(formula.free_vars))


class _BufferedState:
    """One pending state: data plus its past-node virtual tables."""

    __slots__ = ("index", "time", "state", "past_virtual")

    def __init__(
        self,
        index: int,
        time: Timestamp,
        state: DatabaseState,
        past_virtual: Dict[Formula, Table],
    ):
        self.index = index
        self.time = time
        self.state = state
        self.past_virtual = past_virtual


class _WindowProvider(AtomProvider):
    """Resolves formulas at one buffered position of the window."""

    def __init__(self, checker: "DelayedChecker", position: int):
        self.checker = checker
        self.position = position

    def atom_table(self, atom: Atom) -> Table:
        entry = self.checker._window[self.position]
        return relation_atom_table(entry.state.relation(atom.relation), atom)

    def temporal_table(self, formula: Formula) -> Table:
        if formula.is_future:
            return self.checker._future_table(formula, self.position)
        entry = self.checker._window[self.position]
        try:
            return entry.past_virtual[formula]
        except KeyError:
            raise MonitorError(
                f"past virtual table missing for {formula}"
            ) from None


class DelayedChecker(AuxAccounting):
    """Checks bounded-future constraints with finite verdict delay.

    The stepping API differs from the pure-past checkers in one way
    dictated by the semantics: :meth:`step` returns the (possibly
    empty) list of *newly finalised* verdicts, which lag the input by
    at most the future horizon, and :meth:`finish` flushes the rest.
    """

    #: engine label used in telemetry series and state profiles
    engine_label = "delayed"

    def __init__(
        self,
        schema: DatabaseSchema,
        constraints: Sequence[Constraint],
        initial: Optional[DatabaseState] = None,
    ):
        self.schema = schema
        self.constraints = list(constraints)
        horizons = []
        for c in self.constraints:
            c.validate_schema(schema)
            h = future_horizon(c.violation_formula)
            if h is None:
                raise MonitorError(
                    f"constraint {c.name!r} has an unbounded future "
                    f"horizon; the delayed checker needs finite windows"
                )
            horizons.append(h)
        #: verdict delay in clock units (0 = pure past)
        self.horizon: int = max(horizons, default=0)
        self.state = (
            initial if initial is not None else DatabaseState.empty(schema)
        )
        if self.state.schema != schema:
            raise MonitorError("initial state does not match schema")
        # past aux, advanced on arrival
        self._aux: Dict[Formula, AuxiliaryState] = {}
        self._past_nodes: List[Formula] = []
        self._future_nodes: List[Formula] = []
        for c in self.constraints:
            for node in c.violation_formula.temporal_subformulas():
                if node.is_future:
                    if node not in self._future_nodes:
                        self._future_nodes.append(node)
                elif node not in self._aux:
                    if node.has_future:
                        raise MonitorError(
                            f"future operator nested inside past operator "
                            f"({node}) is not supported by the delayed "
                            f"checker"
                        )
                    self._aux[node] = make_auxiliary(node)
                    self._past_nodes.append(node)
        self._window: List[_BufferedState] = []
        self._future_memo: Dict[Tuple[Formula, int], Table] = {}
        self._time: Optional[Timestamp] = None
        self._arrivals = -1
        self._finished = False

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    @property
    def now(self) -> Optional[Timestamp]:
        """Timestamp of the last *arrived* state (None before any)."""
        return self._time

    @property
    def pending_states(self) -> int:
        """States buffered awaiting their verdicts."""
        return len(self._window)

    def step(self, time: Timestamp, txn: Transaction) -> List[StepReport]:
        """Feed one transaction; return newly determined verdicts.

        Verdicts are emitted in state order, each for a state whose
        future horizon the clock has now passed.
        """
        if self._finished:
            raise MonitorError("checker already finished")
        validate_successor(self._time, time)
        self.state = self.state.apply(txn)
        self._time = time
        self._arrivals += 1
        self._absorb(time, self.state)
        emitted: List[StepReport] = []
        while self._window and time - self._window[0].time > self.horizon:
            emitted.append(self._finalize_front())
        return emitted

    def finish(self) -> List[StepReport]:
        """Declare the stream ended; flush all pending verdicts.

        The remaining states are judged under the closed-world future:
        an ``EVENTUALLY`` whose window extends past the last state is
        satisfied only by what actually happened.
        """
        if self._finished:
            raise MonitorError("checker already finished")
        self._finished = True
        emitted = []
        while self._window:
            emitted.append(self._finalize_front())
        return emitted

    def run(
        self, stream: Union[UpdateStream, Sequence]
    ) -> RunReport:
        """Process a whole stream, finish, and aggregate all verdicts."""
        report = RunReport()
        for time, txn in stream:
            for step_report in self.step(time, txn):
                report.add(step_report)
        for step_report in self.finish():
            report.add(step_report)
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _absorb(self, time: Timestamp, state: DatabaseState) -> None:
        """Advance past aux with the arriving state; buffer it."""
        past_virtual: Dict[Formula, Table] = {}
        provider = StateTablesProvider(state, past_virtual)

        def evaluate_now(
            formula: Formula, context: Optional[Table] = None
        ) -> Table:
            return evaluate(formula, provider, context)

        for node in self._past_nodes:
            # buffered until the verdict, while the state patches on
            past_virtual[node] = self._aux[node].advance(
                time, evaluate_now
            ).snapshot()
        self._window.append(
            _BufferedState(self._arrivals, time, state, past_virtual)
        )

    def _finalize_front(self) -> StepReport:
        entry = self._window[0]
        provider = _WindowProvider(self, 0)
        violations: List[Violation] = []
        for c in self.constraints:
            witnesses = evaluate(c.violation_formula, provider)
            if not witnesses.is_empty:
                violations.append(
                    Violation(c.name, entry.time, entry.index, witnesses)
                )
        report = StepReport(entry.time, entry.index, violations)
        self._window.pop(0)
        # memo entries are keyed by window position; positions shift
        # when the front is popped, so drop them wholesale (they are
        # cheap to rebuild within one horizon)
        self._future_memo.clear()
        return report

    def _future_table(self, node: Formula, position: int) -> Table:
        key = (node, position)
        cached = self._future_memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Next):
            result = self._next_table(node, position)
        elif isinstance(node, Eventually):
            result = self._eventually_table(node, position)
        elif isinstance(node, Until):
            result = self._until_table(node, position)
        else:  # pragma: no cover
            raise MonitorError(f"not a future node: {node}")
        self._future_memo[key] = result
        return result

    def _eval_at(self, formula: Formula, position: int) -> Table:
        return evaluate(formula, _WindowProvider(self, position))

    def _next_table(self, node: Next, position: int) -> Table:
        if position + 1 >= len(self._window):
            return Table.empty(_header(node))
        gap = (
            self._window[position + 1].time - self._window[position].time
        )
        if not node.interval.contains(gap):
            return Table.empty(_header(node))
        return self._eval_at(node.operand, position + 1).project(
            _header(node)
        )

    def _eventually_table(self, node: Eventually, position: int) -> Table:
        base_time = self._window[position].time
        result = Table.empty(_header(node))
        for j in range(position, len(self._window)):
            delta = self._window[j].time - base_time
            if node.interval.bounded_by(delta):
                break
            if node.interval.contains(delta):
                result = result.union(
                    self._eval_at(node.operand, j).project(_header(node))
                )
        return result

    def _until_table(self, node: Until, position: int) -> Table:
        """Mirror of the reference UNTIL scan over the buffer."""
        base_time = self._window[position].time
        pending = Table.empty(tuple(sorted(node.right.free_vars)))
        last = len(self._window) - 1
        for j in range(last, position - 1, -1):
            delta = self._window[j].time - base_time
            if node.interval.bounded_by(delta):
                continue  # beyond the window; nothing collected yet
            if j < last and not pending.is_empty:
                pending = evaluate(
                    node.left, _WindowProvider(self, j), pending
                )
            if node.interval.contains(delta):
                pending = pending.union(
                    self._eval_at(node.right, j).project(pending.columns)
                )
        return pending.project(_header(node))

    # ------------------------------------------------------------------
    # instrumentation: past-aux accounting is inherited from
    # repro.core.statespace.AuxAccounting; the verdict-delay buffer is
    # the delayed checker's own contribution
    # ------------------------------------------------------------------

    def buffered_tuples(self) -> int:
        """Tuples held by the finite verdict-delay buffer.

        Each buffered state retains its database rows *and* the cached
        virtual tables of every past node (needed to finalise the
        verdict later); both are lookahead state the space bound must
        cover.  Counting only the database rows — as an earlier
        revision did — under-counts the buffer.
        """
        total = 0
        for entry in self._window:
            total += entry.state.total_rows
            total += sum(
                len(table) for table in entry.past_virtual.values()
            )
        return total

    def buffered_virtual_tuples(self) -> int:
        """Cached past-node virtual-table rows across the buffer."""
        return sum(
            len(table)
            for entry in self._window
            for table in entry.past_virtual.values()
        )

    def space_tuples(self) -> int:
        """Uniform space hook: past aux entries plus the delay buffer."""
        return self.aux_tuple_count() + self.buffered_tuples()

    def state_profile(self, deep: bool = True) -> Dict[str, object]:
        """Uniform accounting snapshot, plus the ``buffer`` section."""
        profile = super().state_profile(deep)
        virtual = self.buffered_virtual_tuples()
        profile["buffer"] = {
            "states": len(self._window),
            "database_tuples": sum(
                entry.state.total_rows for entry in self._window
            ),
            "virtual_tuples": virtual,
        }
        return profile


