"""Naive full-history baseline checkers.

The point of comparison for the paper's method: store the entire
history and evaluate the reference semantics at each new state.  Two
variants are provided:

* ``NaiveChecker(memoize=False)`` — the true naive baseline: each step
  re-evaluates from scratch with a fresh evaluator, so per-step time
  grows with the history (and space grows because states accumulate).

* ``NaiveChecker(memoize=True)`` — a *materialised* middle point that
  keeps one evaluator (and its per-snapshot caches) for the whole run:
  per-step time is amortised, but space still grows linearly with the
  history.  This is the ablation between "recompute everything" and
  the paper's bounded encoding.

Both expose the same stepping API as
:class:`~repro.core.checker.IncrementalChecker`, so benchmarks and
property tests drive them interchangeably.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.checker import Constraint
from repro.core.engine import Engine
from repro.core.semantics import HistoryEvaluator
from repro.core.statespace import deep_size
from repro.db.algebra import Table
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.temporal.clock import Timestamp
from repro.temporal.history import History


class NaiveChecker(Engine):
    """Checks constraints by materialising the history."""

    def __init__(
        self,
        schema: DatabaseSchema,
        constraints: Sequence[Constraint],
        initial: Optional[DatabaseState] = None,
        memoize: bool = False,
        instrumentation=None,
    ):
        #: engine label used in telemetry series and by ``space_of``
        self.engine_label = "naive-memo" if memoize else "naive"
        super().__init__(schema, constraints, instrumentation)
        self.history = History(schema)
        #: the latest state (the base state before any step)
        self.state = self._base_state(initial)
        self.memoize = memoize
        self._evaluator: Optional[HistoryEvaluator] = (
            HistoryEvaluator(self.history) if memoize else None
        )
        # the evaluator of the step being checked
        self._step_evaluator = HistoryEvaluator(self.history)

    def _apply(
        self,
        time: Timestamp,
        txn: Optional[Transaction],
        state: Optional[DatabaseState],
    ) -> bool:
        if txn is not None:
            state = self.state.apply(txn)
        assert state is not None
        self.history.append(time, state)
        self.state = state
        # without memoisation every step starts from a fresh evaluator
        self._step_evaluator = (
            self._evaluator
            if self._evaluator is not None
            else HistoryEvaluator(self.history)
        )
        return True

    def _witnesses(self, position: int, constraint: Constraint) -> Table:
        return self._step_evaluator.table_at(
            constraint.violation_formula, self._index
        )

    def _constraint_tuples(self, constraint: Constraint) -> None:
        """The naive engines have no per-constraint auxiliary store."""
        return None

    def stored_states(self) -> int:
        """States retained — the naive space measure (grows forever)."""
        return self.history.length

    def stored_tuples(self) -> int:
        """Total tuples across all retained states (space in tuples)."""
        return sum(snap.state.total_rows for snap in self.history)

    def space_tuples(self) -> int:
        """Uniform space hook (stored tuples); every engine has one."""
        return self.stored_tuples()

    # the uniform accounting protocol (repro.core.statespace): the
    # naive engines keep no auxiliary relations, so the inherited aux
    # hooks are empty and the footprint shows up in the ``history``
    # section

    def state_profile(self, deep: bool = True) -> dict:
        """Uniform accounting snapshot (``history`` section only)."""
        profile = super().state_profile(deep)
        if deep:
            profile["total"]["bytes"] = 0  # no auxiliary relations at all
        profile["history"] = {
            "states": self.stored_states(),
            "tuples": self.stored_tuples(),
            "bytes": (
                deep_size(
                    [
                        tuple(rel.rows)
                        for snap in self.history
                        for rel in snap.state
                    ]
                )
                if deep
                else None
            ),
        }
        return profile
