"""Active-domain semantics (the paper's original setting).

Chomicki's temporal-database line of work interprets quantifiers and
negation relative to the *active domain* — the values occurring in the
database (plus the constraint's constants) — rather than requiring
syntactic safe-range restrictions.  This module implements that
semantics as an alternative engine, which accepts constraints outside
the safe fragment, e.g. ``HIST[0,10] warning(x)`` with ``x`` open.

Two deliberate refinements make the semantics *incrementally
checkable* (and are documented because they differ from a
whole-history active domain):

* **prefix domain** — at state ``i`` the domain is
  ``constants ∪ ⋃_{j<=i} adom(state_j)``: values never seen cannot be
  quantified over yet.  Cumulative, so it only grows.
* **anchor-time evaluation** — a temporal subformula's valuations at a
  past state ``j`` are those computed *at* ``j`` with ``j``'s domain;
  a value first appearing later does not retroactively satisfy
  ``ONCE NOT p(x)`` for the time before it existed.

Both are exactly what an implementation maintaining auxiliary
relations forward-in-time computes; the reference evaluator
(:class:`AdomHistoryEvaluator`) implements the same definition over a
materialised history, and property tests assert the two agree — and
that on *safe* (domain-independent) constraints the active-domain
engine agrees with the safe-range engines.

The one syntactic condition retained is ``fv(f) ⊆ fv(g)`` for
``f SINCE g`` (anchors must bind every variable the survival test
needs; without it anchors would need speculative domain extensions).

Cost caveat: negation and comparisons materialise ``domain^k`` tables;
this engine trades efficiency for expressiveness, by design.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.auxiliary import make_auxiliary
from repro.core.checker import Constraint
from repro.core.engine import Engine
from repro.core.foeval import (
    AtomProvider,
    StateTablesProvider,
    relation_atom_table,
)
from repro.core.formulas import (
    Aggregate,
    And,
    Atom,
    Comparison,
    Const,
    Exists,
    Formula,
    Not,
    Once,
    Or,
    Prev,
    Since,
    Var,
)
from repro.core.violations import StepReport
from repro.db.algebra import Table
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.db.types import Value
from repro.errors import HistoryError, MonitorError, UnsafeFormulaError
from repro.temporal.clock import Timestamp
from repro.temporal.history import History


def formula_constants(formula: Formula) -> FrozenSet[Value]:
    """All constants mentioned by a formula (part of the domain)."""
    out: Set[Value] = set()
    for sub in formula.walk():
        if isinstance(sub, Atom):
            terms = sub.terms
        elif isinstance(sub, Comparison):
            terms = (sub.left, sub.right)
        else:
            continue
        out.update(t.value for t in terms if isinstance(t, Const))
    return frozenset(out)


def check_adom_compatible(formula: Formula) -> None:
    """Verify the one syntactic condition of the active-domain engine."""
    for sub in formula.walk():
        if isinstance(sub, Since):
            extra = sub.left.free_vars - sub.right.free_vars
            if extra:
                raise UnsafeFormulaError(
                    f"left operand of SINCE uses variables "
                    f"{sorted(extra)} that its right operand does not "
                    f"bind (in {sub}); required even under active-domain "
                    f"semantics"
                )


def _full_table(columns: Sequence[str], domain: FrozenSet[Value]) -> Table:
    """The table ``domain^k`` under the given header."""
    return Table(
        tuple(columns),
        itertools.product(domain, repeat=len(columns)),
    )


def evaluate_adom(
    formula: Formula,
    provider: AtomProvider,
    domain: FrozenSet[Value],
) -> Table:
    """Satisfying valuations of a kernel formula over ``domain``.

    Unlike the safe-range evaluator, every subformula produces a
    *complete* table over its free variables: negation complements
    against ``domain^k``, disjuncts are padded with domain columns, and
    comparisons enumerate the domain.  Result columns are the sorted
    free variables.
    """
    header = tuple(sorted(formula.free_vars))

    if isinstance(formula, Atom):
        return provider.atom_table(formula).project(header)

    if isinstance(formula, (Prev, Once, Since)):
        return provider.temporal_table(formula).project(header)

    if isinstance(formula, Aggregate):
        body_table = evaluate_adom(formula.body, provider, domain)
        return body_table.aggregate(
            sorted(formula.group_vars),
            formula.over,
            formula.op.lower(),
            formula.result,
        ).project(header)

    if isinstance(formula, Comparison):
        return _comparison_table(formula, domain, header)

    if isinstance(formula, Not):
        inner = evaluate_adom(formula.operand, provider, domain)
        return _full_table(header, domain).difference(inner)

    if isinstance(formula, And):
        result = Table.nullary(True)
        for operand in formula.operands:
            result = result.join(
                evaluate_adom(operand, provider, domain)
            )
        return result.project(header)

    if isinstance(formula, Or):
        result = Table.empty(header)
        for operand in formula.operands:
            part = evaluate_adom(operand, provider, domain)
            missing = [c for c in header if c not in part.columns]
            if missing:
                part = part.join(_full_table(missing, domain))
            result = result.union(part.project(header))
        return result

    if isinstance(formula, Exists):
        inner = evaluate_adom(formula.operand, provider, domain)
        return inner.drop(*formula.variables).project(header)

    raise MonitorError(
        f"cannot evaluate non-kernel node {type(formula).__name__}; "
        f"run normalize() first"
    )


def _comparison_table(
    cmp: Comparison, domain: FrozenSet[Value], header: Tuple[str, ...]
) -> Table:
    left_var = cmp.left.name if isinstance(cmp.left, Var) else None
    right_var = cmp.right.name if isinstance(cmp.right, Var) else None

    def value_of(row: dict, var: Optional[str], term) -> Value:
        return row[var] if var is not None else term.value

    candidates = _full_table(header, domain)
    rows = []
    for row in candidates.rows:
        bound = dict(zip(header, row))
        try:
            ok = cmp.evaluate(
                value_of(bound, left_var, cmp.left),
                value_of(bound, right_var, cmp.right),
            )
        except Exception:
            ok = False  # incomparable values never satisfy
        if ok:
            rows.append(row)
    return Table(header, rows)


# ----------------------------------------------------------------------
# reference semantics over a materialised history
# ----------------------------------------------------------------------

class AdomHistoryEvaluator:
    """Reference prefix-active-domain semantics over a history.

    Mirrors :class:`~repro.core.semantics.HistoryEvaluator`, with the
    domain at snapshot ``i`` being the cumulative active domain of
    snapshots ``0..i`` plus ``extra_constants``.
    """

    def __init__(self, history: History, extra_constants: FrozenSet[Value] = frozenset()):
        self.history = history
        self.extra_constants = frozenset(extra_constants)
        self._domains: List[FrozenSet[Value]] = []
        self._cache: Dict[Tuple[Formula, int], Table] = {}

    def domain_at(self, index: int) -> FrozenSet[Value]:
        """Cumulative active domain at snapshot ``index``."""
        while len(self._domains) <= index:
            j = len(self._domains)
            previous = (
                self._domains[j - 1] if j else self.extra_constants
            )
            self._domains.append(
                previous | self.history.state_at(j).active_domain()
            )
        return self._domains[index]

    def table_at(self, formula: Formula, index: int) -> Table:
        """Satisfying valuations of a kernel formula at ``index``."""
        if not 0 <= index < self.history.length:
            raise HistoryError(f"snapshot index {index} out of range")
        key = (formula, index)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        provider = _AdomPointProvider(self, index)
        result = evaluate_adom(formula, provider, self.domain_at(index))
        self._cache[key] = result
        return result

    def temporal_table(self, formula: Formula, index: int) -> Table:
        """Satisfying valuations of a temporal node at ``index``."""
        key = (formula, index)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        header = tuple(sorted(formula.free_vars))
        if isinstance(formula, Prev):
            if index == 0:
                result = Table.empty(header)
            else:
                gap = (
                    self.history.time_at(index)
                    - self.history.time_at(index - 1)
                )
                if formula.interval.contains(gap):
                    result = self.table_at(formula.operand, index - 1)
                else:
                    result = Table.empty(header)
        elif isinstance(formula, Once):
            now = self.history.time_at(index)
            result = Table.empty(header)
            for j in range(index, -1, -1):
                delta = now - self.history.time_at(j)
                if formula.interval.bounded_by(delta):
                    break
                if formula.interval.contains(delta):
                    result = result.union(self.table_at(formula.operand, j))
        elif isinstance(formula, Since):
            result = self._since_table(formula, index)
        else:
            raise HistoryError(f"not a temporal node: {formula}")
        self._cache[key] = result
        return result

    def _since_table(self, formula: Since, index: int) -> Table:
        now = self.history.time_at(index)
        header = tuple(sorted(formula.right.free_vars))
        pending = Table.empty(header)
        for j in range(0, index + 1):
            if j > 0 and not pending.is_empty:
                # anchors survive iff the left operand holds at j for
                # their valuation (fv(left) ⊆ fv(right), so this join
                # is a semijoin)
                left = self.table_at(formula.left, j)
                pending = pending.join(left).project(header)
            delta = now - self.history.time_at(j)
            if formula.interval.contains(delta):
                pending = pending.union(
                    self.table_at(formula.right, j).project(header)
                )
        return pending.project(tuple(sorted(formula.free_vars)))


class _AdomPointProvider(AtomProvider):
    def __init__(self, evaluator: AdomHistoryEvaluator, index: int):
        self.evaluator = evaluator
        self.index = index

    def atom_table(self, atom: Atom) -> Table:
        state = self.evaluator.history.state_at(self.index)
        return relation_atom_table(state.relation(atom.relation), atom)

    def temporal_table(self, formula: Formula) -> Table:
        return self.evaluator.temporal_table(formula, self.index)


# ----------------------------------------------------------------------
# the incremental active-domain checker
# ----------------------------------------------------------------------

class ActiveDomainChecker(Engine):
    """Incremental checking under prefix-active-domain semantics.

    Same stepping API as
    :class:`~repro.core.checker.IncrementalChecker`; accepts
    constraints outside the safe-range fragment (build them with
    ``Constraint(name, formula, require_safe=False)``).
    """

    #: engine label used in telemetry series and by ``space_of``
    engine_label = "adom"

    def __init__(
        self,
        schema: DatabaseSchema,
        constraints: Sequence[Constraint],
        initial: Optional[DatabaseState] = None,
        instrumentation=None,
    ):
        super().__init__(schema, constraints, instrumentation)
        for c in self.constraints:
            check_adom_compatible(c.violation_formula)
        self.state = self._base_state(initial)
        self.domain: Set[Value] = set(self.state.active_domain())
        for c in self.constraints:
            self.domain |= formula_constants(c.violation_formula)
        for c in self.constraints:
            for node in c.violation_formula.temporal_subformulas():
                if node not in self._aux:
                    self._aux[node] = make_auxiliary(node)
        self._node_labels = {node: str(node) for node in self._aux}
        self._schedule = [
            (aux, self._evaluate_now, self._node_labels[node], node)
            for node, aux in self._aux.items()
        ]
        self._attribute_aux(self._aux)
        #: virtual tables of the most recent step (for diagnose())
        self._last_virtual: Dict[Formula, Table] = {}
        # the most recent step's provider and (frozen) domain
        self._provider = StateTablesProvider(self.state, self._last_virtual)
        self._domain_now: FrozenSet[Value] = frozenset(self.domain)

    def step_state(self, time: Timestamp, state: DatabaseState) -> StepReport:
        """Like :meth:`step`, but with the successor state given directly."""
        if state.schema != self.schema:
            raise MonitorError("state does not match checker schema")
        return self.step(time, self.state.diff(state))

    def _apply(
        self,
        time: Timestamp,
        txn: Optional[Transaction],
        state: Optional[DatabaseState],
    ) -> bool:
        assert txn is not None  # step_state derives a transaction
        self.state = self.state.apply(txn)
        for rows in txn.inserts.values():
            for row in rows:
                self.domain.update(row)
        return True

    def _advance_auxiliary(self, time: Timestamp) -> None:
        self._domain_now = frozenset(self.domain)
        self._last_virtual = {}
        self._provider = StateTablesProvider(self.state, self._last_virtual)
        super()._advance_auxiliary(time)

    def _evaluate_now(
        self, formula: Formula, context: Optional[Table] = None
    ) -> Table:
        table = evaluate_adom(formula, self._provider, self._domain_now)
        if context is None:
            return table
        return context.join(table)

    def _publish(self, node: Formula, table: Table) -> None:
        self._last_virtual[node] = table

    def _witnesses(self, position: int, constraint: Constraint) -> Table:
        return evaluate_adom(
            constraint.violation_formula, self._provider, self._domain_now
        )

    # instrumentation: the uniform accounting protocol is inherited,
    # through Engine, from repro.core.statespace.AuxAccounting; only the
    # active-domain extras live here

    def domain_size(self) -> int:
        """Cumulative active-domain cardinality (grows monotonically)."""
        return len(self.domain)

    def state_profile(self, deep: bool = True) -> Dict[str, object]:
        """Uniform accounting snapshot, plus the ``domain`` section."""
        profile = super().state_profile(deep)
        profile["domain"] = {"values": self.domain_size()}
        return profile
