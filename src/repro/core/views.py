"""Maintained views: formula results kept across steps, patched by delta.

The incremental checker evaluates the same formulas at every state —
each temporal node's operand, ``SINCE``'s left operand over its stored
candidates, each constraint's violation formula.  A :class:`View` keeps
last step's result table and, instead of recomputing it, asks which
*keys* the update can have touched and re-evaluates only those: this is
simplified checking of denial constraints (evaluate only the instances
of the violation query an update can affect) applied uniformly.

The argument is semantic, not syntactic.  Let ``f`` be the formula,
``L`` one of its *leaves* (a relational atom, or a temporal node — a
leaf because its virtual table is maintained elsewhere) and ``S`` the
variables of ``L`` that are free in ``f`` at ``L``'s position.  Whether
a valuation ``v`` satisfies ``f`` depends on ``L`` only through the
rows of ``L``'s table that agree with ``v`` on ``S``.  So if no row
that entered or left any leaf table agrees with ``v`` on that leaf's
``S``, ``v``'s membership in the result is unchanged.  The *affected
keys* of a step are therefore the delta rows of each leaf projected on
its ``S``; :func:`repro.core.foeval.evaluate` is re-run with exactly
those keys as its context and the stored rows under those keys are
replaced by what it returns.

There is one evaluator and one code path: when a leaf shares no
variable with the result, when the view missed a step, or when the
affected keys are most of the input anyway, the context is simply
"everything" — the ordinary evaluation, through the same call.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.foeval import (
    AtomProvider,
    atom_matcher,
    evaluate,
    relation_atom_table,
)
from repro.core.formulas import (
    Aggregate,
    Atom,
    Comparison,
    Exists,
    Formula,
    Var,
)
from repro.db.algebra import Table, tuple_of
from repro.db.database import DatabaseState
from repro.db.types import Row
from repro.errors import MonitorError

#: A leaf's change in one step: its table's columns, then the rows that
#: entered and the rows that left.
LeafDelta = Tuple[Tuple[str, ...], FrozenSet[Row], FrozenSet[Row]]

#: Restricted re-evaluation pays a probe and a patch per key; once the
#: keys are this share of the largest input, evaluate everything.
WHOLE_SHARE = 0.5


class StateProvider(AtomProvider):
    """The leaves' tables at the current step, and how each moved.

    Resolves atoms from tables maintained across steps and temporal
    nodes from the virtual tables the checker computes bottom-up in the
    same step.  Each distinct atom of the constraint set keeps its
    table of satisfying valuations; :meth:`advance` patches it with the
    pattern-matched rows its relation really gained and lost, so a
    relation is matched in full only once.  :meth:`delta_of` reports
    any leaf's change against the previous step.
    """

    def __init__(self, atoms: Sequence[Atom], state: DatabaseState):
        self.state = state
        #: increases by one per step; a view that was not refreshed at
        #: the previous stamp has missed a delta and starts over
        self.stamp = 0
        #: this step's virtual tables, filled bottom-up by the checker
        self.virtual: Dict[Formula, Table] = {}
        #: relation name -> [(atom, match)]: the maintained atoms
        self._atoms: Dict[str, list] = {}
        for atom in atoms:
            self._atoms.setdefault(atom.relation, []).append(
                (atom, atom_matcher(atom)[1])
            )
        self._tables = self._matched(state)
        #: last step's leaf tables, and this step's deltas against them
        self._previous: Dict[Formula, Table] = {}
        self._deltas: Dict[Formula, Optional[LeafDelta]] = {}

    def _matched(self, state: DatabaseState) -> Dict[Atom, Table]:
        """Every maintained atom matched against ``state`` in full."""
        return {
            atom: relation_atom_table(state.relation(name), atom)
            for name, atoms in self._atoms.items()
            for atom, _match in atoms
        }

    def advance(self, state: DatabaseState, successor: bool) -> None:
        """Move to ``state`` and open a new set of virtual tables.

        When ``state`` is the ``successor`` of the current one by a
        transaction, every atom table is patched by its relation's
        effective delta; otherwise the delta is unknown, the tables are
        matched afresh and no leaf reports a delta for this step.
        """
        before = self.state
        self.state = state
        self.stamp += 1
        self._deltas = {}
        if successor:
            tables = self._tables
            self._previous = {**self.virtual, **tables}
            changes = state.delta_from(before)
            for name, (added, removed) in changes.items():
                for atom, match in self._atoms.get(name, ()):
                    tables[atom] = tables[atom].with_changes(
                        match(added), match(removed)
                    )
        else:
            self._previous = {}
            self._tables = self._matched(state)
        self.virtual = {}

    def atom_table(self, atom: Atom) -> Table:
        table = self._tables.get(atom)
        if table is None:  # not an atom of the constraint set
            table = relation_atom_table(
                self.state.relation(atom.relation), atom
            )
        return table

    def temporal_table(self, formula: Formula) -> Table:
        try:
            return self.virtual[formula]
        except KeyError:
            raise MonitorError(
                f"virtual table missing for {formula}; temporal nodes "
                f"must be advanced bottom-up"
            ) from None

    def table_of(self, leaf: Formula) -> Table:
        """The current table of an atom or temporal node."""
        if isinstance(leaf, Atom):
            return self.atom_table(leaf)
        return self.temporal_table(leaf)

    def delta_of(self, leaf: Formula) -> Optional[LeafDelta]:
        """How ``leaf``'s table changed in this step; ``None`` when
        there is no previous table to compare with."""
        try:
            return self._deltas[leaf]
        except KeyError:
            pass
        table = self.table_of(leaf)
        previous = self._previous.get(leaf)
        if previous is None or previous.columns != table.columns:
            delta = None
        else:
            delta = (table.columns,) + table.delta_from(previous)
        self._deltas[leaf] = delta
        return delta


def leaves_of(formula: Formula) -> List[Tuple[Formula, FrozenSet[str]]]:
    """The leaves of ``formula`` with, for each, the variables it
    shares with the formula's free variables.

    Atoms and temporal nodes are leaves (a temporal node's operands are
    not descended into).  A variable bound by an enclosing quantifier
    or aggregation is not shared: the leaf is consulted for every value
    of it.
    """
    found: Dict[Formula, FrozenSet[str]] = {}

    def walk(node: Formula, bound: FrozenSet[str]) -> None:
        if isinstance(node, Atom) or node.is_temporal:
            shared = node.free_vars - bound
            previous = found.get(node)
            # the same leaf under different binders: keep what is
            # shared at every occurrence
            found[node] = shared if previous is None else previous & shared
            return
        if isinstance(node, Exists):
            bound = bound | frozenset(node.variables)
        elif isinstance(node, Aggregate):
            bound = bound | frozenset(node.over)
        for child in node.children():
            walk(child, bound)

    walk(formula, frozenset())
    return list(found.items())


def header_of(formula: Formula) -> Tuple[str, ...]:
    """The free variables of ``formula`` in the order it first mentions
    them, left to right; an aggregate's result comes after the grouping
    variables of its body."""
    free = formula.free_vars
    found: Dict[str, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            terms: Sequence = node.terms
        elif isinstance(node, Comparison):
            terms = (node.left, node.right)
        else:
            terms = ()
        for term in terms:
            if isinstance(term, Var) and term.name in free:
                found.setdefault(term.name)
        for child in node.children():
            walk(child)
        if isinstance(node, Aggregate) and node.result in free:
            found.setdefault(node.result)

    walk(formula)
    return tuple(found)


class View:
    """The result of one formula, kept up to date step by step.

    Args:
        formula: the kernel formula to maintain.
        columns: header of the result table, fixed for the view's life
            (default: the formula's free variables in the order it
            first mentions them).  Evaluation orders its columns by the
            step's join plan; a maintained result cannot follow that,
            so the view projects onto one order of its own.  Views
            feeding an auxiliary state pass the state's column order so
            tables go through unprojected.
    """

    __slots__ = (
        "formula", "columns", "table", "evaluations", "keys_evaluated",
        "_leaves", "_context", "_stamp",
    )

    def __init__(
        self, formula: Formula, columns: Optional[Tuple[str, ...]] = None
    ):
        self.formula = formula
        self.columns = header_of(formula) if columns is None else columns
        #: the maintained result (``None`` before the first refresh)
        self.table: Optional[Table] = None
        #: refreshes that ran the evaluator at all (the rest reused)
        self.evaluations = 0
        #: affected keys re-evaluated by restricted refreshes
        self.keys_evaluated = 0
        self._leaves = leaves_of(formula)
        self._context: Optional[Table] = None
        self._stamp = -1

    def refresh(
        self, provider: StateProvider, context: Optional[Table] = None
    ) -> Table:
        """The formula's result at the provider's current step.

        With a ``context`` the result is that of
        ``evaluate(formula, provider, context)`` — the context rows
        that satisfy the formula — and the context's own change since
        the last refresh counts as affected keys too.
        """
        stamp = provider.stamp
        if stamp != self._stamp:
            # a view shared by several nodes is refreshed by the first
            # to ask; table, context and stamp move together and only
            # once the work is done, so a refresh that raised is redone
            # against the same previous table and context
            self.table = self._refreshed(provider, context, stamp)
            self._context = context
            self._stamp = stamp
        return self.table

    def _refreshed(
        self, provider: StateProvider, context: Optional[Table], stamp: int
    ) -> Table:
        table = self.table
        if (
            table is None
            or stamp != self._stamp + 1
            or (context is not None and self._context is None)
        ):
            return self._evaluate_whole(provider, context)

        # every source of change: (its columns, rows entered, rows
        # left, the columns it shares with the view)
        sources = []
        largest = 0
        for leaf, shared in self._leaves:
            delta = provider.delta_of(leaf)
            if delta is None:
                return self._evaluate_whole(provider, context)
            sources.append(delta + (shared,))
            largest = max(largest, len(provider.table_of(leaf)))
        if context is not None:
            sources.append(
                (context.columns,)
                + context.delta_from(self._context)
                + (frozenset(context.columns),)
            )
            largest = max(largest, len(context))

        affected: Dict[FrozenSet[str], Set[Row]] = {}
        for columns, added, removed, shared in sources:
            if not added and not removed:
                continue
            if not shared:
                return self._evaluate_whole(provider, context)
            # keys in the view's own column order, so that a key over
            # every column is a row
            key = tuple_of([
                columns.index(c) for c in table.columns if c in shared
            ])
            keys = affected.setdefault(shared, set())
            keys.update(map(key, added))
            keys.update(map(key, removed))
        if not affected:
            return table
        count = sum(len(keys) for keys in affected.values())
        if count >= WHOLE_SHARE * largest:
            return self._evaluate_whole(provider, context)

        self.evaluations += 1
        self.keys_evaluated += count
        for shared, keys in affected.items():
            columns = tuple(c for c in table.columns if c in shared)
            restricted = Table._trusted(columns, keys)
            if context is not None:
                restricted = restricted.join(context)
            fresh = evaluate(self.formula, provider, restricted)
            table = table.with_changes(
                added=fresh.project(table.columns).rows,
                removed=table.matching(columns, keys),
            )
        return table

    def _evaluate_whole(
        self, provider: StateProvider, context: Optional[Table]
    ) -> Table:
        self.evaluations += 1
        return evaluate(self.formula, provider, context).project(self.columns)
