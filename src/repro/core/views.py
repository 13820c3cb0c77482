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

from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.core.foeval import (
    AtomProvider,
    atom_matcher,
    evaluate,
    plan_memo,
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

#: Restricted re-evaluation pays a probe and a patch per key; once the
#: keys are this share of the largest input, evaluate everything.
WHOLE_SHARE = 0.5

_UNCHANGED = (frozenset(), frozenset())


class Leaf:
    """One leaf's table at the provider's current step, and how it got
    there: the cell views read instead of asking by formula."""

    __slots__ = ("formula", "table", "delta", "stamp")

    #: the leaf's table as of step ``stamp`` (unset until there is one)
    table: Table

    def __init__(self, formula: Formula):
        self.formula = formula
        #: ``(rows entered, rows left)`` against the step before, or
        #: ``None`` when there is nothing to compare with
        self.delta: Optional[Tuple[FrozenSet[Row], FrozenSet[Row]]] = None
        #: the provider's step the table belongs to (none yet: -1)
        self.stamp = -1


class StateProvider(AtomProvider):
    """The leaves' tables at the current step, and how each moved.

    Resolves atoms from tables maintained across steps and temporal
    nodes from the virtual tables the checker computes bottom-up in the
    same step.  Every leaf has one :class:`Leaf` cell.  An atom's cell
    is patched by :meth:`advance` with the pattern-matched rows its
    relation really gained and lost, so a relation is matched in full
    only once; a temporal node's is filled when the checker
    :meth:`publish` is given its virtual table.  Either way the change
    against the previous step falls out of the same operation and is
    left in the cell.
    """

    def __init__(self, atoms: Sequence[Atom], state: DatabaseState):
        self.state = state
        #: increases by one per step; a view that was not refreshed at
        #: the previous stamp has missed a delta and starts over
        self.stamp = 0
        #: plans compiled against this provider (see AtomProvider.plans)
        self.plans = plan_memo()
        #: whether this step's state came from the last by a transaction
        self._successor = False
        self._cells: Dict[Formula, Leaf] = {}
        #: relation name -> [(cell, match)]: the maintained atoms
        self._atoms: Dict[str, list] = {}
        for atom in atoms:
            self.cell(atom)

    def cell(self, leaf: Formula) -> Leaf:
        """The cell of an atom or temporal node.  An atom asked for the
        first time joins the maintained ones, matched against the
        current state in full."""
        cell = self._cells.get(leaf)
        if cell is None:
            cell = Leaf(leaf)
            if isinstance(leaf, Atom):
                cell.table = relation_atom_table(
                    self.state.relation(leaf.relation), leaf
                )
                cell.stamp = self.stamp
                self._atoms.setdefault(leaf.relation, []).append(
                    (cell, atom_matcher(leaf)[1])
                )
            self._cells[leaf] = cell
        return cell

    def advance(self, state: DatabaseState, successor: bool) -> None:
        """Move to ``state``; temporal nodes await this step's tables.

        When ``state`` is the ``successor`` of the current one by a
        transaction, every atom table is patched by its relation's
        effective delta; otherwise the delta is unknown, the tables are
        matched afresh and no leaf reports a delta for this step.
        """
        self.stamp = stamp = self.stamp + 1
        self._successor = successor
        if successor:
            changes = state.delta_from(self.state)
            # only its delta was needed: let the previous state go
            # before the atom tables grow their successors
            self.state = state
            for name, atoms in self._atoms.items():
                change = changes.get(name)
                for cell, match in atoms:
                    cell.stamp = stamp
                    if change is None:
                        cell.delta = _UNCHANGED
                        continue
                    previous = cell.table
                    cell.table = table = previous.with_changes(
                        match(change[0]), match(change[1])
                    )
                    cell.delta = table.delta_from(previous)
        else:
            self.state = state
            for name, atoms in self._atoms.items():
                relation = state.relation(name)
                for cell, _match in atoms:
                    cell.table = relation_atom_table(relation, cell.formula)
                    cell.delta = None
                    cell.stamp = stamp

    def publish(self, cell: Leaf, table: Table) -> None:
        """Make ``table`` a temporal node's virtual table of this step."""
        if (
            self._successor
            and cell.stamp == self.stamp - 1
            and cell.table.columns == table.columns
        ):
            cell.delta = table.delta_from(cell.table)
        else:
            cell.delta = None
        cell.table = table
        cell.stamp = self.stamp

    def atom_table(self, atom: Atom) -> Table:
        cell = self._cells.get(atom)
        if cell is None:  # not an atom of the constraint set
            return relation_atom_table(
                self.state.relation(atom.relation), atom
            )
        return cell.table

    def temporal_table(self, formula: Formula) -> Table:
        cell = self._cells.get(formula)
        if cell is None or cell.stamp != self.stamp:
            raise MonitorError(
                f"virtual table missing for {formula}; temporal nodes "
                f"must be advanced bottom-up"
            )
        return cell.table


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


class _Keys:
    """How a view reads its keys off one source of change (a leaf, or
    its context): the columns the source shares with the view, in the
    view's order, and the projection of a source row onto them."""

    __slots__ = ("columns", "_header", "_key")

    def __init__(self, columns: Tuple[str, ...]):
        self.columns = columns
        self._header: Optional[Tuple[str, ...]] = None
        self._key = tuple_of(())

    def note(
        self,
        affected: Dict[Tuple[str, ...], Set[Row]],
        header: Tuple[str, ...],
        added: Iterable[Row],
        removed: Iterable[Row],
    ) -> None:
        """Add the keys of the rows that entered and left the source
        (rows under ``header``) to ``affected``, by key columns."""
        if header != self._header:
            # a source's header does not change; it is only unknown
            # until its first table arrives
            self._key = tuple_of([header.index(c) for c in self.columns])
            self._header = header
        keys = affected.setdefault(self.columns, set())
        keys.update(map(self._key, added))
        keys.update(map(self._key, removed))


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
        "_leaves", "_provider", "_sources", "_context_keys", "_context",
        "_stamp",
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
        #: the provider whose cells the leaves are bound to
        self._provider: Optional[StateProvider] = None
        #: each leaf's cell with how its rows map to this view's keys
        self._sources: List[Tuple[Leaf, _Keys]] = []
        self._context_keys: Optional[_Keys] = None
        self._context: Optional[Table] = None
        self._stamp = -1

    def _shared_with(self, variables) -> Tuple[str, ...]:
        return tuple(c for c in self.columns if c in variables)

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
        if provider is not self._provider:
            # bind each leaf to its cell once: from here on a refresh
            # reads attributes instead of asking by formula
            self._sources = [
                (provider.cell(leaf), _Keys(self._shared_with(shared)))
                for leaf, shared in self._leaves
            ]
            self._provider = provider

        # every source of change: the rows that entered and left it,
        # projected on the columns it shares with the view — keys in
        # the view's own column order, so that a key over every column
        # is a row
        affected: Dict[Tuple[str, ...], Set[Row]] = {}
        for cell, keys in self._sources:
            if cell.stamp != stamp or cell.delta is None:
                return self._evaluate_whole(provider, context)
            added, removed = cell.delta
            if added or removed:
                if not keys.columns:
                    return self._evaluate_whole(provider, context)
                keys.note(affected, cell.table.columns, added, removed)
        if context is not None:
            added, removed = context.delta_from(self._context)
            if added or removed:
                if self._context_keys is None:
                    self._context_keys = _Keys(
                        self._shared_with(context.columns)
                    )
                self._context_keys.note(
                    affected, context.columns, added, removed
                )
        if not affected:
            return table
        count = sum(len(keys) for keys in affected.values())
        largest = max(
            (len(cell.table) for cell, _keys in self._sources), default=0
        )
        if context is not None:
            largest = max(largest, len(context))
        if count >= WHOLE_SHARE * largest:
            return self._evaluate_whole(provider, context)

        self.evaluations += 1
        self.keys_evaluated += count
        for columns, keys in affected.items():
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
