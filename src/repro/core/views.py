"""Maintained views: formula results kept across steps, patched by delta.

The incremental checker evaluates the same formulas at every state —
each temporal node's operand, ``SINCE``'s left operand over its stored
candidates, each constraint's violation formula.  A :class:`View` keeps
its result in a table of its own and, instead of recomputing it, asks
which *keys* the update can have touched, re-evaluates only those and
patches the table in place: this is simplified checking of denial
constraints (evaluate only the instances of the violation query an
update can affect) applied uniformly.

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
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
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
from repro.db.algebra import UNCHANGED, Delta, Table, tuple_of
from repro.db.database import DatabaseState
from repro.db.types import Row
from repro.errors import MonitorError

#: Restricted re-evaluation pays a probe and a patch per key; once the
#: keys are this share of the largest input, evaluate everything.
WHOLE_SHARE = 0.5


class Leaf:
    """One leaf's table at the provider's current step, and how it got
    there: the cell views read instead of asking by formula."""

    __slots__ = ("formula", "table", "mark", "delta", "stamp")

    #: the leaf's table as of step ``stamp`` (unset until there is one)
    table: Table

    def __init__(self, formula: Formula):
        self.formula = formula
        #: a temporal node's table as published (``Table.mark``)
        self.mark: Optional[Tuple[Table, int]] = None
        #: ``(rows entered, rows left)`` against the step before, or
        #: ``None`` when there is nothing to compare with
        self.delta: Optional[Delta] = None
        #: the provider's step the table belongs to (none yet: -1)
        self.stamp = -1


class StateProvider(AtomProvider):
    """The leaves' tables at the current step, and how each moved.

    Resolves atoms from tables maintained across steps and temporal
    nodes from the virtual tables the checker computes bottom-up in the
    same step.  Every leaf has one :class:`Leaf` cell.  An atom's table
    is the provider's own: :meth:`advance` patches it in place with the
    pattern-matched rows its relation really gained and lost, so a
    relation is matched in full only once.  A temporal node's table is
    its auxiliary state's, handed over by :meth:`publish` and followed
    by its version.  Either way the change against the previous step
    falls out of the same operation and is left in the cell.
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

    def _matched(self, atom: Atom) -> Table:
        """The atom's table, matched against the current state in full."""
        table = relation_atom_table(self.state.relation(atom.relation), atom)
        return Table.owned(table.columns, table.rows)

    def cell(self, leaf: Formula) -> Leaf:
        """The cell of an atom or temporal node.  An atom asked for the
        first time joins the maintained ones."""
        cell = self._cells.get(leaf)
        if cell is None:
            cell = Leaf(leaf)
            if isinstance(leaf, Atom):
                cell.table = self._matched(leaf)
                cell.stamp = self.stamp
                self._atoms.setdefault(leaf.relation, []).append(
                    (cell, atom_matcher(leaf)[1])
                )
            self._cells[leaf] = cell
        return cell

    def advance(
        self, state: DatabaseState, changes: Optional[Mapping[str, Delta]]
    ) -> None:
        """Move to ``state``; temporal nodes await this step's tables.

        ``changes`` is what a transaction really changed to get there,
        per relation (:meth:`repro.db.database.DatabaseState.patch`):
        every atom table is patched by its share of it.  With ``None``
        the delta is unknown, the tables are matched afresh and no leaf
        reports a delta for this step.
        """
        self.stamp = stamp = self.stamp + 1
        self._successor = changes is not None
        self.state = state
        for name, atoms in self._atoms.items():
            change = None if changes is None else changes.get(name, UNCHANGED)
            for cell, match in atoms:
                cell.stamp = stamp
                if change is None:
                    cell.table = self._matched(cell.formula)
                    cell.delta = None
                elif change is UNCHANGED:
                    cell.delta = UNCHANGED
                else:
                    cell.delta = cell.table.patch(
                        match(change[0]), match(change[1])
                    )

    def publish(self, cell: Leaf, table: Table) -> None:
        """Make ``table`` a temporal node's virtual table of this step:
        the table its owner patches from step to step, or another one
        when nothing links the two steps."""
        if self._successor and cell.stamp == self.stamp - 1:
            cell.delta = table.delta_since(cell.mark)
        else:
            cell.delta = None
        cell.table = table
        cell.mark = table.mark()
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

    The result table is the view's own (:meth:`Table.owned`): refreshes
    patch it in place, once each, so whoever reads it every step follows
    it by version.  A view of a bare leaf whose table already has the
    view's header keeps no copy: it hands out the leaf's table, with the
    same accounting.

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
        "_leaves", "_provider", "_sources", "_forwarded", "_context_keys",
        "_context", "_context_mark", "_stamp",
    )

    def __init__(
        self, formula: Formula, columns: Optional[Tuple[str, ...]] = None
    ):
        self.formula = formula
        self.columns = header_of(formula) if columns is None else columns
        #: the maintained result (empty before the first refresh)
        self.table = Table.owned(self.columns, ())
        #: refreshes that ran the evaluator at all (the rest reused)
        self.evaluations = 0
        #: affected keys re-evaluated by restricted refreshes
        self.keys_evaluated = 0
        self._leaves = leaves_of(formula)
        #: the provider whose cells the leaves are bound to
        self._provider: Optional[StateProvider] = None
        #: each leaf's cell with how its rows map to this view's keys
        self._sources: List[Tuple[Leaf, _Keys]] = []
        #: the cell whose table *is* the result (a bare leaf under the
        #: view's own header, evaluated without a context)
        self._forwarded: Optional[Leaf] = None
        self._context_keys: Optional[_Keys] = None
        #: the context of the last refresh, and its mark then
        self._context: Optional[Table] = None
        self._context_mark: Optional[Tuple[Table, int]] = None
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
            # to ask; everything is evaluated before the table is
            # patched, and context and stamp move only after that, so a
            # refresh that raised is redone from the table and the
            # context delta it started from
            self._refresh(provider, context, stamp)
            self._context = context
            if context is not None:
                self._context_mark = context.mark()
            self._stamp = stamp
        return self.table

    def _bind(self, provider: StateProvider, context: Optional[Table]) -> None:
        """Bind each leaf to its cell once: from here on a refresh reads
        attributes instead of asking by formula."""
        self._sources = [
            (provider.cell(leaf), _Keys(self._shared_with(shared)))
            for leaf, shared in self._leaves
        ]
        self._forwarded = None
        if (
            context is None
            and len(self._leaves) == 1
            and self._leaves[0][0] == self.formula
        ):
            cell = self._sources[0][0]
            if cell.stamp == provider.stamp and (
                cell.table.columns == self.columns
            ):
                self._forwarded = cell
        self._provider = provider

    def _refresh(
        self, provider: StateProvider, context: Optional[Table], stamp: int
    ) -> None:
        if provider is not self._provider:
            self._bind(provider, context)
        table = self.table
        if stamp != self._stamp + 1:
            return self._evaluate_whole(provider, context)

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
            delta = context.delta_since(self._context_mark)
            if delta is None:
                return self._evaluate_whole(provider, context)
            added, removed = delta
            if added or removed:
                if self._context_keys is None:
                    self._context_keys = _Keys(
                        self._shared_with(context.columns)
                    )
                self._context_keys.note(
                    affected, context.columns, added, removed
                )
        if not affected:
            return None
        count = sum(map(len, affected.values()))
        largest = 0 if context is None else len(context.rows)
        for cell, _keys in self._sources:
            largest = max(largest, len(cell.table.rows))
        if count >= WHOLE_SHARE * largest:
            return self._evaluate_whole(provider, context)

        self.evaluations += 1
        self.keys_evaluated += count
        if self._forwarded is not None:
            self.table = self._forwarded.table
            return None
        gained: Set[Row] = set()
        lost: Set[Row] = set()
        for columns, keys in affected.items():
            restricted = Table._trusted(columns, keys)
            if context is not None:
                restricted = restricted.join(context)
            fresh = evaluate(self.formula, provider, restricted)
            gained |= fresh.project(table.columns).rows
            lost |= table.matching(columns, keys)
        table.patch(gained, lost)
        return None

    def _evaluate_whole(
        self, provider: StateProvider, context: Optional[Table]
    ) -> None:
        self.evaluations += 1
        result = evaluate(self.formula, provider, context)
        if self._forwarded is not None:
            self.table = result  # the leaf's own table, patched by its owner
            return
        # the result may be another owner's table: only its rows are
        # taken, into the view's own
        fresh, rows = result.project(self.columns).rows, self.table.rows
        self.table.patch(fresh - rows, rows - fresh)
