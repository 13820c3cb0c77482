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

When a leaf shares no variable with the result, when the view missed
a step, or when the affected keys are most of the input anyway, the
context is simply "everything" — the ordinary evaluation, through the
same call.  Three formula shapes compute the same rows under the same
keys without the evaluator — set operations, or a probe of a leaf's
index — and a view of such a shape chooses that refresh once, when it
binds its leaves (:class:`View`).
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import itemgetter, not_
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
    COMPARISON_OPS,
    Aggregate,
    And,
    Atom,
    Comparison,
    Exists,
    Formula,
    Not,
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
    view's header keeps no copy: it hands out the leaf's table.

    How a view refreshes is chosen once, when it is bound to a provider,
    from the shape of its formula and the headers of its leaves:

    * a bare leaf under the view's header is *forwarded*;
    * a conjunction of leaves and negated leaves, each over exactly the
      view's columns (the violation of ``guard(x) -> T(x)``), is *set
      algebra* over the affected keys: ``K ∩ P₁ ∩ … − N₁ − …``;
    * ``EXISTS y. A(x, y) AND cmp…`` over one leaf, with or without a
      context, *probes* the leaf's index per affected key and filters
      the rows found by the comparisons, column by column;
    * anything else is the *restricted evaluation* below.

    Every shape falls back to evaluating in full, through the one
    evaluator, where the restricted evaluation does.

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
        "_leaves", "_provider", "_sources", "_kernel", "_shape",
        "_context_keys", "_context", "_context_mark", "_stamp",
    )

    def __init__(
        self, formula: Formula, columns: Optional[Tuple[str, ...]] = None
    ):
        self.formula = formula
        self.columns = header_of(formula) if columns is None else columns
        #: the maintained result (empty before the first refresh)
        self.table = Table.owned(self.columns, ())
        #: refreshes that ran the evaluator, or a refresh of a shape in
        #: its place (the rest reused last step's table)
        self.evaluations = 0
        #: affected keys re-evaluated by refreshes that restrict
        self.keys_evaluated = 0
        self._leaves = leaves_of(formula)
        #: the provider whose cells the leaves are bound to
        self._provider: Optional[StateProvider] = None
        #: each leaf's cell with how its rows map to this view's keys
        self._sources: List[Tuple[Leaf, _Keys]] = []
        #: the refresh chosen at binding (a function of the view), and
        #: what it was chosen with
        self._kernel = View._restricted
        self._shape: object = None
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
        the last refresh counts as affected keys too.  A view is
        refreshed with a context always or never.
        """
        stamp = provider.stamp
        if stamp != self._stamp:
            # a view shared by several nodes is refreshed by the first
            # to ask; everything is evaluated before the table is
            # patched, and context and stamp move only after that, so a
            # refresh that raised is redone from the table and the
            # context delta it started from
            if provider is not self._provider:
                self._bind(provider, context)
            self._kernel(self, provider, context, stamp)
            self._context = context
            if context is not None:
                self._context_mark = context.mark()
            self._stamp = stamp
        return self.table

    def _bind(self, provider: StateProvider, context: Optional[Table]) -> None:
        """Bind each leaf to its cell once, and choose the refresh: from
        here on a refresh reads attributes instead of asking by
        formula."""
        self._sources = [
            (provider.cell(leaf), _Keys(self._shared_with(shared)))
            for leaf, shared in self._leaves
        ]
        self._provider = provider
        self._kernel, self._shape = View._restricted, None
        cells = {cell.formula: cell for cell, _keys in self._sources}
        if any(cell.stamp != provider.stamp for cell in cells.values()):
            return  # a header that is not known yet decides nothing
        formula, columns = self.formula, self.columns
        if context is None and formula in cells:
            if cells[formula].table.columns == columns:
                self._kernel, self._shape = View._forward, cells[formula]
            return
        if context is None and isinstance(formula, And):
            shape = _conjunction_shape(formula, columns, cells)
            if shape is not None:
                self._kernel, self._shape = View._conjoin, shape
            return
        if isinstance(formula, Exists) and len(cells) == 1:
            shape = _probe_shape(
                formula, columns, next(iter(cells.values())),
                None if context is None else context.columns,
            )
            if shape is not None:
                self._kernel, self._shape = View._probe, shape

    # -- the refreshes -------------------------------------------------

    def _forward(
        self, provider: StateProvider, context: Optional[Table], stamp: int
    ) -> None:
        cell = self._shape
        if cell.stamp != stamp:  # the leaf was not advanced: raises
            provider.temporal_table(cell.formula)
        delta = cell.delta
        if stamp != self._stamp + 1 or delta is None or delta[0] or delta[1]:
            self.evaluations += 1  # what the evaluator would have run for
        self.table = cell.table

    def _conjoin(
        self, provider: StateProvider, context: Optional[Table], stamp: int
    ) -> None:
        if stamp != self._stamp + 1:
            return self._evaluate_whole(provider, context)
        conjuncts = self._shape
        keys: Set[Row] = set()
        for cell, to_view, _to_leaf, _positive in conjuncts:
            delta = cell.delta
            if cell.stamp != stamp or delta is None:
                return self._evaluate_whole(provider, context)
            added, removed = delta
            if added or removed:
                if to_view is None:
                    keys.update(added, removed)
                else:
                    keys.update(map(to_view, added), map(to_view, removed))
        if not keys:
            return None
        self.evaluations += 1
        self.keys_evaluated += len(keys)
        fresh = keys
        for cell, _to_view, to_leaf, positive in conjuncts:
            rows = cell.table.rows
            if to_leaf is None:
                fresh = fresh & rows if positive else fresh - rows
            else:
                held = map(rows.__contains__, map(to_leaf, fresh))
                fresh = set(compress(
                    fresh, held if positive else map(not_, held)
                ))
        table = self.table
        table.patch(fresh, table.rows.intersection(keys))
        return None

    def _probe(
        self, provider: StateProvider, context: Optional[Table], stamp: int
    ) -> None:
        if stamp != self._stamp + 1:
            return self._evaluate_whole(provider, context)
        cell, key_columns, positions, to_key, unwrap, of_context, filters = (
            self._shape
        )
        delta = cell.delta
        if cell.stamp != stamp or delta is None:
            return self._evaluate_whole(provider, context)
        keys: Set[Row] = set()
        added, removed = delta
        if added or removed:
            keys.update(map(to_key, added), map(to_key, removed))
        if context is not None:
            delta = context.delta_since(self._context_mark)
            if delta is None:
                return self._evaluate_whole(provider, context)
            added, removed = delta
            if added or removed:
                if of_context is None:
                    keys.update(added, removed)
                else:
                    keys.update(
                        map(of_context, added), map(of_context, removed)
                    )
        if not keys:
            return None
        leaf = cell.table
        # the cached index read directly: no call once it is built
        index = leaf._indexes.get(positions)
        if index is None:
            index = leaf._index_at(positions)
        rows = list(chain.from_iterable(map(
            index.get, keys if unwrap is None else map(unwrap, keys),
            repeat(()),
        )))
        try:
            for test, left, left_value, right, right_value in filters:
                rows = list(compress(rows, map(
                    test,
                    repeat(left_value) if left is None else map(left, rows),
                    repeat(right_value) if right is None else map(right, rows),
                )))
        except TypeError:
            # a value the bare operator cannot order: the evaluator
            # finds it again and raises the error that names it
            return self._restricted(provider, context, stamp)
        self.evaluations += 1
        self.keys_evaluated += len(keys)
        found = set(map(to_key, rows))
        table = self.table
        if of_context is None:
            if context is not None:
                found &= context.rows
            table.patch(found, table.rows.intersection(keys))
        else:
            candidates = context.matching(key_columns, keys)
            table.patch(
                compress(candidates, map(
                    found.__contains__, map(of_context, candidates)
                )),
                table.matching(key_columns, keys),
            )
        return None

    def _restricted(
        self, provider: StateProvider, context: Optional[Table], stamp: int
    ) -> None:
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
        # the result may be another owner's table: only its rows are
        # taken, into the view's own
        fresh, rows = result.project(self.columns).rows, self.table.rows
        self.table.patch(fresh - rows, rows - fresh)


def _conjunction_shape(
    formula: And, columns: Tuple[str, ...], cells: Mapping[Formula, Leaf]
) -> Optional[list]:
    """``(cell, leaf row -> key, key -> leaf row, positive)`` per
    conjunct, positive ones first, when every conjunct is a leaf or a
    negated leaf over exactly ``columns`` (either projection ``None``
    where the leaf's header is ``columns``); ``None`` otherwise."""
    wanted = set(columns)
    if not wanted:
        return None
    shape = []
    for operand in formula.operands:
        positive = not isinstance(operand, Not)
        cell = cells.get(operand if positive else operand.operand)
        if cell is None:
            return None
        header = cell.table.columns
        if set(header) != wanted:
            return None
        aligned = header == columns
        shape.append((
            cell,
            None if aligned else tuple_of([header.index(c) for c in columns]),
            None if aligned else tuple_of([columns.index(c) for c in header]),
            positive,
        ))
    shape.sort(key=lambda conjunct: not conjunct[3])
    return shape if shape[0][3] else None


def _probe_shape(
    formula: Exists,
    columns: Tuple[str, ...],
    cell: Leaf,
    context: Optional[Tuple[str, ...]],
) -> Optional[tuple]:
    """What :meth:`View._probe` reads, when ``formula`` is ``EXISTS y.
    L(x, y) AND cmp…`` — one leaf ``L`` and comparisons between its
    columns and constants — and its free variables are the view's
    columns (no ``context``) or among them, the columns of the context;
    ``None`` otherwise."""
    header = cell.table.columns
    free = formula.free_vars
    if not free or (
        set(columns) != free if context is None else (
            context != columns or not free <= set(columns)
        )
    ):
        return None
    body = formula.operand
    conjuncts = body.operands if isinstance(body, And) else (body,)
    if sum(conjunct == cell.formula for conjunct in conjuncts) != 1:
        return None
    filters = []
    for conjunct in conjuncts:
        if conjunct == cell.formula:
            continue
        if not isinstance(conjunct, Comparison):
            return None
        sides: list = []
        for term in (conjunct.left, conjunct.right):
            if isinstance(term, Var):
                if term.name not in header:
                    return None
                sides += [itemgetter(header.index(term.name)), None]
            else:
                sides += [None, term.value]
        if sides[0] is None and sides[2] is None:
            return None
        filters.append((COMPARISON_OPS[conjunct.op], *sides))
    key_columns = tuple(c for c in columns if c in free)
    positions = tuple(header.index(c) for c in key_columns)
    return (
        cell,
        key_columns,
        positions,
        tuple_of(positions),
        itemgetter(0) if len(positions) == 1 else None,
        None if key_columns == columns else tuple_of(
            [columns.index(c) for c in key_columns]
        ),
        filters,
    )
