"""First-order evaluation of kernel formulas over tables.

This evaluator is shared by the reference semantics, the naive
baseline, and the incremental checker: they differ only in the
:class:`AtomProvider` they plug in, which says how relational atoms and
*temporal* subformulas resolve to tables at the evaluation point.

Evaluation threads a *context table* through the formula: the result of
``evaluate(f, provider, ctx)`` has columns ``ctx.columns ∪ fv(f)`` and
contains exactly the context rows extended by every satisfying
valuation of ``f`` compatible with them.  Conjunctions are processed in
the order planned by :mod:`repro.core.safety`, negations become
anti-joins against the accumulated context, equalities bind or filter,
and quantifiers project.

A formula is not interpreted: :func:`compile_plan` turns it, once per
context header, into a *plan* — a closure ``plan(provider, ctx)`` per
node, each holding the plans of its children.  Everything the formula
and the header decide is decided while the plan is built: which kind
of node this is, whether a negation or comparison is evaluable, column
positions of filters, which conjuncts are ready in which round.  What
a plan still does when it runs is data work: fetch tables, join,
filter, and — only in a round with several candidate joins — compare
their current sizes.  :func:`evaluate` looks the plan up and runs it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.formulas import (
    COMPARISON_OPS,
    Aggregate,
    And,
    Atom,
    Comparison,
    Const,
    Eventually,
    Exists,
    Formula,
    Next,
    Not,
    Once,
    Or,
    Prev,
    Since,
    Until,
    Var,
)
from repro.core.safety import analyze, explain_unsafe, order_conjuncts
from repro.db.algebra import Table, tuple_of
from repro.db.types import Row, Value
from repro.errors import MonitorError, UnsafeFormulaError

#: When True (default) conjunctions are processed selectivity-first:
#: among the evaluable conjuncts, filters (comparisons, negations) go
#: before table-producing ones, and tables are joined smallest-first
#: using the provider's actual cardinalities.  Set False to fall back
#: to the static greedy order (the E11 planner-ablation benchmark).
#: Read when a plan is looked up: it is part of the memo key, so a plan
#: built in one mode never runs in the other.
SELECTIVE_PLANNING = True

#: plans one memo keeps before the least recently used one is dropped
PLAN_MEMO_SIZE = 4096

#: a compiled formula: the context rows extended by its valuations
Plan = Callable[["AtomProvider", Table], Table]

_TEMPORAL = (Prev, Once, Since, Next, Eventually, Until)
_NO_BINDINGS = Table.nullary(True)


def atom_matcher(atom: Atom) -> Tuple[Tuple[str, ...], Callable]:
    """Compile an atom's term list into ``(columns, match)``.

    ``match(rows)`` pattern-matches relation rows against the atom:
    constants select, repeated variables filter, and each surviving row
    is projected onto the atom's distinct variables in first-occurrence
    order (``columns``) — i.e. the satisfying valuations of the atom.
    Matching rows map one-to-one to valuations, so the match of a
    relation's delta is the delta of the atom's table.
    """
    var_positions: Dict[str, int] = {}
    constants: Dict[int, Value] = {}
    repeats: Dict[int, int] = {}
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Const):
            constants[pos] = term.value
        else:
            assert isinstance(term, Var)
            first = var_positions.setdefault(term.name, pos)
            if first != pos:
                repeats[pos] = first
    columns = tuple(var_positions)
    take = tuple_of([var_positions[c] for c in columns])

    # one closure per shape, each a single pass in C or in one
    # comprehension: nothing is called, and no generator made, per row
    if repeats or len(constants) > 1:
        # fixed positions against their constants and later occurrences
        # against first ones, each side one tuple
        fixed = tuple_of(list(constants) + list(repeats))
        wanted = tuple(constants.values())
        firsts = tuple_of(list(repeats.values()))

        def match(rows: Iterable[Row]) -> List[Row]:
            return [
                take(row) for row in rows
                if fixed(row) == wanted + firsts(row)
            ]
    elif constants:
        ((position, value),) = constants.items()

        def match(rows: Iterable[Row]) -> List[Row]:
            return [take(row) for row in rows if row[position] == value]
    else:
        def match(rows: Iterable[Row]) -> List[Row]:
            return list(map(take, rows))

    return columns, match


def match_atom(rows: Iterable[Row], atom: Atom) -> Table:
    """Pattern-match relation ``rows`` against an atom's term list
    (see :func:`atom_matcher`)."""
    columns, match = atom_matcher(atom)
    return Table._trusted(columns, match(rows))


def relation_atom_table(relation, atom: Atom) -> Table:
    """Like :func:`match_atom`, but index-accelerated.

    When the atom carries a constant, the relation's hash index on that
    position narrows the candidate rows before pattern matching —
    constant-time for selective atoms like ``status(o, 'shipped')``.
    ``relation`` is a :class:`repro.db.relation.Relation`.
    """
    rows = relation.rows
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const):
            rows = relation.lookup(position, term.value)
            break
    return match_atom(rows, atom)


# ----------------------------------------------------------------------
# conjunction ordering
# ----------------------------------------------------------------------

def _cardinality_of(formula: Formula) -> Callable[[AtomProvider], int]:
    """How to read a positive conjunct's current size off a provider,
    for join ordering.

    A provider that cannot resolve the conjunct raises here exactly as
    it would when the conjunct is evaluated: a missing virtual table is
    an ordering bug, not a reason to pick another join order.
    """
    if isinstance(formula, Atom):
        return lambda provider: len(provider.atom_table(formula))
    if isinstance(formula, _TEMPORAL):
        return lambda provider: len(provider.temporal_table(formula))
    return lambda provider: 1 << 20  # nested structure: no cheap estimate


class _SelectiveOrder:
    """Selectivity-first order of a conjunction under ``bound`` variables.

    Safety (which conjuncts are evaluable when) is always decided by
    :func:`repro.core.safety.analyze`; this only chooses among the
    *currently evaluable* candidates.  Each round runs an applicable
    filter first (filters only shrink the context), else joins the
    smallest available table.  A round is a function of the conjuncts
    left and the variables bound, so it is analysed once and kept; a
    call walks the kept rounds and asks the provider for sizes only
    where a round really offers more than one join.
    """

    __slots__ = ("_operands", "_sizes", "_start", "_rounds", "_fixed")

    def __init__(self, operands: Tuple[Formula, ...], bound: FrozenSet[str]):
        self._operands = operands
        self._sizes = [_cardinality_of(operand) for operand in operands]
        self._start = (frozenset(range(len(operands))), bound)
        #: (conjuncts left, variables bound) -> the round's candidates,
        #: each ``(index, state after choosing it)``; none when stuck
        self._rounds: Dict[tuple, tuple] = {}
        #: ``(order,)`` once a walk met no round with a choice: no
        #: later walk can differ
        self._fixed: Optional[tuple] = None

    def _round(
        self, remaining: FrozenSet[int], current: FrozenSet[str]
    ) -> tuple:
        operands = self._operands
        after = {i: analyze(operands[i], current) for i in sorted(remaining)}
        ready = [i for i, result in after.items() if result is not None]
        # filters: conjuncts that bind nothing new (negations, bound
        # comparisons) — always run them first, cheapest wins trivially
        pool = [i for i in ready if after[i] == current][:1]
        if not pool:
            # avoid Cartesian products: a conjunct sharing variables
            # with the bound context joins selectively; a disconnected
            # one multiplies.  Only fall back to disconnected picks
            # when nothing is connected (e.g. the very first conjunct).
            pool = [
                i for i in ready
                if not current or operands[i].free_vars & current
            ] or ready
        return tuple((i, (remaining - {i}, after[i])) for i in pool)

    def __call__(self, provider: AtomProvider) -> Optional[List[int]]:
        if self._fixed is not None:
            return self._fixed[0]
        rounds, sizes = self._rounds, self._sizes
        order: List[int] = []
        result: Optional[List[int]] = order
        state = self._start
        chose = False
        while state[0]:
            pool = rounds.get(state)
            if pool is None:
                pool = rounds[state] = self._round(*state)
            if not pool:
                result = None  # stuck: some conjunct is never evaluable
                break
            if len(pool) > 1:
                chose = True
                chosen, state = min(
                    pool, key=lambda candidate: sizes[candidate[0]](provider)
                )
            else:
                chosen, state = pool[0]
            order.append(chosen)
        if not chose:
            self._fixed = (result,)
        return result


def conjunction_order(
    operands: Tuple[Formula, ...], bound: FrozenSet[str], selective: bool
) -> Callable[[AtomProvider], Optional[List[int]]]:
    """The planner of one conjunction whose context binds ``bound``:
    called with a provider, it returns the order (operand indices) to
    evaluate in, or ``None`` when the conjunction cannot be ordered.
    The list may be the planner's own: read it, do not change it."""
    if selective:
        return _SelectiveOrder(operands, bound)
    order = order_conjuncts(operands, bound)
    return lambda provider: order


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

def compile_plan(
    formula: Formula, columns: Tuple[str, ...], selective: bool
) -> Plan:
    """The plan of ``formula`` for contexts with header ``columns``.

    Building never fails: a node that cannot be evaluated under these
    columns compiles to a plan that raises its
    :class:`~repro.errors.UnsafeFormulaError` when — and only when —
    evaluation reaches it.
    """
    try:
        return _compile(formula, columns, selective)
    except UnsafeFormulaError as error:
        return _raising(str(error))


def _raising(message: str) -> Plan:
    def run(provider: AtomProvider, ctx: Table) -> Table:
        raise UnsafeFormulaError(message)

    return run


def _compile(
    formula: Formula, columns: Tuple[str, ...], selective: bool
) -> Plan:
    bound = frozenset(columns)

    if isinstance(formula, Atom):
        return lambda provider, ctx: ctx.join(provider.atom_table(formula))

    if isinstance(formula, _TEMPORAL):
        return lambda provider, ctx: ctx.join(
            provider.temporal_table(formula)
        )

    if isinstance(formula, Aggregate):
        body = compile_plan(formula.body, (), selective)
        group = sorted(formula.group_vars)
        over, op, result = formula.over, formula.op.lower(), formula.result

        def aggregate(provider: AtomProvider, ctx: Table) -> Table:
            grouped = body(provider, _NO_BINDINGS).aggregate(
                group, over, op, result
            )
            return ctx.join(grouped)

        return aggregate

    if isinstance(formula, Comparison):
        return _compile_comparison(formula, columns)

    if isinstance(formula, Not):
        if not formula.operand.free_vars <= bound:
            raise UnsafeFormulaError(explain_unsafe(formula, bound))
        satisfied = compile_plan(formula.operand, columns, selective)
        return lambda provider, ctx: ctx.difference(satisfied(provider, ctx))

    if isinstance(formula, And):
        return _compile_conjunction(formula, bound, selective)

    if isinstance(formula, Or):
        branches = [
            compile_plan(branch, columns, selective)
            for branch in formula.operands
        ]

        def disjunction(provider: AtomProvider, ctx: Table) -> Table:
            parts = [branch(provider, ctx) for branch in branches]
            if len({frozenset(part.columns) for part in parts}) != 1:
                raise UnsafeFormulaError(explain_unsafe(formula, bound))
            result = parts[0]
            for part in parts[1:]:
                result = result.union(part)
            return result

        return disjunction

    if isinstance(formula, Exists):
        inner = compile_plan(formula.operand, columns, selective)
        variables = formula.variables
        #: the body's header (it follows the join order) -> what is kept
        kept: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

        def exists(provider: AtomProvider, ctx: Table) -> Table:
            table = inner(provider, ctx)
            keep = kept.get(table.columns)
            if keep is None:
                keep = kept[table.columns] = tuple(
                    c for c in table.columns if c not in variables
                )
            return table.project(keep)

        return exists

    raise UnsafeFormulaError(
        f"cannot evaluate non-kernel node {type(formula).__name__}: "
        f"{formula} — run normalize() first"
    )


def _compile_conjunction(
    formula: And, bound: FrozenSet[str], selective: bool
) -> Plan:
    operands = formula.operands
    order_for = conjunction_order(operands, bound, selective)
    #: (operand, header it is reached with) -> its plan; the header
    #: follows the join order, so plans are added as orders come up
    steps: Dict[Tuple[int, Tuple[str, ...]], Plan] = {}

    def conjunction(provider: AtomProvider, ctx: Table) -> Table:
        order = order_for(provider)
        if order is None:
            raise UnsafeFormulaError(explain_unsafe(formula, bound))
        current = ctx
        for index in order:
            key = (index, current.columns)
            step = steps.get(key)
            if step is None:
                step = steps[key] = compile_plan(
                    operands[index], current.columns, selective
                )
            current = step(provider, current)
        return current

    return conjunction


def _compile_comparison(cmp: Comparison, columns: Tuple[str, ...]) -> Plan:
    """A comparison filters when both sides are bound; an equality with
    one side bound extends the context by the other."""
    sides = []
    for term in (cmp.left, cmp.right):
        if isinstance(term, Var):
            name = term.name
            position = columns.index(name) if name in columns else None
            sides.append((name, position, None))
        else:
            sides.append((None, None, term.value))
    (left_var, i, left), (right_var, j, right) = sides
    left_bound = left_var is None or i is not None
    right_bound = right_var is None or j is not None

    if left_bound and right_bound:
        def keeping(test) -> Callable[[Iterable[Row]], List[Row]]:
            if i is not None and j is not None:
                return lambda rows: [r for r in rows if test(r[i], r[j])]
            if i is not None:
                return lambda rows: [r for r in rows if test(r[i], right)]
            if j is not None:
                return lambda rows: [r for r in rows if test(left, r[j])]
            return lambda rows: [r for r in rows if test(left, right)]

        # the bare operator, applied in one comprehension; values it
        # cannot order are found again by the checked comparison, which
        # raises the FormulaError naming them
        keep = keeping(COMPARISON_OPS[cmp.op])
        keep_checked = keeping(cmp.evaluate)

        def compare(provider: AtomProvider, ctx: Table) -> Table:
            try:
                kept = keep(ctx.rows)
            except TypeError:
                kept = keep_checked(ctx.rows)
            return Table._trusted(columns, kept)

        return compare

    if cmp.op != "=" or not (left_bound or right_bound):
        raise UnsafeFormulaError(explain_unsafe(cmp, frozenset(columns)))

    # an equality binds its unbound side from the bound one
    if left_bound:
        new, source, value = right_var, i, left
    else:
        new, source, value = left_var, j, right
    extended = columns + (new,)
    if source is not None:
        return lambda provider, ctx: Table._trusted(
            extended, (r + (r[source],) for r in ctx.rows)
        )
    return lambda provider, ctx: Table._trusted(
        extended, (r + (value,) for r in ctx.rows)
    )


# ----------------------------------------------------------------------
# running plans
# ----------------------------------------------------------------------

def plan_memo() -> Callable[[Formula, Tuple[str, ...], bool], Plan]:
    """A bounded memo of :func:`compile_plan`; ``cache_info().misses``
    is how many plans it has compiled."""
    return lru_cache(maxsize=PLAN_MEMO_SIZE)(compile_plan)


#: the plans of every provider that does not bring a memo of its own
_shared_plans = plan_memo()


class AtomProvider:
    """Resolves atoms and temporal subformulas to tables.

    Subclasses implement the two hooks; everything else in evaluation is
    provider-independent.
    """

    #: a :func:`plan_memo` of the provider's own, or ``None`` to keep
    #: its plans in the one shared by the whole process (the incremental
    #: checker's provider has its own, so that its plans are counted
    #: and live exactly as long as it does)
    plans = None

    def atom_table(self, atom: Atom) -> Table:
        """Satisfying valuations of a relational atom at the eval point."""
        raise NotImplementedError

    def temporal_table(self, formula: Formula) -> Table:
        """Satisfying valuations of a temporal subformula at the eval point."""
        raise NotImplementedError


class StateTablesProvider(AtomProvider):
    """Atoms from a database state, temporal subformulas from a map of
    virtual tables that whoever advances the auxiliary states fills."""

    def __init__(self, state, virtual: Dict[Formula, Table]):
        self.state = state
        self.virtual = virtual

    def atom_table(self, atom: Atom) -> Table:
        return relation_atom_table(self.state.relation(atom.relation), atom)

    def temporal_table(self, formula: Formula) -> Table:
        try:
            return self.virtual[formula]
        except KeyError:
            raise MonitorError(
                f"virtual table missing for {formula}"
            ) from None


def evaluate(
    formula: Formula,
    provider: AtomProvider,
    context: Optional[Table] = None,
) -> Table:
    """Evaluate a kernel formula in a binding context.

    Args:
        formula: a kernel formula (run :func:`repro.core.normalize.normalize`
            first); it must be evaluable given the context's columns —
            :func:`repro.core.safety.check_safe` guarantees this for
            whole constraints.
        provider: resolves atoms and temporal nodes.
        context: a table of candidate bindings; defaults to the one-row
            zero-column table (no prior bindings).

    Returns:
        A table with columns ``context.columns ∪ fv(formula)``.
    """
    ctx = _NO_BINDINGS if context is None else context
    plans = getattr(provider, "plans", None) or _shared_plans
    return plans(formula, ctx.columns, SELECTIVE_PLANNING)(provider, ctx)
