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
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.formulas import (
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
from repro.errors import UnsafeFormulaError

#: When True (default) conjunctions are processed selectivity-first:
#: among the evaluable conjuncts, filters (comparisons, negations) go
#: before table-producing ones, and tables are joined smallest-first
#: using the provider's actual cardinalities.  Set False to fall back
#: to the static greedy order (the E11 planner-ablation benchmark).
SELECTIVE_PLANNING = True


def _estimated_cardinality(
    formula: Formula, provider: AtomProvider
) -> int:
    """Current size of a positive conjunct's table, for join ordering.

    A provider that cannot resolve the conjunct raises here exactly as
    it would when the conjunct is evaluated: a missing virtual table is
    an ordering bug, not a reason to pick another join order.
    """
    if isinstance(formula, Atom):
        return len(provider.atom_table(formula))
    if isinstance(formula, (Prev, Once, Since, Next, Eventually, Until)):
        return len(provider.temporal_table(formula))
    return 1 << 20  # nested structure: no cheap estimate


@lru_cache(maxsize=4096)
def _readiness(
    operands: Tuple[Formula, ...], bound: FrozenSet[str]
) -> Tuple[Optional[FrozenSet[str]], ...]:
    """:func:`repro.core.safety.analyze` of every conjunct under
    ``bound``.  Pure in its (immutable) arguments, so each conjunction
    is analysed once per binding set rather than once per step; only
    the ranking by live cardinality below is redone."""
    return tuple(analyze(operand, bound) for operand in operands)


def _plan_order(operands, ctx: Table, provider: AtomProvider):
    """Order a conjunction's operands for evaluation.

    Safety (which conjuncts are evaluable when) is always decided by
    :func:`repro.core.safety.analyze`; this only chooses among the
    *currently evaluable* candidates.  With selective planning, each
    round runs every applicable filter first (they only shrink the
    context), then joins the smallest available table.
    """
    bound = frozenset(ctx.columns)
    if not SELECTIVE_PLANNING:
        return order_conjuncts(operands, bound)

    remaining = list(range(len(operands)))
    order = []
    current = bound
    while remaining:
        results = _readiness(operands, current)
        ready = [
            (i, results[i]) for i in remaining if results[i] is not None
        ]
        if not ready:
            return None
        # filters: conjuncts that bind nothing new (negations, bound
        # comparisons) — always run them first, cheapest wins trivially
        filters = [i for i, res in ready if res == current]
        if filters:
            chosen = filters[0]
        else:
            # avoid Cartesian products: a conjunct sharing variables
            # with the bound context joins selectively; a disconnected
            # one multiplies.  Only fall back to disconnected picks
            # when nothing is connected (e.g. the very first conjunct).
            binders = [i for i, _ in ready]
            connected = [
                i
                for i in binders
                if not current or operands[i].free_vars & current
            ]
            pool = connected or binders
            chosen = min(
                pool,
                key=lambda i: _estimated_cardinality(operands[i], provider),
            )
        order.append(chosen)
        remaining.remove(chosen)
        current = results[chosen]
    return order


class AtomProvider:
    """Resolves atoms and temporal subformulas to tables.

    Subclasses implement the two hooks; everything else in evaluation is
    provider-independent.
    """

    def atom_table(self, atom: Atom) -> Table:
        """Satisfying valuations of a relational atom at the eval point."""
        raise NotImplementedError

    def temporal_table(self, formula: Formula) -> Table:
        """Satisfying valuations of a temporal subformula at the eval point."""
        raise NotImplementedError


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
    const_checks: List[Tuple[int, Value]] = []
    same_checks: List[Tuple[int, int]] = []
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Const):
            const_checks.append((pos, term.value))
        else:
            assert isinstance(term, Var)
            first = var_positions.get(term.name)
            if first is None:
                var_positions[term.name] = pos
            else:
                same_checks.append((first, pos))
    columns = tuple(var_positions)
    take = tuple_of([var_positions[c] for c in columns])

    if not const_checks and not same_checks:
        def match(rows: Iterable[Row]) -> List[Row]:
            return list(map(take, rows))
    else:
        def match(rows: Iterable[Row]) -> List[Row]:
            return [
                take(row)
                for row in rows
                if not any(row[p] != v for p, v in const_checks)
                and not any(row[p] != row[q] for p, q in same_checks)
            ]

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
    ctx = context if context is not None else Table.nullary(True)

    if isinstance(formula, Atom):
        return ctx.join(provider.atom_table(formula))

    if isinstance(formula, (Prev, Once, Since, Next, Eventually, Until)):
        return ctx.join(provider.temporal_table(formula))

    if isinstance(formula, Aggregate):
        body_table = evaluate(formula.body, provider)
        grouped = body_table.aggregate(
            sorted(formula.group_vars),
            formula.over,
            formula.op.lower(),
            formula.result,
        )
        return ctx.join(grouped)

    if isinstance(formula, Comparison):
        return _evaluate_comparison(formula, ctx)

    if isinstance(formula, Not):
        if not formula.operand.free_vars <= set(ctx.columns):
            raise UnsafeFormulaError(explain_unsafe(formula, frozenset(ctx.columns)))
        satisfied = evaluate(formula.operand, provider, ctx)
        return ctx.difference(satisfied)

    if isinstance(formula, And):
        order = _plan_order(formula.operands, ctx, provider)
        if order is None:
            raise UnsafeFormulaError(
                explain_unsafe(formula, frozenset(ctx.columns))
            )
        current = ctx
        for index in order:
            current = evaluate(formula.operands[index], provider, current)
        return current

    if isinstance(formula, Or):
        parts = [
            evaluate(branch, provider, ctx) for branch in formula.operands
        ]
        headers = {frozenset(p.columns) for p in parts}
        if len(headers) != 1:
            raise UnsafeFormulaError(
                explain_unsafe(formula, frozenset(ctx.columns))
            )
        result = parts[0]
        for part in parts[1:]:
            result = result.union(part)
        return result

    if isinstance(formula, Exists):
        inner = evaluate(formula.operand, provider, ctx)
        return inner.drop(*formula.variables)

    raise UnsafeFormulaError(
        f"cannot evaluate non-kernel node {type(formula).__name__}: "
        f"{formula} — run normalize() first"
    )


def _evaluate_comparison(cmp: Comparison, ctx: Table) -> Table:
    bound = set(ctx.columns)
    left_var = cmp.left.name if isinstance(cmp.left, Var) else None
    right_var = cmp.right.name if isinstance(cmp.right, Var) else None
    left_bound = left_var is None or left_var in bound
    right_bound = right_var is None or right_var in bound

    if left_bound and right_bound:
        def row_value(row: Dict[str, Value], var: Optional[str], term) -> Value:
            return row[var] if var is not None else term.value

        return ctx.select(
            lambda row: cmp.evaluate(
                row_value(row, left_var, cmp.left),
                row_value(row, right_var, cmp.right),
            )
        )

    if cmp.op != "=":
        raise UnsafeFormulaError(explain_unsafe(cmp, frozenset(bound)))

    if left_bound and right_var is not None:
        if left_var is not None:
            return ctx.extend_copy(left_var, right_var)
        return ctx.extend_const(right_var, cmp.left.value)  # type: ignore[union-attr]
    if right_bound and left_var is not None:
        if right_var is not None:
            return ctx.extend_copy(right_var, left_var)
        return ctx.extend_const(left_var, cmp.right.value)  # type: ignore[union-attr]
    raise UnsafeFormulaError(explain_unsafe(cmp, frozenset(bound)))
