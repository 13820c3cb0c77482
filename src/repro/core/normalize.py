"""Normalisation of constraint formulas.

Before compilation every formula is brought into a *kernel form* on
which the safety analysis, the evaluators, and the auxiliary-relation
machinery operate:

1. **Sugar elimination** — ``FORALL``, ``->``, ``<->`` and ``HIST`` are
   rewritten into the kernel connectives::

       FORALL x. f   =>  NOT EXISTS x. NOT f
       a -> b        =>  NOT a OR b
       a <-> b       =>  (NOT a OR b) AND (NOT b OR a)
       HIST[I] f     =>  NOT ONCE[I] NOT f

2. **Simplification** — double negations removed, nested ``AND``/``OR``
   flattened.

3. **Alpha-renaming** (:func:`rename_apart`) — every quantifier binds a
   variable distinct from all other bound variables and from the free
   variables of the whole formula, so evaluation contexts can use
   variable names as table columns without capture.

The kernel language is: ``Atom``, ``Comparison``, ``Not``, ``And``,
``Or``, ``Exists``, ``Prev``, ``Once``, ``Since``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

from repro.core.formulas import (
    Aggregate,
    Always,
    And,
    Atom,
    Comparison,
    Eventually,
    Exists,
    Forall,
    Formula,
    Hist,
    Iff,
    Implies,
    Next,
    Not,
    Once,
    Or,
    Prev,
    Since,
    Term,
    Until,
    Var,
)

#: Node types allowed in kernel form.
KERNEL_TYPES = (
    Atom, Comparison, Not, And, Or, Exists, Aggregate,
    Prev, Once, Since, Next, Eventually, Until,
)


def substitute_terms(term: Term, mapping: Mapping[str, str]) -> Term:
    """Rename a variable term according to ``mapping`` (constants pass)."""
    if isinstance(term, Var) and term.name in mapping:
        return Var(mapping[term.name])
    return term


def rename_variables(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename *free* occurrences of variables according to ``mapping``.

    Quantifiers shadow: a binding for a name quantified inside is not
    applied under that quantifier.
    """
    if not mapping:
        return formula
    if isinstance(formula, Atom):
        return Atom(
            formula.relation,
            [substitute_terms(t, mapping) for t in formula.terms],
        )
    if isinstance(formula, Comparison):
        return Comparison(
            substitute_terms(formula.left, mapping),
            formula.op,
            substitute_terms(formula.right, mapping),
        )
    if isinstance(formula, Not):
        return Not(rename_variables(formula.operand, mapping))
    if isinstance(formula, And):
        return And(*[rename_variables(f, mapping) for f in formula.operands])
    if isinstance(formula, Or):
        return Or(*[rename_variables(f, mapping) for f in formula.operands])
    if isinstance(formula, Implies):
        return Implies(
            rename_variables(formula.antecedent, mapping),
            rename_variables(formula.consequent, mapping),
        )
    if isinstance(formula, Iff):
        return Iff(
            rename_variables(formula.left, mapping),
            rename_variables(formula.right, mapping),
        )
    if isinstance(formula, (Exists, Forall)):
        inner = {
            k: v for k, v in mapping.items() if k not in formula.variables
        }
        body = rename_variables(formula.operand, inner)
        return type(formula)(formula.variables, body)
    if isinstance(formula, Aggregate):
        inner = {
            k: v for k, v in mapping.items() if k not in formula.over
        }
        return Aggregate(
            formula.op,
            mapping.get(formula.result, formula.result),
            formula.over,
            rename_variables(formula.body, inner),
        )
    if isinstance(formula, (Prev, Once, Hist, Next, Eventually, Always)):
        return type(formula)(
            rename_variables(formula.operand, mapping), formula.interval
        )
    if isinstance(formula, (Since, Until)):
        return type(formula)(
            rename_variables(formula.left, mapping),
            rename_variables(formula.right, mapping),
            formula.interval,
        )
    raise TypeError(f"unknown formula node: {type(formula).__name__}")


def canonical_variables(formula: Formula) -> Dict[str, str]:
    """First-occurrence renumbering ``v1, v2, ...`` of *every* variable.

    Walks the formula in pre-order, visiting each node's local variable
    positions in a fixed order (atom/comparison terms left to right,
    quantifier binders in declaration order, aggregate result before
    its ``over`` variables).  Two rename-variants of the same formula
    therefore produce mappings with identical images position by
    position, which is what makes :func:`canonicalize_variant`
    canonical.
    """
    mapping: Dict[str, str] = {}

    def see(variable: str) -> None:
        if variable not in mapping:
            mapping[variable] = f"v{len(mapping) + 1}"

    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            for term in node.terms:
                if isinstance(term, Var):
                    see(term.name)
        elif isinstance(node, Comparison):
            for term in (node.left, node.right):
                if isinstance(term, Var):
                    see(term.name)
        elif isinstance(node, (Exists, Forall)):
            for variable in node.variables:
                see(variable)
        elif isinstance(node, Aggregate):
            see(node.result)
            for variable in node.over:
                see(variable)
        stack.extend(reversed(node.children()))
    return mapping


def canonicalize_variant(
    formula: Formula,
) -> "tuple[Formula, Dict[str, str]]":
    """``(canonical alpha-variant, variable mapping)`` of a formula.

    The mapping sends each variable (free or bound) to its canonical
    ``vN`` name; applying it with :func:`rename_all_variables` yields
    the rename-equivalence class representative.  Two formulas are
    rename-equivalent iff their canonical variants are structurally
    equal — the hash-cons key of the cross-constraint planner
    (:mod:`repro.analysis.plan`) and of the incremental checker's
    auxiliary states (one per class).
    """
    mapping = canonical_variables(formula)
    return rename_all_variables(formula, mapping), mapping


def rename_all_variables(
    formula: Formula, mapping: Mapping[str, str]
) -> Formula:
    """Rename *every* variable occurrence, binders included.

    Unlike :func:`rename_variables`, quantifier binders and aggregate
    ``result``/``over`` names are rewritten too, so the result is the
    alpha-variant obtained by applying ``mapping`` uniformly.  The
    mapping must be injective over the names it mentions — collapsing
    two distinct variables would change semantics — and is validated.
    Names absent from the mapping are kept.
    """
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise ValueError(
            f"rename_all_variables mapping is not injective: {dict(mapping)}"
        )
    return _rename_all(formula, mapping)


def _rename_all(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    if isinstance(formula, Atom):
        return Atom(
            formula.relation,
            [substitute_terms(t, mapping) for t in formula.terms],
        )
    if isinstance(formula, Comparison):
        return Comparison(
            substitute_terms(formula.left, mapping),
            formula.op,
            substitute_terms(formula.right, mapping),
        )
    if isinstance(formula, Not):
        return Not(_rename_all(formula.operand, mapping))
    if isinstance(formula, And):
        return And(*[_rename_all(f, mapping) for f in formula.operands])
    if isinstance(formula, Or):
        return Or(*[_rename_all(f, mapping) for f in formula.operands])
    if isinstance(formula, Implies):
        return Implies(
            _rename_all(formula.antecedent, mapping),
            _rename_all(formula.consequent, mapping),
        )
    if isinstance(formula, Iff):
        return Iff(
            _rename_all(formula.left, mapping),
            _rename_all(formula.right, mapping),
        )
    if isinstance(formula, (Exists, Forall)):
        return type(formula)(
            [mapping.get(v, v) for v in formula.variables],
            _rename_all(formula.operand, mapping),
        )
    if isinstance(formula, Aggregate):
        return Aggregate(
            formula.op,
            mapping.get(formula.result, formula.result),
            [mapping.get(v, v) for v in formula.over],
            _rename_all(formula.body, mapping),
        )
    if isinstance(formula, (Prev, Once, Hist, Next, Eventually, Always)):
        return type(formula)(
            _rename_all(formula.operand, mapping), formula.interval
        )
    if isinstance(formula, (Since, Until)):
        return type(formula)(
            _rename_all(formula.left, mapping),
            _rename_all(formula.right, mapping),
            formula.interval,
        )
    raise TypeError(f"unknown formula node: {type(formula).__name__}")


def _desugar(formula: Formula) -> Formula:
    """Eliminate FORALL, ->, <->, HIST; recurse everywhere."""
    if isinstance(formula, (Atom, Comparison)):
        return formula
    if isinstance(formula, Not):
        return Not(_desugar(formula.operand))
    if isinstance(formula, And):
        return And(*[_desugar(f) for f in formula.operands])
    if isinstance(formula, Or):
        return Or(*[_desugar(f) for f in formula.operands])
    if isinstance(formula, Implies):
        return Or(
            Not(_desugar(formula.antecedent)), _desugar(formula.consequent)
        )
    if isinstance(formula, Iff):
        left = _desugar(formula.left)
        right = _desugar(formula.right)
        return And(Or(Not(left), right), Or(Not(right), left))
    if isinstance(formula, Forall):
        return Not(Exists(formula.variables, Not(_desugar(formula.operand))))
    if isinstance(formula, Aggregate):
        return Aggregate(
            formula.op, formula.result, formula.over,
            _desugar(formula.body),
        )
    if isinstance(formula, Exists):
        return Exists(formula.variables, _desugar(formula.operand))
    if isinstance(formula, Hist):
        return Not(Once(Not(_desugar(formula.operand)), formula.interval))
    if isinstance(formula, Always):
        return Not(
            Eventually(Not(_desugar(formula.operand)), formula.interval)
        )
    if isinstance(formula, (Prev, Once, Next, Eventually)):
        return type(formula)(_desugar(formula.operand), formula.interval)
    if isinstance(formula, (Since, Until)):
        return type(formula)(
            _desugar(formula.left),
            _desugar(formula.right),
            formula.interval,
        )
    raise TypeError(f"unknown formula node: {type(formula).__name__}")


_NEGATED_OP = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


def _push_negations(formula: Formula, negate: bool = False) -> Formula:
    """Push negations through the boolean connectives (De Morgan).

    Negations stop at atoms, quantifiers, and temporal operators (there
    is no universal quantifier or dual temporal operator in the kernel,
    and a stopped negation is evaluable once its variables are bound).
    Negated comparisons flip their operator, so ``NOT x = y`` becomes
    the directly evaluable ``x != y``.
    """
    if isinstance(formula, Atom):
        return Not(formula) if negate else formula
    if isinstance(formula, Comparison):
        if negate:
            return Comparison(
                formula.left, _NEGATED_OP[formula.op], formula.right
            )
        return formula
    if isinstance(formula, Not):
        return _push_negations(formula.operand, not negate)
    if isinstance(formula, (And, Or)):
        parts = [_push_negations(f, negate) for f in formula.operands]
        flipped = isinstance(formula, And) == negate  # And+neg or Or+pos → Or
        return Or(*parts) if flipped else And(*parts)
    if isinstance(formula, Exists):
        inner = Exists(
            formula.variables, _push_negations(formula.operand, False)
        )
        return Not(inner) if negate else inner
    if isinstance(formula, Aggregate):
        inner_agg: Formula = Aggregate(
            formula.op, formula.result, formula.over,
            _push_negations(formula.body, False),
        )
        return Not(inner_agg) if negate else inner_agg
    if isinstance(formula, (Prev, Once, Next, Eventually)):
        inner_unary: Formula = type(formula)(
            _push_negations(formula.operand, False), formula.interval
        )
        return Not(inner_unary) if negate else inner_unary
    if isinstance(formula, (Since, Until)):
        inner_binary: Formula = type(formula)(
            _push_negations(formula.left, False),
            _push_negations(formula.right, False),
            formula.interval,
        )
        return Not(inner_binary) if negate else inner_binary
    raise TypeError(
        f"non-kernel node in negation pushing: {type(formula).__name__}"
    )


def _simplify(formula: Formula) -> Formula:
    """Remove double negations; flatten nested AND/OR."""
    if isinstance(formula, (Atom, Comparison)):
        return formula
    if isinstance(formula, Not):
        inner = _simplify(formula.operand)
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)
    if isinstance(formula, (And, Or)):
        node_type = type(formula)
        flat: List[Formula] = []
        for op in formula.operands:
            s = _simplify(op)
            if isinstance(s, node_type):
                flat.extend(s.operands)
            else:
                flat.append(s)
        return node_type(*flat) if len(flat) > 1 else flat[0]
    if isinstance(formula, Exists):
        inner = _simplify(formula.operand)
        if isinstance(inner, Exists) and not (
            set(formula.variables) & set(inner.variables)
        ):
            return Exists(formula.variables + inner.variables, inner.operand)
        return Exists(formula.variables, inner)
    if isinstance(formula, Aggregate):
        return Aggregate(
            formula.op, formula.result, formula.over,
            _simplify(formula.body),
        )
    if isinstance(formula, (Prev, Once, Next, Eventually)):
        return type(formula)(_simplify(formula.operand), formula.interval)
    if isinstance(formula, (Since, Until)):
        return type(formula)(
            _simplify(formula.left),
            _simplify(formula.right),
            formula.interval,
        )
    raise TypeError(f"non-kernel node after desugaring: {type(formula).__name__}")


class _Renamer:
    """Generates fresh variable names for :func:`rename_apart`."""

    def __init__(self, used: Set[str]):
        self.used = set(used)

    def fresh(self, base: str) -> str:
        """A name not used yet, derived from ``base``."""
        if base not in self.used:
            self.used.add(base)
            return base
        i = 2
        while f"{base}_{i}" in self.used:
            i += 1
        name = f"{base}_{i}"
        self.used.add(name)
        return name


def _rename_apart(formula: Formula, renamer: _Renamer) -> Formula:
    if isinstance(formula, (Atom, Comparison)):
        return formula
    if isinstance(formula, Not):
        return Not(_rename_apart(formula.operand, renamer))
    if isinstance(formula, And):
        return And(*[_rename_apart(f, renamer) for f in formula.operands])
    if isinstance(formula, Or):
        return Or(*[_rename_apart(f, renamer) for f in formula.operands])
    if isinstance(formula, Exists):
        mapping: Dict[str, str] = {}
        new_names = []
        for name in formula.variables:
            fresh = renamer.fresh(name)
            new_names.append(fresh)
            if fresh != name:
                mapping[name] = fresh
        body = rename_variables(formula.operand, mapping)
        return Exists(new_names, _rename_apart(body, renamer))
    if isinstance(formula, Aggregate):
        agg_mapping: Dict[str, str] = {}
        agg_names = []
        for name in formula.over:
            fresh = renamer.fresh(name)
            agg_names.append(fresh)
            if fresh != name:
                agg_mapping[name] = fresh
        agg_body = rename_variables(formula.body, agg_mapping)
        return Aggregate(
            formula.op, formula.result, tuple(agg_names),
            _rename_apart(agg_body, renamer),
        )
    if isinstance(formula, (Prev, Once, Next, Eventually)):
        return type(formula)(
            _rename_apart(formula.operand, renamer), formula.interval
        )
    if isinstance(formula, (Since, Until)):
        return type(formula)(
            _rename_apart(formula.left, renamer),
            _rename_apart(formula.right, renamer),
            formula.interval,
        )
    raise TypeError(f"non-kernel node: {type(formula).__name__}")


def rename_apart(formula: Formula) -> Formula:
    """Alpha-rename a kernel formula so all bound variables are distinct
    from each other and from the formula's free variables."""
    return _rename_apart(formula, _Renamer(set(formula.free_vars)))


def is_kernel(formula: Formula) -> bool:
    """Whether every node of ``formula`` is a kernel node."""
    return all(isinstance(f, KERNEL_TYPES) for f in formula.walk())


def normalize(formula: Formula) -> Formula:
    """Full pipeline: desugar, simplify, alpha-rename apart.

    The result is in kernel form, has the same free variables and the
    same satisfying valuations as the input, and is what the safety
    checker and both evaluators consume.
    """
    return rename_apart(_simplify(_push_negations(_desugar(formula))))
