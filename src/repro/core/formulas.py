"""Abstract syntax of Metric Past First-Order Temporal Logic (Past MFOTL).

This is the constraint language of the paper: first-order logic over
database relations, closed under the metric past operators ``PREV``,
``ONCE``, ``HIST`` and ``SINCE``.  Formulas are immutable trees with
structural equality; :func:`str` renders the concrete syntax accepted
by :mod:`repro.core.parser` (parse/print round-trips are tested).

Terms are variables or constants; the logic is function-free, as in the
paper.  ``FORALL``, ``->``, ``<->`` and ``HIST`` are convenience forms
eliminated by :mod:`repro.core.normalize` before compilation.
"""

from __future__ import annotations

import operator
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple, Union

from repro.core.intervals import TRIVIAL, Interval
from repro.db.types import Value, is_value
from repro.errors import ReproError


class FormulaError(ReproError):
    """A formula or term is structurally ill-formed."""


# ----------------------------------------------------------------------
# terms
# ----------------------------------------------------------------------

class Term:
    """Base class of terms: variables and constants."""

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._key())


class Var(Term):
    """A first-order variable, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not name.replace("_", "a").isalnum():
            raise FormulaError(f"illegal variable name: {name!r}")
        self.name = name

    def _key(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Const(Term):
    """A constant value (int, float, or string)."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        if not is_value(value):
            raise FormulaError(f"illegal constant: {value!r}")
        self.value = value

    def _key(self) -> tuple:
        return (type(self.value).__name__, self.value)

    def __repr__(self) -> str:
        return f"Const({self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return repr(self.value)


TermLike = Union[Term, Value]


def as_term(t: TermLike) -> Term:
    """Coerce a raw value into a :class:`Const`; pass terms through."""
    if isinstance(t, Term):
        return t
    return Const(t)


# ----------------------------------------------------------------------
# comparison operators
# ----------------------------------------------------------------------

COMPARISON_OPS: Dict[str, "callable"] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ----------------------------------------------------------------------
# formulas
# ----------------------------------------------------------------------

class Formula:
    """Base class of all formula nodes."""

    __slots__ = ("_fv", "_hash")

    def __init__(self) -> None:
        self._fv: Optional[FrozenSet[str]] = None
        #: structural hash, computed on first use (nodes are immutable,
        #: and the checker keys several per-step dicts by node)
        self._hash: Optional[int] = None

    # -- structure -----------------------------------------------------

    def children(self) -> Tuple["Formula", ...]:
        """Immediate subformulas."""
        raise NotImplementedError

    def _compute_free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def _key(self) -> tuple:
        raise NotImplementedError

    @property
    def free_vars(self) -> FrozenSet[str]:
        """The formula's free variables (cached)."""
        if self._fv is None:
            self._fv = self._compute_free_vars()
        return self._fv

    @property
    def is_closed(self) -> bool:
        """Whether the formula has no free variables."""
        return not self.free_vars

    @property
    def is_temporal(self) -> bool:
        """Whether the root node is a temporal operator."""
        return isinstance(
            self,
            (Prev, Once, Hist, Since, Next, Eventually, Always, Until),
        )

    @property
    def is_future(self) -> bool:
        """Whether the root node is a *future* temporal operator."""
        return isinstance(self, (Next, Eventually, Always, Until))

    @property
    def has_future(self) -> bool:
        """Whether any subformula uses a future temporal operator."""
        return any(f.is_future for f in self.walk())

    # -- traversal -----------------------------------------------------

    def walk(self) -> Iterator["Formula"]:
        """Post-order traversal (children before parents)."""
        for child in self.children():
            yield from child.walk()
        yield self

    def subformulas(self) -> Iterator["Formula"]:
        """Alias of :meth:`walk` (post-order subformula enumeration)."""
        return self.walk()

    def temporal_subformulas(self) -> Iterator["Formula"]:
        """Temporal subformulas in bottom-up (post-)order.

        The incremental checker updates auxiliary state in exactly this
        order, so inner operators' virtual tables exist before outer
        operators read them.
        """
        for f in self.walk():
            if f.is_temporal:
                yield f

    @property
    def size(self) -> int:
        """Number of AST nodes."""
        return sum(1 for _ in self.walk())

    @property
    def temporal_depth(self) -> int:
        """Maximum nesting depth of temporal operators."""
        depth = max(
            (c.temporal_depth for c in self.children()), default=0
        )
        return depth + (1 if self.is_temporal else 0)

    def relations_used(self) -> FrozenSet[str]:
        """Names of database relations the formula refers to."""
        return frozenset(
            f.relation for f in self.walk() if isinstance(f, Atom)
        )

    # -- operator sugar (used by the builder DSL) -----------------------

    def __and__(self, other: "Formula") -> "Formula":
        """``f & g`` builds ``And(f, g)``."""
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        """``f | g`` builds ``Or(f, g)``."""
        return Or(self, other)

    def __invert__(self) -> "Formula":
        """``~f`` builds ``Not(f)``."""
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        """``f >> g`` builds ``Implies(f, g)``."""
        return Implies(self, other)

    # -- equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(
                (type(self).__name__,) + self._key()
            )
        return cached

    def __reduce__(self):
        # string hashes differ between interpreters, so a copy sent to
        # another process must not carry this one's cached hash
        names = [
            name
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
            if name not in ("_fv", "_hash")
        ]
        return (
            _restore_formula,
            (type(self), {name: getattr(self, name) for name in names}),
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


def _restore_formula(cls, fields: Dict[str, object]) -> "Formula":
    """Unpickling helper: rebuild a node without its derived caches."""
    node = object.__new__(cls)
    Formula.__init__(node)
    for name, value in fields.items():
        setattr(node, name, value)
    return node


class Atom(Formula):
    """A relational atom ``r(t1, ..., tk)``."""

    __slots__ = ("relation", "terms")

    def __init__(self, relation: str, terms: Sequence[TermLike] = ()):
        super().__init__()
        if not relation or not relation.replace("_", "a").isalnum():
            raise FormulaError(f"illegal relation name: {relation!r}")
        self.relation = relation
        self.terms: Tuple[Term, ...] = tuple(as_term(t) for t in terms)

    def children(self) -> Tuple[Formula, ...]:
        return ()

    def _compute_free_vars(self) -> FrozenSet[str]:
        return frozenset(
            t.name for t in self.terms if isinstance(t, Var)
        )

    def _key(self) -> tuple:
        return (self.relation, self.terms)

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({args})"


class Comparison(Formula):
    """A comparison atom ``t1 op t2`` with ``op`` one of = != < <= > >=."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: TermLike, op: str, right: TermLike):
        super().__init__()
        if op not in COMPARISON_OPS:
            raise FormulaError(f"unknown comparison operator: {op!r}")
        self.left = as_term(left)
        self.op = op
        self.right = as_term(right)

    def children(self) -> Tuple[Formula, ...]:
        return ()

    def _compute_free_vars(self) -> FrozenSet[str]:
        return frozenset(
            t.name for t in (self.left, self.right) if isinstance(t, Var)
        )

    def _key(self) -> tuple:
        return (self.left, self.op, self.right)

    def evaluate(self, left_value: Value, right_value: Value) -> bool:
        """Apply the operator to concrete values.

        Order comparisons across incompatible types raise
        ``FormulaError`` rather than inheriting Python's ``TypeError``.
        """
        try:
            return bool(COMPARISON_OPS[self.op](left_value, right_value))
        except TypeError:
            raise FormulaError(
                f"cannot compare {left_value!r} {self.op} {right_value!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class Not(Formula):
    """Negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        super().__init__()
        self.operand = operand

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def _compute_free_vars(self) -> FrozenSet[str]:
        return self.operand.free_vars

    def _key(self) -> tuple:
        return (self.operand,)

    def __str__(self) -> str:
        return f"NOT {self.operand}"


class _Nary(Formula):
    """Shared implementation of the n-ary connectives AND / OR."""

    __slots__ = ("operands",)
    _word = "?"

    def __init__(self, *operands: Formula):
        super().__init__()
        if len(operands) < 2:
            raise FormulaError(
                f"{type(self).__name__} needs at least two operands"
            )
        self.operands: Tuple[Formula, ...] = tuple(operands)

    def children(self) -> Tuple[Formula, ...]:
        return self.operands

    def _compute_free_vars(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for f in self.operands:
            out |= f.free_vars
        return out

    def _key(self) -> tuple:
        return (self.operands,)

    def __str__(self) -> str:
        inner = f" {self._word} ".join(str(f) for f in self.operands)
        return f"({inner})"


class And(_Nary):
    """N-ary conjunction."""

    __slots__ = ()
    _word = "AND"


class Or(_Nary):
    """N-ary disjunction."""

    __slots__ = ()
    _word = "OR"


class Implies(Formula):
    """Implication (sugar; eliminated by normalisation)."""

    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        super().__init__()
        self.antecedent = antecedent
        self.consequent = consequent

    def children(self) -> Tuple[Formula, ...]:
        return (self.antecedent, self.consequent)

    def _compute_free_vars(self) -> FrozenSet[str]:
        return self.antecedent.free_vars | self.consequent.free_vars

    def _key(self) -> tuple:
        return (self.antecedent, self.consequent)

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


class Iff(Formula):
    """Bi-implication (sugar; eliminated by normalisation)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        super().__init__()
        self.left = left
        self.right = right

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def _compute_free_vars(self) -> FrozenSet[str]:
        return self.left.free_vars | self.right.free_vars

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} <-> {self.right})"


class _Quantifier(Formula):
    """Shared implementation of EXISTS / FORALL."""

    __slots__ = ("variables", "operand")
    _word = "?"

    def __init__(self, variables: Sequence[str], operand: Formula):
        super().__init__()
        names = tuple(variables)
        if not names:
            raise FormulaError(
                f"{type(self).__name__} needs at least one variable"
            )
        if len(set(names)) != len(names):
            raise FormulaError(f"duplicate quantified variables: {names}")
        for n in names:
            Var(n)  # validates the name
        self.variables: Tuple[str, ...] = names
        self.operand = operand

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def _compute_free_vars(self) -> FrozenSet[str]:
        return self.operand.free_vars - frozenset(self.variables)

    def _key(self) -> tuple:
        return (self.variables, self.operand)

    def __str__(self) -> str:
        # always parenthesised: quantifier scope is maximal in the
        # grammar, so a bare rendering inside AND/OR/SINCE would
        # re-parse with the wrong scope
        vs = ", ".join(self.variables)
        return f"({self._word} {vs}. {self.operand})"


class Exists(_Quantifier):
    """Existential quantification over one or more variables."""

    __slots__ = ()
    _word = "EXISTS"


class Forall(_Quantifier):
    """Universal quantification (sugar; eliminated by normalisation)."""

    __slots__ = ()
    _word = "FORALL"


class _Unary_Temporal(Formula):
    """Shared implementation of PREV / ONCE / HIST."""

    __slots__ = ("interval", "operand")
    _word = "?"

    def __init__(self, operand: Formula, interval: Optional[Interval] = None):
        super().__init__()
        self.interval = interval if interval is not None else TRIVIAL
        self.operand = operand

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def _compute_free_vars(self) -> FrozenSet[str]:
        return self.operand.free_vars

    def _key(self) -> tuple:
        return (self.interval, self.operand)

    def __str__(self) -> str:
        suffix = "" if self.interval.is_trivial else str(self.interval)
        return f"{self._word}{suffix} {self.operand}"


class Prev(_Unary_Temporal):
    """``PREV[I] f``: f held at the previous state, one transition ago,
    with the clock gap in ``I``."""

    __slots__ = ()
    _word = "PREV"


class Once(_Unary_Temporal):
    """``ONCE[I] f``: f held at some past state (possibly now) whose
    clock distance from now lies in ``I``."""

    __slots__ = ()
    _word = "ONCE"


class Hist(_Unary_Temporal):
    """``HIST[I] f``: f held at *every* past state whose clock distance
    from now lies in ``I`` (sugar: ``NOT ONCE[I] NOT f``)."""

    __slots__ = ()
    _word = "HIST"


class Next(_Unary_Temporal):
    """``NEXT[I] f``: f will hold at the next state, one transition
    ahead, with the clock gap in ``I`` (future mirror of ``PREV``).

    Future operators need *bounded* intervals to be monitorable with
    finite delay; the safety check enforces this."""

    __slots__ = ()
    _word = "NEXT"


class Eventually(_Unary_Temporal):
    """``EVENTUALLY[I] f``: f will hold at some state (possibly now)
    whose clock distance from now lies in ``I`` (mirror of ``ONCE``)."""

    __slots__ = ()
    _word = "EVENTUALLY"


class Always(_Unary_Temporal):
    """``ALWAYS[I] f``: f will hold at *every* state whose clock
    distance from now lies in ``I`` (sugar:
    ``NOT EVENTUALLY[I] NOT f``; mirror of ``HIST``)."""

    __slots__ = ()
    _word = "ALWAYS"


class Until(Formula):
    """``f UNTIL[I] g``: some coming state ``j`` (clock distance in
    ``I``) will satisfy ``g``, and every state from now up to (but not
    including) ``j`` satisfies ``f`` (mirror of ``SINCE``)."""

    __slots__ = ("interval", "left", "right")

    def __init__(
        self,
        left: Formula,
        right: Formula,
        interval: Optional[Interval] = None,
    ):
        super().__init__()
        self.interval = interval if interval is not None else TRIVIAL
        self.left = left
        self.right = right

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def _compute_free_vars(self) -> FrozenSet[str]:
        return self.left.free_vars | self.right.free_vars

    def _key(self) -> tuple:
        return (self.interval, self.left, self.right)

    def __str__(self) -> str:
        suffix = "" if self.interval.is_trivial else str(self.interval)
        return f"({self.left} UNTIL{suffix} {self.right})"


class Since(Formula):
    """``f SINCE[I] g``: some past state ``j`` (clock distance in ``I``)
    satisfied ``g``, and every state strictly after ``j`` up to now
    satisfied ``f``."""

    __slots__ = ("interval", "left", "right")

    def __init__(
        self,
        left: Formula,
        right: Formula,
        interval: Optional[Interval] = None,
    ):
        super().__init__()
        self.interval = interval if interval is not None else TRIVIAL
        self.left = left
        self.right = right

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def _compute_free_vars(self) -> FrozenSet[str]:
        return self.left.free_vars | self.right.free_vars

    def _key(self) -> tuple:
        return (self.interval, self.left, self.right)

    def __str__(self) -> str:
        suffix = "" if self.interval.is_trivial else str(self.interval)
        return f"({self.left} SINCE{suffix} {self.right})"


#: The aggregation operators.
AGGREGATE_OPS = ("CNT", "SUM", "MIN", "MAX", "AVG")


class Aggregate(Formula):
    """A grouped aggregation atom ``result = OP(y1, ..., yk; body)``.

    Within each group — a valuation of ``fv(body)`` minus the ``over``
    variables — the distinct bindings of the ``over`` variables are
    aggregated: ``CNT`` counts them; ``SUM``/``MIN``/``MAX``/``AVG``
    fold the *first* over-variable's values (list a distinguishing key
    variable second to keep equal measures apart, e.g.
    ``total = SUM(amount, o; order(c, o, amount))``).

    ``result`` receives the aggregate value and is a free variable of
    the formula; the ``over`` variables are bound (closed off) like
    existential quantifiers; the remaining body variables are the group
    key and stay free.  Groups exist only for valuations with at least
    one satisfying binding — "count is zero" is expressed by negating
    the group's existence, not by a 0-valued row.
    """

    __slots__ = ("op", "result", "over", "body")

    def __init__(
        self,
        op: str,
        result: str,
        over: Sequence[str],
        body: "Formula",
    ):
        super().__init__()
        if op not in AGGREGATE_OPS:
            raise FormulaError(f"unknown aggregate operator: {op!r}")
        Var(result)  # validates the name
        names = tuple(over)
        if not names:
            raise FormulaError("aggregate needs at least one variable")
        if len(set(names)) != len(names):
            raise FormulaError(f"duplicate aggregate variables: {names}")
        for n in names:
            Var(n)
        if result in names:
            raise FormulaError(
                f"result variable {result!r} cannot also be aggregated over"
            )
        self.op = op
        self.result = result
        self.over: Tuple[str, ...] = names
        self.body = body

    def children(self) -> Tuple["Formula", ...]:
        return (self.body,)

    @property
    def group_vars(self) -> FrozenSet[str]:
        """The grouping variables: ``fv(body)`` minus ``over``."""
        return self.body.free_vars - frozenset(self.over)

    def _compute_free_vars(self) -> FrozenSet[str]:
        return self.group_vars | {self.result}

    def _key(self) -> tuple:
        return (self.op, self.result, self.over, self.body)

    def __str__(self) -> str:
        vs = ", ".join(self.over)
        return f"{self.result} = {self.op}({vs}; {self.body})"


#: Truth constants, encoded as comparisons on constants so that every
#: evaluator handles them without special cases.
TRUE = Comparison(Const(0), "=", Const(0))
FALSE = Comparison(Const(0), "=", Const(1))
