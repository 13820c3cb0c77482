"""Hypothesis strategies for random formulas, constraints, and streams.

The formula grammar is biased toward the safe (monitorable) fragment
but still produces unsafe formulas occasionally; consumers filter with
``hypothesis.assume`` by attempting constraint compilation.
"""

from hypothesis import strategies as st

from repro.core.checker import Constraint
from repro.core.formulas import (
    And,
    Atom,
    Comparison,
    Const,
    Exists,
    Forall,
    Hist,
    Implies,
    Not,
    Once,
    Or,
    Prev,
    Since,
    Var,
)
from repro.core.intervals import Interval
from repro.db import DatabaseSchema
from repro.errors import ReproError

#: The fixed schema all random formulas speak about.
SCHEMA = DatabaseSchema.from_dict({"p": ["a"], "q": ["a"], "r": ["a", "b"]})

X, Y = Var("x"), Var("y")

intervals = st.one_of(
    st.just(None),
    st.builds(
        lambda low, width: Interval(low, low + width),
        st.integers(0, 3),
        st.integers(0, 5),
    ),
    st.builds(Interval.unbounded, st.integers(0, 3)),
)

def _count_leaf(op: str, threshold: int):
    """``EXISTS n. n = OP(b2; r(x, b2)) AND n <= threshold`` — fv = {x}."""
    from repro.core.formulas import Aggregate

    return Exists(
        ["n"],
        And(
            Aggregate(op, "n", ["b2"], Atom("r", [X, Var("b2")])),
            Comparison(Var("n"), "<=", Const(threshold)),
        ),
    )


#: Leaves: atoms over the fixed schema plus an occasional comparison
#: and aggregation shapes (self-contained, fv = {x}).
leaves = st.one_of(
    st.just(Atom("p", [X])),
    st.just(Atom("q", [X])),
    st.just(Atom("q", [Y])),
    st.just(Atom("r", [X, Y])),
    st.just(Atom("r", [X, X])),
    st.builds(lambda c: Atom("p", [Const(c)]), st.integers(0, 2)),
    st.builds(
        lambda c: Comparison(X, "<=", Const(c)), st.integers(0, 2)
    ),
    st.builds(_count_leaf, st.sampled_from(["CNT", "MAX"]), st.integers(0, 2)),
)


def _extend(children):
    unary_temporal = st.one_of(
        st.builds(Once, children, intervals),
        st.builds(Prev, children, intervals),
        st.builds(Hist, children, intervals),
    )
    boolean = st.one_of(
        st.builds(lambda a, b: And(a, b), children, children),
        st.builds(lambda a, b: Or(a, b), children, children),
        st.builds(lambda a, b: Implies(a, b), children, children),
        st.builds(Not, children),
    )
    since = st.builds(
        lambda l, r, i: Since(l, r, i), children, children, intervals
    )
    quantified = st.builds(
        lambda v, f: Exists([v], f), st.sampled_from(["x", "y"]), children
    )
    return st.one_of(
        unary_temporal,
        boolean | boolean,  # weight booleans up
        since,
        quantified,
    )


formulas = st.recursive(leaves, _extend, max_leaves=6)

#: Guard atoms binding both variables; ``guard -> body`` constraint
#: shapes are the realistic ones and are safe far more often than
#: arbitrary formulas, which keeps temporal coverage high.
guards = st.one_of(
    st.just(Atom("r", [X, Y])),
    st.just(And(Atom("p", [X]), Atom("q", [Y]))),
    st.just(Atom("p", [X])),
)

guarded = st.builds(lambda g, b: Implies(g, b), guards, formulas)

#: Constraint-shaped formulas: either free-form or guard -> body.
constraint_formulas = st.one_of(formulas, guarded, guarded)


def compilable(formula):
    """Try to compile ``formula`` into a constraint; None if unsafe."""
    try:
        constraint = Constraint("prop", formula)
        constraint.validate_schema(SCHEMA)
        return constraint
    except ReproError:
        return None


constraints = (
    constraint_formulas.map(compilable).filter(lambda c: c is not None)
)


def compilable_adom(formula):
    """Compile for the active-domain engine; None if incompatible."""
    from repro.core.adom import check_adom_compatible

    try:
        constraint = Constraint("prop", formula, require_safe=False)
        constraint.validate_schema(SCHEMA)
        check_adom_compatible(constraint.violation_formula)
        return constraint
    except ReproError:
        return None


#: Constraints for the active-domain engine: only the SINCE variable
#: condition filters, so negation-heavy formulas survive.
adom_constraints = (
    constraint_formulas.map(compilable_adom).filter(lambda c: c is not None)
)


class SwitchClock:
    """A clock for :class:`repro.resilience.degrade.StepBudget` that
    runs a step late on demand: the first read of a step (``arm``) is
    time zero, later reads are past any deadline while ``late`` is set."""

    def __init__(self):
        self.late = False
        self.reads = 0

    def new_step(self, late: bool) -> None:
        self.late = late
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return 100.0 if self.late and self.reads > 1 else 0.0


#: What may happen to a run between two of its steps, besides stepping:
#: the successor state is handed over directly (no delta), a step runs
#: late and sheds its non-urgent constraint, or the checker is
#: checkpointed and a restored copy carries on.
interruptions = st.lists(
    st.sampled_from(["step", "step", "step_state", "late", "restore"]),
    min_size=2, max_size=12,
)
