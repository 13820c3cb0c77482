"""Unit tests for the first-order evaluator over a single state."""

import pytest

from repro.core.foeval import AtomProvider, evaluate, match_atom
from repro.core.formulas import And, Atom, Const, Var
from repro.core.normalize import normalize
from repro.core.parser import parse
from repro.db.algebra import Table
from repro.errors import UnsafeFormulaError


class DictProvider(AtomProvider):
    """Resolves atoms from a plain {relation: rows} dict (no temporal)."""

    def __init__(self, contents):
        self.contents = contents

    def atom_table(self, atom):
        return match_atom(self.contents.get(atom.relation, ()), atom)

    def temporal_table(self, formula):
        raise AssertionError("no temporal nodes in these tests")


@pytest.fixture
def provider():
    return DictProvider(
        {
            "p": [(1,), (2,), (3,)],
            "q": [(2,), (4,)],
            "r": [(1, 10), (2, 20), (2, 21), (5, 50)],
        }
    )


def ev(text, provider, context=None):
    return evaluate(normalize(parse(text)), provider, context)


class TestMatchAtom:
    def test_variables(self):
        t = match_atom([(1, 2), (3, 4)], Atom("r", [Var("x"), Var("y")]))
        assert t == Table(("x", "y"), [(1, 2), (3, 4)])

    def test_constant_selects(self):
        t = match_atom([(1, 2), (3, 4)], Atom("r", [Const(3), Var("y")]))
        assert t == Table(("y",), [(4,)])

    def test_repeated_variable_filters(self):
        t = match_atom([(1, 1), (1, 2)], Atom("r", [Var("x"), Var("x")]))
        assert t == Table(("x",), [(1,)])

    def test_all_constants(self):
        t = match_atom([(1,)], Atom("p", [Const(1)]))
        assert t.truth
        t2 = match_atom([(1,)], Atom("p", [Const(9)]))
        assert not t2.truth


class TestBooleanEvaluation:
    def test_atom(self, provider):
        assert ev("p(x)", provider) == Table(("x",), [(1,), (2,), (3,)])

    def test_conjunction_joins(self, provider):
        assert ev("p(x) AND q(x)", provider) == Table(("x",), [(2,)])

    def test_negation_in_conjunction(self, provider):
        assert ev("p(x) AND NOT q(x)", provider) == Table(
            ("x",), [(1,), (3,)]
        )

    def test_negation_reordered(self, provider):
        assert ev("NOT q(x) AND p(x)", provider) == Table(
            ("x",), [(1,), (3,)]
        )

    def test_disjunction(self, provider):
        assert ev("p(x) OR q(x)", provider) == Table(
            ("x",), [(1,), (2,), (3,), (4,)]
        )

    def test_join_over_two_columns(self, provider):
        assert ev("p(x) AND r(x, y)", provider) == Table(
            ("x", "y"), [(1, 10), (2, 20), (2, 21)]
        )

    def test_closed_formulas(self, provider):
        assert ev("EXISTS x. p(x) AND q(x)", provider).truth
        assert not ev("EXISTS x. p(x) AND x > 90", provider).truth
        assert ev("FORALL x. q(x) -> p(x)", provider).truth is False  # 4 in q


class TestComparisons:
    def test_filter(self, provider):
        assert ev("p(x) AND x >= 2", provider) == Table(("x",), [(2,), (3,)])

    def test_var_const_equality_binds(self, provider):
        assert ev("x = 2 AND p(x)", provider) == Table(("x",), [(2,)])

    def test_var_var_equality_copies(self, provider):
        result = ev("p(x) AND x = y", provider)
        assert result == Table(("x", "y"), [(1, 1), (2, 2), (3, 3)])

    def test_inequality_filter(self, provider):
        assert ev("r(x, y) AND y != 20", provider) == Table(
            ("x", "y"), [(1, 10), (2, 21), (5, 50)]
        )

    def test_const_const(self, provider):
        assert ev("p(x) AND 1 < 2", provider) == Table(
            ("x",), [(1,), (2,), (3,)]
        )
        assert ev("p(x) AND 2 < 1", provider).is_empty


class TestQuantifiers:
    def test_exists_projects(self, provider):
        assert ev("EXISTS y. r(x, y)", provider) == Table(
            ("x",), [(1,), (2,), (5,)]
        )

    def test_forall_via_closure(self, provider):
        # every p-element with an r-partner: 3 has none
        result = ev("p(x) AND NOT (EXISTS y. r(x, y))", provider)
        assert result == Table(("x",), [(3,)])


class TestContext:
    def test_context_restricts(self, provider):
        ctx = Table(("x",), [(1,), (99,)])
        f = normalize(parse("p(x)"))
        assert evaluate(f, provider, ctx) == Table(("x",), [(1,)])

    def test_context_with_negation(self, provider):
        ctx = Table(("x",), [(1,), (2,)])
        f = normalize(parse("NOT q(x)"))
        assert evaluate(f, provider, ctx) == Table(("x",), [(1,)])

    def test_empty_context_short_circuits(self, provider):
        ctx = Table(("x",), [])
        f = normalize(parse("p(x)"))
        assert evaluate(f, provider, ctx).is_empty


class TestUnsafeRejection:
    def test_bare_negation(self, provider):
        with pytest.raises(UnsafeFormulaError):
            ev("NOT p(x)", provider)

    def test_unbound_comparison(self, provider):
        with pytest.raises(UnsafeFormulaError):
            ev("x < y", provider)

    def test_mismatched_disjunction(self, provider):
        with pytest.raises(UnsafeFormulaError):
            ev("p(x) OR q(y)", provider)


class TestSelectivePlanning:
    """The dynamic conjunct ordering must keep answers identical and
    avoid Cartesian products when a connected join exists."""

    def both_modes(self, text, provider):
        from repro.core import foeval

        results = []
        for mode in (True, False):
            previous = foeval.SELECTIVE_PLANNING
            foeval.SELECTIVE_PLANNING = mode
            try:
                results.append(ev(text, provider))
            finally:
                foeval.SELECTIVE_PLANNING = previous
        return results

    @pytest.mark.parametrize(
        "text",
        [
            "p(x) AND q(x)",
            "p(x) AND NOT q(x) AND x >= 2",
            "r(x, y) AND p(x) AND q(y)",
            "x = 2 AND p(x)",
            "EXISTS y. r(x, y) AND p(x)",
            "r(x, y) AND r(y2, z) AND y = y2",
        ],
    )
    def test_modes_agree(self, text, provider):
        selective, greedy = self.both_modes(text, provider)
        assert selective == greedy

    def test_filter_runs_before_joins(self, provider):
        # plan order: q (smallest table), then the negation filter,
        # then the big relation; verified indirectly by the answer and
        # directly by the planner
        from repro.core.foeval import _plan_order
        from repro.db.algebra import Table

        f = normalize(parse("r(x, y) AND q(x) AND NOT p(y)"))
        order = _plan_order(f.operands, Table.nullary(True), provider)
        # q (index 1) is smaller than r (index 0), so it leads;
        # NOT p(y) needs y, bound only by r, so it must come last
        assert order is not None
        assert order[0] == 1
        assert order[-1] == 2 or order[1] == 0

    def test_connected_join_preferred(self, provider):
        from repro.core.foeval import _plan_order

        # with x already bound by the context, q(z) is disconnected:
        # the planner must extend along p(x)/r(x,y) before
        # cross-producting q(z), even though q is the smallest table
        ctx = Table(("x",), [(1,), (2,)])
        f = normalize(parse("p(x) AND q(z) AND r(x, y)"))
        order = _plan_order(f.operands, ctx, provider)
        assert order is not None
        assert order.index(1) == 2, (
            "disconnected q(z) must come last"
        )

    def test_unsafe_still_rejected(self, provider):
        with pytest.raises(UnsafeFormulaError):
            ev("NOT p(x) AND NOT q(x)", provider)

    #: (conjunction, context columns, order) as planned before the
    #: safety analysis was cached per (conjunction, bound variables):
    #: caching must change how often analysis runs, never what it says
    PINNED_ORDERS = [
        ("p(x) AND q(x)", (), [1, 0]),
        ("p(x) AND NOT q(x) AND x >= 2", (), [0, 1, 2]),
        ("r(x, y) AND p(x) AND q(y)", (), [2, 0, 1]),
        ("r(x, y) AND q(x) AND NOT p(y)", (), [1, 0, 2]),
        ("x = 2 AND p(x)", (), [1, 0]),
        ("r(x, y) AND r(y2, z) AND y = y2", (), [0, 2, 1]),
        ("p(x) AND q(z) AND r(x, y)", ("x",), [0, 2, 1]),
        ("p(x) AND q(z) AND r(x, y)", ("z",), [1, 0, 2]),
        ("NOT p(x) AND q(x) AND r(x, y) AND y > 10", (), [1, 0, 2, 3]),
        ("r(x, y) AND NOT q(x) AND p(x)", ("y",), [0, 1, 2]),
        ("p(x) AND (EXISTS w. r(x, w)) AND q(x)", (), [2, 0, 1]),
        ("x < y AND p(x) AND q(y)", (), [2, 1, 0]),
    ]

    @pytest.mark.parametrize("text, columns, expected", PINNED_ORDERS)
    def test_planned_orders_are_unchanged(
        self, text, columns, expected, provider
    ):
        from repro.core.foeval import _plan_order, _readiness

        f = normalize(parse(text))
        ctx = Table(columns, []) if columns else Table.nullary(True)
        assert _plan_order(f.operands, ctx, provider) == expected
        # planned again, the analysis comes from the cache ...
        hits = _readiness.cache_info().hits
        assert _plan_order(f.operands, ctx, provider) == expected
        assert _readiness.cache_info().hits > hits

    def test_order_still_follows_live_cardinality(self):
        from repro.core.foeval import _plan_order

        f = normalize(parse("p(x) AND q(x)"))
        ctx = Table.nullary(True)
        few_q = DictProvider({"p": [(1,), (2,)], "q": [(1,)]})
        few_p = DictProvider({"p": [(1,)], "q": [(1,), (2,)]})
        # ... while the ranking is redone against the tables of the day
        assert _plan_order(f.operands, ctx, few_q) == [1, 0]
        assert _plan_order(f.operands, ctx, few_p) == [0, 1]


class TestProviderErrorsPropagate:
    """Join ordering asks the provider for table sizes; a provider that
    cannot answer has hit an ordering bug, which must not be swallowed
    into a bad (but silent) join order."""

    def test_missing_virtual_table_fails_loudly(self):
        from repro.core.checker import Constraint, IncrementalChecker
        from repro.db import DatabaseSchema
        from repro.errors import MonitorError

        schema = DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})
        checker = IncrementalChecker(
            schema, [Constraint("c", "p(x) -> ONCE[0,3] q(x)")]
        )
        node = next(
            checker.constraints[0].violation_formula.temporal_subformulas()
        )
        # a conjunction over a temporal node whose table was never
        # computed: asked out of bottom-up order
        with pytest.raises(MonitorError, match="bottom-up"):
            evaluate(And(Atom("p", [Var("x")]), node), checker._provider)

    def test_estimate_does_not_hide_a_provider_failure(self, provider):
        from repro.core.foeval import _estimated_cardinality
        from repro.core.formulas import Once

        class Broken(DictProvider):
            def atom_table(self, atom):
                raise KeyError(atom.relation)

        with pytest.raises(KeyError):
            _estimated_cardinality(Atom("p", [Var("x")]), Broken({}))
        with pytest.raises(AssertionError):
            _estimated_cardinality(Once(Atom("p", [Var("x")])), provider)
