"""Unit tests for the first-order evaluator over a single state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.foeval import AtomProvider, atom_matcher, evaluate, match_atom
from repro.core.formulas import And, Atom, Const, FormulaError, Var
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


def planned(operands, ctx, provider):
    """The selective order of a conjunction evaluated in ``ctx``."""
    from repro.core.foeval import conjunction_order

    return conjunction_order(operands, frozenset(ctx.columns), True)(provider)


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

    @staticmethod
    def by_definition(atom, rows):
        """Term by term, row by row: the matcher every shape stands for."""
        matched = []
        for row in rows:
            valuation = {}
            for term, value in zip(atom.terms, row):
                if isinstance(term, Const):
                    if term.value != value:
                        break
                elif valuation.setdefault(term.name, value) != value:
                    break
            else:
                matched.append(tuple(valuation.values()))
        return matched

    TERMS = st.one_of(
        st.sampled_from([Var("x"), Var("y"), Var("z")]),
        st.sampled_from([Const(0), Const(1), Const("a"), Const(1.0)]),
    )
    CELLS = st.sampled_from([0, 1, 2, "a", "b", 1.0, 0.5])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), terms=st.lists(TERMS, max_size=4))
    def test_every_shape_matches_by_definition(self, data, terms):
        atom = Atom("r", terms)
        rows = data.draw(st.lists(
            st.tuples(*[self.CELLS] * len(terms)), max_size=8, unique=True,
        ))
        columns, match = atom_matcher(atom)
        assert columns == tuple(dict.fromkeys(
            term.name for term in terms if isinstance(term, Var)
        ))
        matched = match(rows)
        assert matched == self.by_definition(atom, rows)
        assert all(type(row) is tuple for row in matched)

    def test_each_shape_is_reached(self):
        rows = [(1, 1, 1), (1, 2, 1), (2, 2, 2), (3, 1, 2)]
        x, y, z = Var("x"), Var("y"), Var("z")
        for terms in (
            [x, y, z],                  # no constant, nothing repeated
            [x, Const(2), y],           # one constant
            [Const(1), x, Const(1)],    # several constants
            [x, x, y],                  # a repeated variable
            [x, Const(2), x],           # both
            [x, x, x],
        ):
            atom = Atom("r", terms)
            assert atom_matcher(atom)[1](rows) == self.by_definition(
                atom, rows
            ), terms


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

    def test_values_without_an_order_are_named(self):
        mixed = DictProvider({"r": [(1, 10), (2, "x")], "p": [("a",)]})
        with pytest.raises(FormulaError, match="cannot compare 2 < 'x'"):
            ev("r(x, y) AND x < y", mixed)
        with pytest.raises(FormulaError, match="cannot compare 'a' >= 1"):
            ev("p(x) AND x >= 1", mixed)
        with pytest.raises(FormulaError, match="cannot compare 1 > 'a'"):
            ev("p(x) AND 1 > x", mixed)
        # equality is defined across types: nothing to raise
        assert ev("r(x, y) AND x = y", mixed).is_empty
        assert ev("p(x) AND x != 1", mixed) == Table(("x",), [("a",)])


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
        f = normalize(parse("r(x, y) AND q(x) AND NOT p(y)"))
        order = planned(f.operands, Table.nullary(True), provider)
        # q (index 1) is smaller than r (index 0), so it leads;
        # NOT p(y) needs y, bound only by r, so it must come last
        assert order is not None
        assert order[0] == 1
        assert order[-1] == 2 or order[1] == 0

    def test_connected_join_preferred(self, provider):
        # with x already bound by the context, q(z) is disconnected:
        # the planner must extend along p(x)/r(x,y) before
        # cross-producting q(z), even though q is the smallest table
        ctx = Table(("x",), [(1,), (2,)])
        f = normalize(parse("p(x) AND q(z) AND r(x, y)"))
        order = planned(f.operands, ctx, provider)
        assert order is not None
        assert order.index(1) == 2, (
            "disconnected q(z) must come last"
        )

    def test_unsafe_still_rejected(self, provider):
        with pytest.raises(UnsafeFormulaError):
            ev("NOT p(x) AND NOT q(x)", provider)

    #: (conjunction, context columns, order) as planned when every
    #: evaluation analysed and ranked its conjunctions afresh: keeping
    #: the rounds must change how often analysis runs, never what it says
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
        self, text, columns, expected, provider, monkeypatch
    ):
        from repro.core import foeval

        f = normalize(parse(text))
        order_for = foeval.conjunction_order(
            f.operands, frozenset(columns), True
        )
        assert order_for(provider) == expected
        # planned again, the analysis comes from the kept rounds ...
        monkeypatch.setattr(foeval, "analyze", None)
        assert order_for(provider) == expected

    def test_order_still_follows_live_cardinality(self):
        from repro.core.foeval import conjunction_order

        f = normalize(parse("p(x) AND q(x)"))
        order_for = conjunction_order(f.operands, frozenset(), True)
        few_q = DictProvider({"p": [(1,), (2,)], "q": [(1,)]})
        few_p = DictProvider({"p": [(1,)], "q": [(1,), (2,)]})
        # ... while the ranking is redone against the tables of the day
        assert order_for(few_q) == [1, 0]
        assert order_for(few_p) == [0, 1]


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
        from repro.core.foeval import _cardinality_of
        from repro.core.formulas import Once

        class Broken(DictProvider):
            def atom_table(self, atom):
                raise KeyError(atom.relation)

        with pytest.raises(KeyError):
            _cardinality_of(Atom("p", [Var("x")]))(Broken({}))
        with pytest.raises(AssertionError):
            _cardinality_of(Once(Atom("p", [Var("x")])))(provider)


class TestPlanningModeIsPartOfThePlan:
    """Plans are kept; the ablation switch is read when one is looked
    up, so neither mode can run the other's plan."""

    def test_flipping_between_two_evaluations_of_one_formula(
        self, provider, monkeypatch
    ):
        from repro.core import foeval

        # disjoint variables, so the header spells the join order out
        f = normalize(parse("p(x) AND q(z)"))
        monkeypatch.setattr(foeval, "SELECTIVE_PLANNING", False)
        greedy = evaluate(f, provider)
        assert greedy.columns == ("x", "z")  # textual order
        monkeypatch.setattr(foeval, "SELECTIVE_PLANNING", True)
        selective = evaluate(f, provider)
        assert selective.columns == ("z", "x")  # q is the smaller table
        monkeypatch.setattr(foeval, "SELECTIVE_PLANNING", False)
        assert evaluate(f, provider).columns == ("x", "z")
        assert greedy == selective

    def test_a_checkers_own_memo_keeps_the_modes_apart_too(self, monkeypatch):
        from repro.core import foeval
        from repro.core.checker import Constraint, IncrementalChecker
        from repro.db import DatabaseSchema, Transaction

        schema = DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})
        checker = IncrementalChecker(schema, [Constraint("c", "p(x) -> q(x)")])
        checker.step(0, Transaction({"p": [(1,), (2,)], "q": [(2,)]}))
        f = normalize(parse("p(x) AND q(z)"))
        compiled = checker.work_counters()["plans_compiled"]
        assert evaluate(f, checker._provider).columns == ("z", "x")
        monkeypatch.setattr(foeval, "SELECTIVE_PLANNING", False)
        assert evaluate(f, checker._provider).columns == ("x", "z")
        assert checker.work_counters()["plans_compiled"] == compiled + 2


class TestPlanMemo:
    def test_memo_is_bounded(self, provider):
        from repro.core import foeval

        memo = foeval.plan_memo()
        for value in range(foeval.PLAN_MEMO_SIZE + 50):
            memo(Atom("p", [Const(value)]), (), True)
        info = memo.cache_info()
        assert info.currsize == info.maxsize == foeval.PLAN_MEMO_SIZE

    def test_plans_reach_join_through_the_class_at_call_time(
        self, provider, monkeypatch
    ):
        f = normalize(parse("p(x) AND r(x, y) AND NOT q(x)"))
        expected = evaluate(f, provider)  # compiled and kept
        joins = []
        join = Table.join

        def counting(self, other):
            joins.append((self.columns, other.columns))
            return join(self, other)

        monkeypatch.setattr(Table, "join", counting)
        assert evaluate(f, provider) == expected
        assert len(joins) >= 3


class TestErrorParity:
    """An unevaluable node fails when evaluation reaches it — from the
    ``evaluate`` call, with the message the interpreter used to give —
    and never while another formula is compiled."""

    CASES = [
        (
            "NOT p(x)",
            "negation NOT p(x) has free variables ['x'] not bound by any "
            "positive conjunct",
        ),
        (
            "x < y",
            "comparison x < y needs its variables bound by other conjuncts "
            "(bound here: {})",
        ),
        (
            "p(x) OR q(y)",
            "disjuncts of (p(x) OR q(y)) bind different variable sets; each "
            "disjunct must bind the same free variables",
        ),
        (
            "NOT p(x) AND NOT q(x)",
            "negation NOT p(x) has free variables ['x'] not bound by any "
            "positive conjunct (conjunction cannot be ordered; stuck "
            "conjuncts: NOT p(x); NOT q(x)) [at AND[0] > NOT]",
        ),
        (
            "p(x) AND y < x",
            "comparison y < x needs its variables bound by other conjuncts "
            "(bound here: ['x']) (conjunction cannot be ordered; stuck "
            "conjuncts: y < x) [at AND[1] > y < x]",
        ),
        (
            "p(x) AND (q(x) OR NOT r(x, y))",
            "disjunct NOT r(x, y) is unsafe: negation NOT r(x, y) has free "
            "variables ['y'] not bound by any positive conjunct (conjunction "
            "cannot be ordered; stuck conjuncts: (q(x) OR NOT r(x, y))) "
            "[at AND[1] > OR[1] > NOT]",
        ),
    ]

    @pytest.mark.parametrize("selective", [True, False])
    @pytest.mark.parametrize("text, message", CASES)
    def test_unsafe_messages(
        self, text, message, selective, provider, monkeypatch
    ):
        from repro.core import foeval

        monkeypatch.setattr(foeval, "SELECTIVE_PLANNING", selective)
        f = normalize(parse(text))
        for _ in range(2):  # compiled, then from the memo
            with pytest.raises(UnsafeFormulaError) as raised:
                evaluate(f, provider)
            assert str(raised.value) == message

    def test_non_kernel_nodes(self, provider):
        from repro.core.formulas import Forall, Implies, Or

        p, q = Atom("p", [Var("x")]), Atom("q", [Var("x")])
        implies = Implies(p, q)
        forall = Forall(["y"], Atom("r", [Var("x"), Var("y")]))
        for formula, message in [
            (
                implies,
                "cannot evaluate non-kernel node Implies: (p(x) -> q(x)) "
                "— run normalize() first",
            ),
            (
                And(p, implies),
                "formula is not in kernel form (found Implies): "
                "(p(x) -> q(x)) — run normalize() first",
            ),
            (
                Or(p, forall),
                "cannot evaluate non-kernel node Forall: "
                "(FORALL y. r(x, y)) — run normalize() first",
            ),
        ]:
            with pytest.raises(UnsafeFormulaError) as raised:
                evaluate(formula, provider)
            assert str(raised.value) == message

    def test_nothing_raises_before_evaluation_reaches_the_node(self, provider):
        from repro.core.foeval import compile_plan
        from repro.core.formulas import Not, Or

        class Failing(DictProvider):
            def atom_table(self, atom):
                if atom.relation == "p":
                    raise KeyError("p")
                return super().atom_table(atom)

        # the second disjunct can never be evaluated, but the first is
        # evaluated first: building is silent, and a provider failure
        # in the first disjunct is what an evaluation reports
        bad = Or(Atom("p", [Var("x")]), Not(Atom("q", [Var("x")])))
        plan = compile_plan(bad, (), True)
        with pytest.raises(KeyError):
            plan(Failing(provider.contents), Table.nullary(True))
        with pytest.raises(UnsafeFormulaError, match="negation NOT q"):
            plan(provider, Table.nullary(True))
        # and the formulas around it are none the worse
        assert ev("p(x) AND q(x)", provider) == Table(("x",), [(2,)])

    def test_a_provider_failure_while_ordering_propagates(self, provider):
        class Broken(DictProvider):
            def atom_table(self, atom):
                if atom.relation == "q":
                    raise KeyError(atom.relation)
                return super().atom_table(atom)

        # two candidate joins: their sizes are asked for before either
        # is evaluated, and q's table cannot be had
        with pytest.raises(KeyError):
            ev("p(x) AND q(x)", Broken(provider.contents))


class TestAgainstTheIndependentEvaluator:
    """Seeded differential test: on safe formulas the compiled
    evaluator and the active-domain evaluator (which shares no code
    with it beyond the algebra) must agree, with and without a context.
    """

    VARIABLES = ("x", "y", "z")

    def random_formula(self, rng, depth):
        from repro.core.formulas import Comparison, Exists, Not, Once, Or

        def term():
            if rng.random() < 0.2:
                return Const(rng.randrange(4))
            return Var(rng.choice(self.VARIABLES))

        def leaf():
            kind = rng.random()
            if kind < 0.3:
                return Atom(rng.choice("pq"), [term()])
            if kind < 0.6:
                return Atom("r", [term(), term()])
            if kind < 0.7:
                return Once(Atom("p", [Var(rng.choice(self.VARIABLES))]))
            return Comparison(
                term(), rng.choice(["=", "!=", "<", "<=", ">", ">="]), term()
            )

        if depth == 0:
            return leaf()
        kind = rng.random()
        if kind < 0.45:
            return And(*(
                self.random_formula(rng, depth - 1)
                for _ in range(rng.randint(2, 4))
            ))
        if kind < 0.6:
            return Or(*(
                self.random_formula(rng, depth - 1) for _ in range(2)
            ))
        if kind < 0.75:
            return Not(self.random_formula(rng, depth - 1))
        if kind < 0.9:
            inner = self.random_formula(rng, depth - 1)
            if inner.free_vars:
                return Exists([rng.choice(sorted(inner.free_vars))], inner)
            return inner
        return leaf()

    def random_provider(self, rng):
        def rows(arity):
            return {
                tuple(rng.randrange(4) for _ in range(arity))
                for _ in range(rng.randrange(7))
            }

        contents = {"p": rows(1), "q": rows(1), "r": rows(2)}
        held_once = rows(1)

        class Provider(DictProvider):
            def temporal_table(self, formula):
                return Table(tuple(formula.free_vars), held_once)

        return Provider(contents)

    def test_compiled_evaluation_equals_active_domain_evaluation(self):
        import random

        from repro.core.adom import evaluate_adom
        from repro.core.safety import analyze

        rng = random.Random(20240607)
        domain = frozenset(range(4))
        checked = with_context = two_headers = 0
        while checked < 400:
            formula = normalize(self.random_formula(rng, rng.randint(1, 3)))
            # a context may bind any variable no quantifier inside reuses
            quantified = {
                name for node in formula.walk()
                for name in getattr(node, "variables", ())
            }
            free = [v for v in self.VARIABLES if v not in quantified]
            headers = [()]
            for _ in range(2):
                names = rng.sample(free, min(len(free), rng.randint(1, 2)))
                headers.append(tuple(names))
            safe = [
                header for header in headers
                if analyze(formula, frozenset(header)) is not None
            ]
            if not safe:
                continue
            two_headers += len(set(safe)) > 1
            provider = self.random_provider(rng)
            reference = evaluate_adom(formula, provider, domain)
            for header in safe:  # the same formula object each time
                context = Table(header, {
                    tuple(rng.randrange(4) for _ in header)
                    for _ in range(rng.randrange(1, 6))
                })
                got = evaluate(formula, provider, context if header else None)
                want = context.join(reference) if header else reference
                assert got == want, f"{formula} under {header}"
                assert set(got.columns) == set(header) | formula.free_vars
                with_context += bool(header)
            checked += 1
        assert with_context > 100 and two_headers > 50
