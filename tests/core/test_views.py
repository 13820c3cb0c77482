"""Unit tests for maintained views (the property suite covers equality
with from-scratch evaluation; these pin the view's own contract)."""

import random

import pytest

from repro.core import views
from repro.core.checker import Constraint, IncrementalChecker
from repro.core.foeval import evaluate
from repro.core.parser import parse
from repro.core.views import StateProvider, View
from repro.db import DatabaseSchema, DatabaseState, Transaction
from repro.db.algebra import Table


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict(
        {"checkout": ["p", "b"], "returned": ["b", "p"]}
    )


class TestWitnessColumns:
    def test_order_is_the_formulas_not_the_join_plans(self, schema):
        # evaluate() orders columns by the step's join plan, which
        # follows live cardinalities; the view reports one fixed order
        # through restricted refreshes, whole ones and a step_state
        checker = IncrementalChecker(
            schema,
            [Constraint("c", "returned(b, p) -> ONCE[0,3] checkout(p, b)")],
        )
        rng = random.Random(12)
        people, books = ["ann", "bob", "cy"], list(range(6))
        seen = 0
        for time in range(60):
            pairs = [
                (rng.choice(people), rng.choice(books))
                for _ in range(rng.randrange(4))
            ]
            rows = {
                "checkout": pairs[:1],
                "returned": [(b, p) for p, b in pairs[1:]],
            }
            if time == 30:
                report = checker.step_state(
                    time, DatabaseState.from_rows(schema, rows)
                )
            else:
                stale = [
                    row
                    for row in checker.state.relation("returned").rows
                    if row not in rows["returned"]
                ][:2]
                report = checker.step(
                    time, Transaction(rows, {"returned": stale})
                )
            for violation in report.violations:
                seen += 1
                assert violation.witnesses.columns == ("b", "p")
                assert list(violation.witness_dicts()[0]) == ["b", "p"]
        assert seen > 10

    def test_default_header_is_first_mention_order(self):
        view = View(parse("EXISTS z. (s(z, y) AND r(x, y)) AND t(x, w)"))
        assert view.columns == ("y", "x", "w")
        # an aggregate's result follows its grouping variables
        limit = Constraint("c", "n = CNT(b; borrowed(p, b)) -> n <= 3")
        assert View(limit.violation_formula).columns == ("p", "n")


class TestFailedRefresh:
    def test_retry_sees_the_same_context_delta(self, monkeypatch):
        schema = DatabaseSchema.from_dict({"q": ["a"]})
        state = DatabaseState.from_rows(
            schema, {"q": [(i,) for i in range(6)]}
        )
        atom = parse("q(x)")
        provider = StateProvider([atom], state)
        view = View(atom)
        context = Table.owned(("x",), [(0,), (1,), (2,), (9,)])
        provider.advance(state, None)
        assert view.refresh(provider, context) == Table(
            ("x",), [(0,), (1,), (2,)]
        )
        before = view.table.mark()

        provider.advance(state, {})
        context.patch(added=[(5,)])
        grown = context
        calls = []

        def failing_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("interrupted")
            return evaluate(*args)

        monkeypatch.setattr(views, "evaluate", failing_once)
        with pytest.raises(RuntimeError):
            view.refresh(provider, grown)
        assert view.table.mark() == before, "nothing patched yet"
        # the retry still owes the key the context gained
        assert view.refresh(provider, grown) == evaluate(
            atom, provider, grown
        )
        assert (5,) in view.table.rows
        assert len(calls) == 2
