"""Boundary behaviour of the temporal operators and evaluator caches.

These nail down the inclusive/exclusive conventions at interval edges
and state boundaries — the places where off-by-one bugs live.
"""

import pytest

from repro import Constraint, DatabaseSchema, IncrementalChecker, Transaction
from repro.core.future import DelayedChecker
from repro.core.normalize import normalize
from repro.core.parser import parse
from repro.core.semantics import HistoryEvaluator
from repro.db import DatabaseState
from repro.temporal import History


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})


def ins(rel, *rows):
    return Transaction({rel: list(rows)})


def history_of(schema, snapshots):
    history = History(schema)
    for time, contents in snapshots:
        history.append(time, DatabaseState.from_rows(schema, contents))
    return history


class TestIntervalEdges:
    """Both interval ends are inclusive, everywhere."""

    @pytest.fixture
    def history(self, schema):
        #  t:   0      3      5
        #  p:  {1}    {}     {}
        return history_of(
            schema, [(0, {"p": [(1,)]}), (3, {}), (5, {})]
        )

    def test_once_at_exact_bounds(self, history):
        assert history.query("ONCE[5,5] p(x)", at=2).values("x") == {1}
        assert history.query("ONCE[5,6] p(x)", at=2).values("x") == {1}
        assert history.query("ONCE[4,5] p(x)", at=2).values("x") == {1}
        assert history.query("ONCE[6,9] p(x)", at=2).is_empty
        assert history.query("ONCE[0,4] p(x)", at=2).is_empty

    def test_prev_gap_at_exact_bounds(self, history):
        assert history.query("PREV[3,3] p(x)", at=1).values("x") == {1}
        assert history.query("PREV[2,2] p(x)", at=1).is_empty
        assert history.query("PREV[4,9] p(x)", at=1).is_empty

    def test_since_anchor_at_exact_bound(self, schema):
        history = history_of(
            schema,
            [(0, {"q": [(1,)], "p": [(1,)]}),
             (4, {"p": [(1,)]}),
             (8, {"p": [(1,)]})],
        )
        assert history.query("p(x) SINCE[8,8] q(x)", at=2).values("x") == {1}
        assert history.query("p(x) SINCE[9,12] q(x)", at=2).is_empty


class TestStateBoundaries:
    def test_first_state_has_no_past(self, schema):
        history = history_of(schema, [(7, {"p": [(1,)]})])
        assert history.query("PREV p(x)", at=0).is_empty
        assert history.query("ONCE[0,100] p(x)", at=0).values("x") == {1}
        assert history.query("p(x) SINCE p(x)", at=0).values("x") == {1}

    def test_last_state_has_no_future(self, schema):
        history = history_of(schema, [(7, {"p": [(1,)]})])
        assert history.query("NEXT[0,5] p(x)", at=0).is_empty
        assert history.query("EVENTUALLY[0,5] p(x)", at=0).values("x") == {1}

    def test_since_strictness_is_asymmetric(self, schema):
        #  t:   0           2
        #  q:  {1}         {}
        #  p:  {}          {1}
        history = history_of(
            schema, [(0, {"q": [(1,)]}), (2, {"p": [(1,)]})]
        )
        # anchor at t=0 needs p at t=2 (strictly after anchor,
        # including now): satisfied
        assert history.query("p(x) SINCE q(x)", at=1).values("x") == {1}
        # the mirror: UNTIL needs p at t=0 (now) but not at the anchor
        history2 = history_of(
            schema, [(0, {"p": [(1,)]}), (2, {"q": [(1,)]})]
        )
        assert history2.query("p(x) UNTIL q(x)", at=0).values("x") == {1}

    def test_until_left_not_needed_at_anchor(self, schema):
        history = history_of(
            schema, [(0, {"p": [(1,)]}), (2, {"q": [(1,)]})]
        )
        # p fails at t=2, but t=2 is the anchor itself
        assert history.query("p(x) UNTIL[1,5] q(x)", at=0).values("x") == {1}


class TestEmptyStepIsAnAnchor:
    """An empty step is not a no-op: under point semantics every state
    is an anchor for whatever holds at it.  ``f(1)`` is inserted at
    t=0; at t=8 it goes and ``g(1)`` comes.  Without a state between,
    ``ONCE[0,5] f(k)`` looks back to t=3 and finds no state at all; with
    an empty step at t=3, that state still holds ``f(1)``."""

    CONSTRAINT = "g(k) -> ONCE[0,5] f(k)"

    @pytest.fixture
    def fg(self):
        return DatabaseSchema.from_dict({"f": ["k"], "g": ["k"]})

    @staticmethod
    def stream(empty_step):
        steps = [(0, Transaction({"f": [(1,)]}))]
        if empty_step:
            steps.append((3, Transaction.noop()))
        steps.append((8, Transaction({"g": [(1,)]}, {"f": [(1,)]})))
        return steps

    @pytest.mark.parametrize("empty_step", [False, True])
    def test_the_engines_and_the_semantics_agree(self, fg, empty_step):
        from repro.core.naive import NaiveChecker

        constraint = Constraint("c", self.CONSTRAINT)
        engines = [
            IncrementalChecker(fg, [constraint]),
            NaiveChecker(fg, [constraint]),
        ]
        history = History(fg)
        state = DatabaseState.empty(fg)
        for time, txn in self.stream(empty_step):
            reports = [engine.step(time, txn) for engine in engines]
            state = state.apply(txn)
            history.append(time, state)
        reference = HistoryEvaluator(history).table_at(
            constraint.violation_formula, len(history) - 1
        )
        violated = not empty_step
        assert [not report.ok for report in reports] == [violated] * 2
        assert (not reference.is_empty) == violated
        if violated:
            assert reference.values("k") == {1}
            for report in reports:
                assert report.violations[0].witnesses == reference


class TestDelayedBoundaries:
    def test_state_exactly_at_horizon_not_yet_final(self, schema):
        checker = DelayedChecker(
            schema, [Constraint("c", "p(x) -> EVENTUALLY[0,5] q(x)")]
        )
        checker.step(0, ins("p", (1,)))
        # t=5 is still inside [0,5]: the verdict must wait
        assert checker.step(5, Transaction.noop()) == []
        emitted = checker.step(6, ins("q", (1,)))
        assert [r.time for r in emitted] == [0]
        assert emitted[0].ok is False, "q at t=6 is 1 unit too late"

    def test_grant_exactly_at_deadline_counts(self, schema):
        checker = DelayedChecker(
            schema, [Constraint("c", "p(x) -> EVENTUALLY[0,5] q(x)")]
        )
        checker.step(0, ins("p", (1,)))
        checker.step(5, ins("q", (1,)))
        emitted = checker.step(6, Transaction.noop())
        assert emitted[0].ok is True


class TestEvaluatorCaching:
    def test_history_evaluator_is_memoised(self, schema):
        history = history_of(
            schema, [(t, {"p": [(t % 2,)]}) for t in range(10)]
        )
        evaluator = HistoryEvaluator(history)
        f = normalize(parse("ONCE p(x)"))
        first = evaluator.table_at(f, 9)
        assert evaluator.table_at(f, 9) is first, "cache hit returns object"

    def test_structurally_equal_formulas_share_cache(self, schema):
        history = history_of(schema, [(0, {"p": [(1,)]})])
        evaluator = HistoryEvaluator(history)
        a = normalize(parse("ONCE[0,5] p(x)"))
        b = normalize(parse("ONCE[0,5] p(x)"))
        assert evaluator.table_at(a, 0) is evaluator.table_at(b, 0)
