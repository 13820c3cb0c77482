"""Unit and scenario tests for the incremental checker."""

import pytest

from repro.core.checker import Constraint, IncrementalChecker
from repro.db import DatabaseSchema, DatabaseState, Transaction
from repro.errors import (
    MonitorError,
    SchemaError,
    TimeError,
    UnsafeFormulaError,
)
from repro.temporal import UpdateStream


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})


def ins(rel, *rows):
    return Transaction({rel: list(rows)})


def delete(rel, *rows):
    return Transaction({}, {rel: list(rows)})


class TestConstraint:
    def test_parses_text(self):
        c = Constraint("c", "p(x) -> ONCE q(x)")
        assert c.formula.free_vars == {"x"}

    def test_violation_formula_keeps_free_vars(self):
        c = Constraint("c", "p(x) -> ONCE q(x)")
        assert c.violation_formula.free_vars == {"x"}

    def test_unsafe_rejected_at_construction(self):
        with pytest.raises(UnsafeFormulaError):
            Constraint("c", "ONCE NOT p(x)")

    def test_schema_validation(self, schema):
        c = Constraint("c", "p(x, y) -> q(x)")
        with pytest.raises(SchemaError, match="arity"):
            c.validate_schema(schema)


class TestStepping:
    def test_timestamps_must_increase(self, schema):
        checker = IncrementalChecker(schema, [Constraint("c", "TRUE")])
        checker.step(3, ins("p", (1,)))
        with pytest.raises(TimeError):
            checker.step(3, Transaction.noop())

    def test_step_state(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("c", "p(x) -> q(x)")]
        )
        bad = DatabaseState.from_rows(schema, {"p": [(1,)]})
        report = checker.step_state(0, bad)
        assert not report.ok
        assert report.violations[0].witness_dicts() == [{"x": 1}]

    def test_initial_state_counts_from_first_step(self, schema):
        initial = DatabaseState.from_rows(schema, {"q": [(1,)]})
        checker = IncrementalChecker(
            schema, [Constraint("c", "p(x) -> PREV q(x)")], initial=initial
        )
        # initial state is the base, not a checked snapshot: at the
        # first step there is no previous snapshot, so PREV is false
        report = checker.step(0, ins("p", (1,)))
        assert not report.ok

    def test_run_aggregates(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("c", "p(x) -> ONCE q(x)")]
        )
        stream = UpdateStream(
            [(0, ins("q", (1,))), (1, ins("p", (1,))), (2, ins("p", (2,)))]
        )
        report = checker.run(stream)
        assert len(report) == 3
        assert report.violation_count == 1
        assert report.violations[0].time == 2


class TestScenarios:
    def test_once_window_expires(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("c", "p(x) -> ONCE[0,5] q(x)")]
        )
        assert checker.step(0, ins("q", (1,))).ok
        assert checker.step(3, ins("p", (1,))).ok
        # q(1) still in p's current state? q persists, so ONCE[0,5] q(1)
        # holds via the *current* state at distance 0
        assert checker.step(9, Transaction.noop()).ok
        # delete q: now the last q-state in window is gone
        report = checker.step(10, delete("q", (1,)))
        assert report.ok  # q(1) held at t=9, 1 unit ago
        report = checker.step(16, Transaction.noop())
        assert not report.ok, "q last held at t=9, 7 > 5 units ago"

    def test_since_constraint_detailed(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("c", "p(x) -> (p(x) SINCE q(x))")]
        )
        assert checker.step(0, ins("q", (1,))).ok
        # q(1) persists at t=1, anchor at distance 0 -> satisfied
        assert checker.step(1, ins("p", (1,))).ok
        # delete q; p continues -> anchors survive via p
        assert checker.step(2, delete("q", (1,))).ok
        # drop p for one state: all anchors die...
        assert checker.step(3, delete("p", (1,))).ok  # p gone: vacuous
        report = checker.step(4, ins("p", (1,)))
        assert not report.ok, "p resumed but no live anchor"

    def test_nested_temporal(self, schema):
        # "q must have held within 2 units at some point in the last 10"
        checker = IncrementalChecker(
            schema,
            [Constraint("c", "p(x) -> ONCE[0,10] (q(x) AND ONCE[0,2] q(x))")],
        )
        assert checker.step(0, ins("q", (1,))).ok
        assert checker.step(5, delete("q", (1,))).ok
        assert checker.step(8, ins("p", (1,))).ok
        report = checker.step(15, Transaction.noop())
        assert not report.ok, "last q at t=0..4 is now >10 old"

    def test_shared_aux_across_constraints(self, schema):
        c1 = Constraint("c1", "p(x) -> ONCE[0,5] q(x)")
        c2 = Constraint("c2", "p(x) -> ONCE[0,5] q(x)")
        checker = IncrementalChecker(schema, [c1, c2])
        assert checker.temporal_node_count == 1, "structurally equal nodes share"

    def test_aux_instrumentation(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("c", "p(x) -> ONCE[0,5] q(x)")]
        )
        checker.step(0, ins("q", (1,), (2,)))
        assert checker.aux_tuple_count() == 2
        assert checker.aux_valuation_count() == 2
        profile = checker.aux_profile()
        assert list(profile.values()) == [2]


class TestWitnesses:
    def test_multiple_witnesses(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("c", "p(x) -> ONCE q(x)")]
        )
        report = checker.step(0, ins("p", (1,), (2,), (3,)))
        witnesses = report.violations[0].witness_dicts()
        assert witnesses == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_closed_constraint_has_nullary_witness(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("c", "FORALL x. p(x) -> ONCE q(x)")]
        )
        report = checker.step(0, ins("p", (1,)))
        violation = report.violations[0]
        assert violation.witnesses.columns == ()
        assert violation.witness_count == 1


class TestStateLocalVerdictCache:
    """A constraint is re-evaluated only when a key of it is affected:
    by rows its relations really gained or lost, or by valuations
    entering or leaving a temporal node's window."""

    def test_untouched_state_local_constraint_reuses_verdict(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("fk", "q(x) -> p(x)")]
        )
        checker.step(0, ins("q", (1,)))
        first = checker.evaluations
        # p/q untouched: verdict reused
        report = checker.step(1, Transaction.noop())
        assert checker.evaluations == first
        assert not report.ok, "cached violation still reported"
        # touching q re-evaluates
        checker.step(2, ins("p", (1,)))
        assert checker.evaluations == first + 1

    def test_temporal_reuse_until_window_moves(self, schema):
        checker = IncrementalChecker(
            schema, [Constraint("w", "q(x) -> ONCE[0,2] p(x)")]
        )
        checker.step(0, ins("p", (1,)))
        checker.step(1, ins("q", (1,)))
        before = checker.evaluations
        # nothing touched and p(1) persists: no valuation enters or
        # leaves the window, so no key is affected and the verdict is
        # reused
        report = checker.step(5, Transaction.noop())
        assert checker.evaluations == before
        assert report.ok, "p(1) persists, so the window is still met"
        # p(1) goes: nothing changes yet (the anchor at t=6... is the
        # last), but once it expires the clock alone affects key x=1
        checker.step(6, Transaction({}, {"p": [(1,)]}))
        at_deletion = checker.evaluations
        assert checker.step(7, Transaction.noop()).ok
        assert checker.evaluations == at_deletion
        assert not checker.step(9, Transaction.noop()).ok
        assert checker.evaluations == at_deletion + 1

    def test_temporal_window_expiry_without_updates(self, schema):
        # the reason the cache must exclude temporal constraints:
        # delete p, wait silently past the window
        checker = IncrementalChecker(
            schema, [Constraint("w", "q(x) -> ONCE[0,4] p(x)")]
        )
        checker.step(0, ins("p", (1,)))
        checker.step(1, Transaction({"q": [(1,)]}, {"p": [(1,)]}))
        assert checker.step(3, Transaction.noop()).ok
        assert not checker.step(9, Transaction.noop()).ok

    def test_step_state_invalidates_cache(self, schema):
        from repro.db import DatabaseState

        checker = IncrementalChecker(
            schema, [Constraint("fk", "q(x) -> p(x)")]
        )
        checker.step(0, ins("q", (1,)))
        before = checker.evaluations
        # step_state has no transaction delta: must re-evaluate
        same = checker.state
        checker.step_state(1, same)
        assert checker.evaluations == before + 1
