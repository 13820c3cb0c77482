"""The library's central correctness property.

The incremental bounded-history checker must agree, state by state and
witness by witness, with the naive checker that materialises the whole
history and evaluates the reference semantics — on *random* constraints
and *random* update streams.  This is the executable form of the
paper's correctness theorem for the auxiliary-relation encoding.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import views
from repro.core.checker import IncrementalChecker
from repro.core.foeval import evaluate
from repro.core.naive import NaiveChecker
from repro.core.persist import checkpoint_dict, restore_checker
from repro.db import algebra
from repro.resilience.degrade import StepBudget
from repro.temporal import StreamGenerator

from tests.core.strategies import (
    SCHEMA, SwitchClock, constraints, interruptions,
)

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def run_both(constraint, stream, memoize=False):
    incremental = IncrementalChecker(SCHEMA, [constraint])
    naive = NaiveChecker(SCHEMA, [constraint], memoize=memoize)
    for time, txn in stream:
        yield incremental.step(time, txn), naive.step(time, txn)


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    length=st.integers(1, 10),
)
def test_incremental_agrees_with_naive(constraint, seed, length):
    stream = StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed
    ).stream(length)
    for inc_report, naive_report in run_both(constraint, stream):
        assert inc_report.ok == naive_report.ok, str(constraint.formula)
        assert [v.witnesses for v in inc_report.violations] == [
            v.witnesses for v in naive_report.violations
        ], str(constraint.formula)


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    length=st.integers(1, 8),
)
def test_memoized_naive_agrees_too(constraint, seed, length):
    stream = StreamGenerator(
        SCHEMA, universe=[0, 1], max_gap=2, seed=seed
    ).stream(length)
    for inc_report, naive_report in run_both(
        constraint, stream, memoize=True
    ):
        assert inc_report.ok == naive_report.ok, str(constraint.formula)


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    length=st.integers(1, 8),
)
def test_active_checker_agrees(constraint, seed, length):
    """The trigger-based implementation is the same function."""
    from repro.active.compiler import ActiveChecker

    stream = StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed
    ).stream(length)
    incremental = IncrementalChecker(SCHEMA, [constraint])
    active = ActiveChecker(SCHEMA, [constraint])
    for time, txn in stream:
        inc_report = incremental.step(time, txn)
        act_report = active.step(time, txn)
        assert inc_report.ok == act_report.ok, str(constraint.formula)
        assert [v.witnesses for v in inc_report.violations] == [
            v.witnesses for v in act_report.violations
        ], str(constraint.formula)


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
)
def test_sparse_clock_gaps(constraint, seed):
    """Large, irregular clock gaps exercise the metric windows."""
    stream = StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=9, seed=seed
    ).stream(6)
    for inc_report, naive_report in run_both(constraint, stream):
        assert inc_report.ok == naive_report.ok, str(constraint.formula)
        assert [v.witnesses for v in inc_report.violations] == [
            v.witnesses for v in naive_report.violations
        ], str(constraint.formula)


def assert_views_current(checker, label):
    """Every view refreshed at this step holds exactly what evaluating
    its formula from scratch, over the same tables, returns."""
    provider = checker._provider
    refreshed = 0
    for view in checker._views:
        if view._stamp != provider.stamp:
            continue  # not asked this step (shed, or no candidates)
        refreshed += 1
        scratch = evaluate(view.formula, provider, view._context)
        assert view.table == scratch, f"{label}: view of {view.formula}"
    assert refreshed, label


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    first=constraints,
    second=constraints,
    seed=st.integers(0, 10**6),
    script=interruptions,
    gap=st.sampled_from([1, 3, 9]),
    always_restrict=st.booleans(),
    always_probe=st.booleans(),
)
def test_maintained_views_equal_evaluation_from_scratch(
    first, second, seed, script, gap, always_restrict, always_probe
):
    """The delta-driven hot path is the from-scratch one, step by step.

    Two constraints (so views and auxiliary states get shared) run over
    a random stream that is interrupted at random: by ``step_state``, by
    a late step that sheds the second constraint, by a checkpoint and
    restore.  After every step each maintained view must equal
    ``evaluate()`` from scratch and every verdict the naive engine's.
    Half the runs evaluate affected keys however many there are, and
    probe cached indexes whatever the sizes, so that tiny tables still
    exercise the restricted path.
    """
    second.name = "second"
    stream = list(
        StreamGenerator(
            SCHEMA, universe=[0, 1, 2, 3, 4], max_gap=gap, seed=seed
        ).stream(len(script))
    )
    clock = SwitchClock()

    def budgeted(checker):
        checker.budget = StepBudget(1.0, urgent=["prop"], clock=clock)
        return checker

    with mock.patch.object(
        views, "WHOLE_SHARE",
        float("inf") if always_restrict else views.WHOLE_SHARE,
    ), mock.patch.object(
        algebra, "PROBE_RATIO", 0 if always_probe else algebra.PROBE_RATIO
    ):
        checker = budgeted(IncrementalChecker(SCHEMA, [first, second]))
        naive = NaiveChecker(SCHEMA, [first, second])
        for (time, txn), event in zip(stream, script):
            label = f"{first.formula} / {second.formula} at t={time} ({event})"
            if event == "restore":
                checker = budgeted(restore_checker(checkpoint_dict(checker)))
            clock.new_step(late=event == "late")
            if event == "step_state":
                report = checker.step_state(time, checker.state.apply(txn))
            else:
                report = checker.step(time, txn)
            want = naive.step(time, txn)
            assert_views_current(checker, label)
            assert report.deferred == (("second",) if event == "late" else ())
            assert report.violations == [
                v for v in want.violations
                if v.constraint not in report.deferred
            ], label
