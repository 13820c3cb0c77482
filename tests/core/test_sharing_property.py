"""Property tests for subformula canonicalization and shared state.

Two executable contracts back the cross-constraint planner:

* canonicalization is *semantics-preserving*: monitoring the canonical
  alpha-variant of a random constraint yields the same verdicts as the
  original, on every engine (witnesses agree up to the variable
  renaming);
* shared auxiliary maintenance is *invisible*: a checker monitoring a
  random constraint plus a rename-variant copy — one auxiliary state
  per class, fanned out — produces bit-for-bit the verdicts of one
  checker per constraint (:mod:`tests.core.oracles`), and the naive
  engine's.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.checker import Constraint, IncrementalChecker
from repro.core.naive import NaiveChecker
from repro.core.normalize import (
    canonical_variables,
    canonicalize_variant,
    rename_all_variables,
)
from repro.errors import ReproError
from repro.temporal import StreamGenerator

from tests.core.oracles import (
    PerConstraintCheckers, exact, exact_violation, interrupted_run,
)
from tests.core.strategies import (
    SCHEMA, adom_constraints, constraints, interruptions,
)

relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def canonical_twin(constraint):
    """``(canonical constraint, canonical -> original name map)``."""
    canonical, mapping = canonicalize_variant(constraint.formula)
    try:
        twin = Constraint("prop", canonical, require_safe=False)
    except ReproError:  # pragma: no cover - renaming preserves safety
        twin = None
    assume(twin is not None)
    return twin, {v: k for k, v in mapping.items()}


def original_names(report, inverse):
    """Step verdicts with witness variables mapped back to the original
    names, for comparison against the original constraint's report."""
    return [
        (violation.time, violation.index, sorted(
            tuple(sorted(
                (inverse.get(var, var), value)
                for var, value in witness.items()
            ))
            for witness in violation.witness_dicts()
        ))
        for violation in report.violations
    ]


def plain_names(report):
    return original_names(report, {})


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    length=st.integers(1, 8),
)
def test_canonical_variant_is_semantics_preserving(
    constraint, seed, length
):
    """Incremental + naive + memoized naive on the canonical variant."""
    twin, inverse = canonical_twin(constraint)
    stream = list(StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed
    ).stream(length))
    engines = [
        (IncrementalChecker(SCHEMA, [constraint]),
         IncrementalChecker(SCHEMA, [twin])),
        (NaiveChecker(SCHEMA, [constraint]),
         NaiveChecker(SCHEMA, [twin])),
        (NaiveChecker(SCHEMA, [constraint], memoize=True),
         NaiveChecker(SCHEMA, [twin], memoize=True)),
    ]
    for time, txn in stream:
        for checker, canonical_checker in engines:
            report = checker.step(time, txn)
            canonical_report = canonical_checker.step(time, txn)
            assert report.ok == canonical_report.ok, str(constraint.formula)
            assert plain_names(report) == original_names(
                canonical_report, inverse
            ), str(constraint.formula)


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    length=st.integers(1, 8),
)
def test_canonical_variant_on_the_active_engine(constraint, seed, length):
    from repro.active.compiler import ActiveChecker

    twin, inverse = canonical_twin(constraint)
    stream = StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed
    ).stream(length)
    checker = ActiveChecker(SCHEMA, [constraint])
    canonical_checker = ActiveChecker(SCHEMA, [twin])
    for time, txn in stream:
        report = checker.step(time, txn)
        canonical_report = canonical_checker.step(time, txn)
        assert report.ok == canonical_report.ok, str(constraint.formula)
        assert plain_names(report) == original_names(
            canonical_report, inverse
        ), str(constraint.formula)


@relaxed
@given(
    constraint=adom_constraints,
    seed=st.integers(0, 10**6),
    length=st.integers(1, 8),
)
def test_canonical_variant_on_the_adom_engine(constraint, seed, length):
    from repro.core.adom import ActiveDomainChecker

    twin, _ = canonical_twin(constraint)
    stream = StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed
    ).stream(length)
    checker = ActiveDomainChecker(SCHEMA, [constraint])
    canonical_checker = ActiveDomainChecker(SCHEMA, [twin])
    for time, txn in stream:
        report = checker.step(time, txn)
        canonical_report = canonical_checker.step(time, txn)
        assert report.ok == canonical_report.ok, str(constraint.formula)


def rename_variant(constraint):
    """A copy of ``constraint`` with every variable renamed apart."""
    renamed = rename_all_variables(
        constraint.formula,
        {v: f"{v}_rv" for v in canonical_variables(constraint.formula)},
    )
    try:
        return Constraint("copy", renamed)
    except ReproError:  # pragma: no cover - renaming preserves safety
        return None


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    length=st.integers(1, 8),
)
def test_shared_maintenance_is_bit_for_bit_invisible(
    constraint, seed, length
):
    """A rename-variant family on one checker reports what one checker
    per constraint reports, witness column order included."""
    copy = rename_variant(constraint)
    assume(copy is not None)
    family = [constraint, copy]
    stream = list(StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed
    ).stream(length))
    apart = PerConstraintCheckers(SCHEMA, family)
    naive = NaiveChecker(SCHEMA, family)
    shared = IncrementalChecker(SCHEMA, family)
    for time, txn in stream:
        report = shared.step(time, txn)
        assert exact(report) == exact(apart.step(time, txn)), \
            str(constraint.formula)
        assert report == naive.step(time, txn), str(constraint.formula)
    stats = shared.sharing_stats()
    assert stats["classes"] + stats["shared_nodes"] == \
        stats["distinct_nodes"]


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
)
def test_shared_maintenance_under_sparse_clocks(constraint, seed):
    """Metric-window expiry by clock passage alone."""
    copy = rename_variant(constraint)
    assume(copy is not None)
    family = [constraint, copy]
    stream = list(StreamGenerator(
        SCHEMA, universe=[0, 1], max_gap=9, seed=seed
    ).stream(6))
    apart = PerConstraintCheckers(SCHEMA, family)
    naive = NaiveChecker(SCHEMA, family)
    shared = IncrementalChecker(SCHEMA, family)
    for time, txn in stream:
        report = shared.step(time, txn)
        assert exact(report) == exact(apart.step(time, txn)), \
            str(constraint.formula)
        assert report == naive.step(time, txn), str(constraint.formula)


@relaxed
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    script=interruptions,
    urgent=st.sampled_from(["prop", "copy"]),
)
def test_shared_maintenance_through_interruptions(
    constraint, seed, script, urgent
):
    """The fan-out survives what interrupts a run: ``step_state``, a
    late step shedding the representative's or the member's constraint,
    a checkpoint and restore."""
    copy = rename_variant(constraint)
    assume(copy is not None)
    family = [constraint, copy]
    stream = list(StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed
    ).stream(len(script)))
    for event, time, report, want in interrupted_run(
        SCHEMA, family, stream, script, urgent
    ):
        assert [exact_violation(v) for v in report.violations] == [
            exact_violation(v) for v in want
        ], f"{constraint.formula} at t={time} ({event})"
