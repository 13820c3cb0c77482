"""What the checks on shared auxiliary state compare against.

``IncrementalChecker`` keeps one auxiliary state per rename-equivalence
class of temporal nodes, across all its constraints.  *No* sharing
across constraints is therefore one checker per constraint, and that —
next to :class:`~repro.core.naive.NaiveChecker`, which has no auxiliary
state at all — is the reference here.
"""

from repro.core.checker import IncrementalChecker
from repro.core.persist import checkpoint_dict, restore_checker
from repro.core.violations import StepReport
from repro.resilience.degrade import StepBudget

from tests.core.strategies import SwitchClock


class PerConstraintCheckers:
    """One ``IncrementalChecker`` per constraint, stepped together; a
    step's report is their violations in constraint order."""

    def __init__(self, schema, constraints):
        self.checkers = [
            IncrementalChecker(schema, [c]) for c in constraints
        ]

    def _merged(self, reports):
        first = reports[0]
        return StepReport(
            first.time, first.index,
            [v for report in reports for v in report.violations],
        )

    def step(self, time, txn):
        return self._merged([c.step(time, txn) for c in self.checkers])

    def step_state(self, time, state):
        return self._merged(
            [c.step_state(time, state) for c in self.checkers]
        )


def interrupted_run(schema, family, stream, script, urgent):
    """Drive one checker over ``family`` through ``script`` (the events
    of :data:`tests.core.strategies.interruptions`: ``step_state``, a
    ``late`` step that sheds every constraint but ``urgent``, a
    checkpoint and ``restore``) next to one checker per constraint that
    is never interrupted; yields ``(event, time, report, violations the
    per-constraint checkers report for what was not shed)``."""
    clock = SwitchClock()

    def budgeted(checker):
        checker.budget = StepBudget(1.0, urgent=[urgent], clock=clock)
        return checker

    checker = budgeted(IncrementalChecker(schema, family))
    apart = PerConstraintCheckers(schema, family)
    for (time, txn), event in zip(stream, script):
        if event == "restore":
            checker = budgeted(restore_checker(checkpoint_dict(checker)))
        clock.new_step(late=event == "late")
        if event == "step_state":
            report = checker.step_state(time, checker.state.apply(txn))
        else:
            report = checker.step(time, txn)
        assert report.deferred == tuple(
            c.name for c in family if event == "late" and c.name != urgent
        )
        yield event, time, report, [
            v for v in apart.step(time, txn).violations
            if v.constraint not in report.deferred
        ]


def exact_violation(violation):
    """A violation as plain data: ``==`` compares witness tables up to
    column order, this keeps the order too."""
    return (
        violation.constraint, violation.time, violation.index,
        violation.witnesses.columns,
        sorted(violation.witnesses.rows, key=repr),
    )


def exact(report):
    """A whole report as plain data (see :func:`exact_violation`)."""
    return (
        report.time, report.index, tuple(report.deferred),
        [exact_violation(v) for v in report.violations],
    )
