"""E14 (extension) — one auxiliary state per rename-equivalence class.

Sweep the number of *overlapping* constraints — rename-variants all
maintaining the same ``ONCE[0,w]^3 event(x)`` auxiliary tower — over
one seeded random stream.  The incremental checker keeps one auxiliary
state per rename-equivalence class of temporal nodes, advanced once per
step and fanned out to the class's nodes by column renaming, so the
tower costs three advances per step however many constraints read it.
The baseline is what *no* sharing across constraints means: one
``IncrementalChecker`` per constraint, whose auxiliary work and state
grow with the constraint count.

The contract is counted, not timed: verdicts (witnesses and their
column order included) are identical at every width; each nesting level
is one class; the checker advances exactly ``DEPTH`` auxiliary states
per step at every width while the baseline advances ``DEPTH`` per
constraint; the checker's peak auxiliary state is flat in the width
while the baseline's grows with it.  Mean step times of one run each
are reported next to the counts and gate nothing.
"""

from repro.analysis.metrics import measure_run
from repro.core.checker import Constraint, IncrementalChecker
from repro.core.violations import StepReport
from repro.obs.instrument import Instrumentation
from repro.workloads import random_workload
from repro.workloads.random_workload import SCHEMA

SEED = 1414
WINDOW = 16
DEPTH = 3

PROFILES = {
    "short": [2, 4, 8],
    "full": [2, 4, 8, 12],
}

LENGTHS = {"short": 140, "full": 220}

HEADERS = [
    "constraints",
    "per-constraint us/step",
    "shared us/step",
    "per-constraint advances/step",
    "shared advances/step",
    "per-constraint peak aux",
    "shared peak aux",
    "classes",
]


def _overlapping(count):
    """``count`` rename-variant constraints over one temporal tower."""
    constraints = []
    for i in range(count):
        body = f"event(x{i})"
        for _ in range(DEPTH):
            body = f"ONCE[0,{WINDOW}] {body}"
        constraints.append(Constraint(f"c{i}", f"flag(x{i}) -> {body}"))
    return constraints


class _PerConstraint:
    """The unshared baseline: one checker per constraint, stepped
    together; violations in constraint order, space summed."""

    def __init__(self, constraints, instrumentation=None):
        self.checkers = [
            IncrementalChecker(SCHEMA, [c], instrumentation=instrumentation)
            for c in constraints
        ]

    def step(self, time, txn):
        reports = [checker.step(time, txn) for checker in self.checkers]
        return StepReport(
            time, reports[0].index,
            [v for report in reports for v in report.violations],
        )

    def space_tuples(self):
        return sum(checker.space_tuples() for checker in self.checkers)


class _Advances(Instrumentation):
    """Counts auxiliary advances."""

    __slots__ = ("advances",)

    def __init__(self):
        self.advances = 0

    def aux_advanced(self, engine, node, seconds, tuples) -> None:
        self.advances += 1


def _exact(steps):
    """Reports as plain data, witness column order included."""
    return [
        (
            report.time, report.index,
            [
                (v.constraint, v.witnesses.columns,
                 sorted(v.witnesses.rows, key=repr))
                for v in report.violations
            ],
        )
        for report in steps
    ]


def _measure(build, workload, length):
    """One timed run (mean step time, reports, peak space) and one
    counted run (auxiliary advances per step)."""
    metrics = measure_run(build(None), workload.stream(length, seed=SEED))
    counter = _Advances()
    counted = build(counter)
    for time, txn in workload.stream(length, seed=SEED):
        counted.step(time, txn)
    return (
        metrics.mean_step_seconds,
        metrics.report.steps,
        metrics.peak_space,
        counter.advances / length,
    )


def run(recorder, profile="full"):
    length = LENGTHS[profile]
    workload = random_workload(universe_size=10, window=WINDOW)
    for count in PROFILES[profile]:
        constraints = _overlapping(count)
        stats = IncrementalChecker(SCHEMA, constraints).sharing_stats()
        base_us, base_steps, base_peak, base_advances = _measure(
            lambda obs: _PerConstraint(constraints, obs), workload, length
        )
        shared_us, shared_steps, shared_peak, shared_advances = _measure(
            lambda obs: IncrementalChecker(
                SCHEMA, constraints, instrumentation=obs
            ),
            workload, length,
        )
        recorder.row(
            HEADERS,
            [
                count,
                round(base_us * 1e6, 1),
                round(shared_us * 1e6, 1),
                base_advances,
                shared_advances,
                base_peak,
                shared_peak,
                int(stats["classes"]),
            ],
            title=f"overlapping constraints, one checker per constraint "
                  f"vs one checker (ONCE^{DEPTH} window {WINDOW}, "
                  f"length {length}, seed {SEED})",
        )
        recorder.check(
            f"verdicts identical at {count} constraint(s)",
            _exact(base_steps) == _exact(shared_steps),
            detail=f"{len(base_steps)} step(s), "
                   f"{sum(1 for s in base_steps if not s.ok)} violating",
        )
        recorder.check(
            f"one class per nesting level at {count} constraint(s)",
            stats["classes"] == float(DEPTH)
            and stats["shared_nodes"] == float(DEPTH * (count - 1)),
            detail=f"stats={stats}",
        )
        recorder.check(
            f"auxiliary advances per step equal the nesting depth at "
            f"{count} constraint(s)",
            shared_advances == DEPTH and base_advances == DEPTH * count,
            detail=f"shared {shared_advances}, per-constraint "
                   f"{base_advances}",
        )
    # the one checker's auxiliary state must not grow with the overlap;
    # the per-constraint baseline's does, linearly
    recorder.expect_flat(
        "shared peak auxiliary state is flat in the constraint count",
        "shared peak aux", tolerance_ratio=1.01,
    )
    recorder.expect_growth(
        "per-constraint peak auxiliary state grows with the count",
        "per-constraint peak aux", min_order=0.9, max_order=1.1,
    )


def test_e14():
    from _experiments import run_for_pytest

    run_for_pytest("e14")
