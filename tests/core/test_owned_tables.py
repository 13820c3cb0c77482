"""Aliasing: tables patched in place must never change what has left.

The incremental checker's state, atom tables, views, candidates and
virtual tables each have one owner that patches them step by step.
Whatever leaves a step — a report, a checkpoint, a forensic artifact —
has to stay what it was, a faulted or interrupted step must leave every
owned table at the version it had, and ``PREV`` must still answer with
the *previous* state's rows although nobody keeps that state.
"""

import json

import pytest

from repro.core import views
from repro.core.checker import Constraint, IncrementalChecker
from repro.core.diagnose import diagnose, witness_evidence
from repro.core.foeval import evaluate
from repro.core.monitor import Monitor
from repro.core.naive import NaiveChecker
from repro.core.parser import parse
from repro.core.persist import checkpoint_dict
from repro.core.views import StateProvider, View
from repro.db import DatabaseSchema, DatabaseState, Transaction
from repro.obs.flight import FlightRecorder, read_flight
from repro.obs.statewatch import StateWatch
from repro.workloads import (
    library_workload, random_workload, sensors_workload,
)

WORKLOADS = {
    "sensors": lambda: sensors_workload(sensors=12, violation_rate=0.1),
    "library": library_workload,
    "random": random_workload,
}


def owned_tables(checker):
    """Every table some part of the checker patches in place."""
    tables = [relation._table for relation in checker.state]
    tables += [
        cell.table for cell in checker._provider._cells.values()
        if cell.stamp >= 0
    ]
    tables += [view.table for view in checker._views]
    for aux in checker._aux.values():
        for name in ("_table", "_virtual", "_candidates"):
            table = getattr(aux, name, None)
            if table is not None:
                tables.append(table)
    return tables


def marks(checker):
    return [table.mark() for table in owned_tables(checker)]


def frozen(report):
    """A report as plain data, witnesses included."""
    return (
        report.time, report.index,
        [(v.constraint, sorted(v.witnesses.rows, key=repr),
          v.witnesses.columns) for v in report.violations],
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reports_kept_through_a_run_equal_the_naive_engines(name):
    workload = WORKLOADS[name]()
    stream = list(workload.stream(300, seed=11))
    checker = IncrementalChecker(workload.schema, workload.constraints)
    naive = NaiveChecker(workload.schema, workload.constraints, memoize=True)
    kept, then = [], []
    for time, txn in stream:
        report = checker.step(time, txn)
        kept.append(report)
        then.append(frozen(report))
    # compared only now: nothing a later step patched may show in them
    expected = [naive.step(time, txn) for time, txn in stream]
    assert kept == expected
    assert [frozen(report) for report in kept] == then
    assert sum(len(report.violations) for report in kept) > 5


def test_artifacts_of_step_n_are_unchanged_by_later_steps(tmp_path):
    workload = sensors_workload(sensors=12, violation_rate=0.2)
    stream = list(workload.stream(120, seed=5))
    checker = IncrementalChecker(workload.schema, workload.constraints)
    flight = FlightRecorder(tmp_path / "flight.jsonl")
    watch = StateWatch(sample_every=1)
    taken = None
    for position, (time, txn) in enumerate(stream):
        report = checker.step(time, txn)
        watch.observe(checker, report)
        if taken is None and position > 40 and report.violations:
            violation = report.violations[0]
            flight.dump(checker, "violation", report)
            artifacts = {
                "checkpoint": checkpoint_dict(checker),
                "deep sample": checker.state_profile(deep=True),
                "statewatch": watch.snapshot(checker),
                "flight": read_flight(flight.path),
                "evidence": witness_evidence(checker, violation),
                "diagnose": diagnose(checker, violation),
                "witnesses": violation.witness_dicts(),
                "relation": sorted(
                    checker.state.relation("reading").to_table().rows
                ),
            }
            taken = position, violation, artifacts, {
                key: json.dumps(value, sort_keys=True, default=repr)
                for key, value in artifacts.items()
            }
    assert taken is not None
    position, violation, artifacts, texts = taken
    assert position < len(stream) - 20, "steps must follow the snapshot"
    artifacts["flight"] = read_flight(flight.path)
    artifacts["witnesses"] = violation.witness_dicts()
    for key, value in artifacts.items():
        text = json.dumps(value, sort_keys=True, default=repr)
        assert text == texts[key], key


FAULTS = {
    "schema": lambda time: (time, Transaction({"reading": [(1, 2, 3)]}, {})),
    "transaction": lambda time: (time, {"reading": [(1, 2)]}),
    "clock": lambda time: (time - 1000, Transaction({"alarm": [(1,)]}, {})),
}


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_a_skipped_fault_leaves_every_owned_table_where_it_was(kind):
    workload = sensors_workload(sensors=12, violation_rate=0.1)
    stream = list(workload.stream(80, seed=2))

    def monitor():
        built = Monitor(workload.schema, fault_policy="skip")
        for c in workload.constraints:
            built.add_constraint(c.name, c.formula)
        return built

    clean, faulted = monitor(), monitor()
    expected = [clean.step(time, txn) for time, txn in stream]
    got = []
    for position, (time, txn) in enumerate(stream):
        if position in (30, 31, 50):
            checker = faulted.checker
            before = marks(checker)
            state = checker.state.to_dict()
            report = faulted.step(*FAULTS[kind](time))
            assert report.skipped
            assert marks(checker) == before
            assert checker.state.to_dict() == state
        got.append(faulted.step(time, txn))
    assert got == expected
    assert sum(faulted.resilience.summary()["faults"].values()) == 3


def test_a_refresh_that_raises_midway_is_redone_from_the_old_version(
    monkeypatch,
):
    schema = DatabaseSchema.from_dict(
        {"p": ["a"], "q": ["b"], "r": ["a", "b"]}
    )
    rows = {
        "p": [(i,) for i in range(12)], "q": [(i,) for i in range(12)],
        "r": [(i, j) for i in range(12) for j in range(12)],
    }
    state = DatabaseState.from_rows(schema, rows).owned_copy()
    formula = parse("r(x, y) AND p(x) AND q(y)")
    atoms = [parse("r(x, y)"), parse("p(x)"), parse("q(y)")]
    provider = StateProvider(atoms, state)
    view = View(formula)
    provider.advance(state, None)
    view.refresh(provider)

    # one row leaves p and one leaves q: two sets of affected keys, one
    # by x and one by y, each evaluated on its own
    provider.advance(state, state.patch(
        Transaction({}, {"p": [(3,)], "q": [(5,)]})
    ))
    before, rows_before = view.table.mark(), set(view.table.rows)
    calls = []

    def failing_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return evaluate(*args)

    monkeypatch.setattr(views, "evaluate", failing_second)
    with pytest.raises(RuntimeError):
        view.refresh(provider)
    assert len(calls) == 2, "the first key set was evaluated"
    assert view.table.mark() == before and view.table.rows == rows_before
    assert view.refresh(provider) == evaluate(formula, provider)
    assert len(calls) == 4 and view.table.mark() == (view.table, before[1] + 1)
    assert len(view.table) == 11 * 11


class TestPrevAcrossGaps:
    """``PREV[1,2]``: the operand at the previous state, if the clock
    moved by 1 or 2 — checked against the reference semantics, which
    the naive engine evaluates over the whole history."""

    SCHEMA = DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})

    def engines(self):
        constraints = [
            Constraint("recent", "q(x) -> PREV[1,2] p(x)"),
            Constraint("fresh", "q(x) -> NOT PREV[1,2] (p(x) AND q(x))"),
        ]
        return (
            IncrementalChecker(self.SCHEMA, constraints),
            NaiveChecker(self.SCHEMA, constraints),
        )

    def test_gaps_inside_and_outside_and_a_step_without_delta(self):
        checker, naive = self.engines()
        time, seen = 0, []
        present = {"p": set(), "q": set()}
        script = [
            # (clock gap, inserts, deletes)
            (1, {"p": [(1,), (2,)], "q": [(1,)]}, {}),
            (1, {"q": [(2,), (3,)]}, {"p": [(1,)]}),       # gap inside
            (2, {"p": [(3,)]}, {"q": [(1,)]}),             # inside, at the edge
            (3, {"q": [(1,)]}, {}),                        # outside: nothing
            (5, {"p": [(4,)], "q": [(4,)]}, {"p": [(2,)]}),
            (1, {}, {"q": [(3,)]}),                        # inside again
            "state",                                       # no delta at all
            (2, {"q": [(5,)]}, {"p": [(3,)]}),
            (9, {"p": [(5,)]}, {}),
            (1, {}, {"q": [(2,)]}),
        ]
        for entry in script:
            if entry == "state":
                time += 1
                present["p"] = {(2,), (5,), (6,)}
                present["q"] = {(2,), (5,), (6,)}
                state = DatabaseState.from_rows(self.SCHEMA, present)
                pair = (
                    checker.step_state(time, state),
                    naive.step_state(time, state),
                )
                # the caller's state stays the caller's
                checker.step(time + 1, Transaction({"p": [(9,)]}, {}))
                naive.step(time + 1, Transaction({"p": [(9,)]}, {}))
                time += 1
                assert state == DatabaseState.from_rows(self.SCHEMA, present)
                present["p"].add((9,))
            else:
                gap, inserts, deletes = entry
                time += gap
                txn = Transaction(inserts, deletes)
                pair = checker.step(time, txn), naive.step(time, txn)
                for name in present:
                    present[name] -= set(deletes.get(name, ()))
                    present[name] |= set(inserts.get(name, ()))
            seen.append(pair)
        for got, expected in seen:
            assert got == expected, got.time
        assert sum(len(got.violations) for got, _ in seen) >= 6
        assert checker.state.to_dict() == naive.state.to_dict()
