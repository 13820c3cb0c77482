"""Rows have one total order, whatever an untyped column holds.

A column of domain ``any`` may hold numbers and strings side by side;
such rows do not compare, and every writer that sorts rows — a
transaction's and a state's ``to_dict``, the run journal, history
files — once raised ``TypeError`` on them.  In a journaled step that
happened *after* the engine had advanced: the step was applied but
never journaled, and recovery rebuilt a history without it.
"""

import io
import json

from repro.core.monitor import Monitor
from repro.core.persist import checkpoint_dict
from repro.db import DatabaseSchema, DatabaseState, Transaction
from repro.db.storage import read_stream, write_stream
from repro.db.types import sorted_rows
from repro.store import decode_record

SCHEMA = DatabaseSchema.from_dict({"p": ["x"], "q": ["x", "y"]})
MIXED = Transaction({"p": [(1,), ("a",)], "q": [(1, "b"), (1, 2), (0.5, 0)]})
STREAM = [
    (1, MIXED),
    (2, Transaction({"p": [(2.5,)]}, {"p": [("a",)]})),
    (4, Transaction({"q": [("a", 1)]}, {"q": [(1, 2)]})),
    (5, Transaction({}, {"p": [(1,)]})),
    (7, Transaction({"p": [("a",), (1,)]})),
]


def monitor():
    built = Monitor(SCHEMA)
    built.add_constraint("answered", "p(x) -> ONCE[0,2] (EXISTS y. q(x, y))")
    built.add_constraint("seen", "q(x, y) -> ONCE[0,*] p(x)")
    return built


class TestOneOrder:
    def test_comparable_rows_sort_as_tuples(self):
        rows = {(2, "b"), (1, "z"), (1, "a"), (1.5, "m")}
        assert sorted_rows({"r": rows}) == {"r": sorted(rows)}

    def test_mixed_rows_sort_by_type_name_then_value(self):
        assert sorted_rows({"p": {("a",), (1,), (0.5,), ("B",), (-3,)}}) == {
            "p": [(0.5,), (-3,), (1,), ("B",), ("a",)]
        }

    def test_the_order_does_not_depend_on_the_input_order(self):
        rows = [(1, "b"), (1, 2), (0.5, 0), ("a", 1), (1, 1.5)]
        want = sorted_rows({"q": rows})
        for shift in range(len(rows)):
            assert sorted_rows({"q": rows[shift:] + rows[:shift]}) == want

    def test_a_mixed_transaction_round_trips(self):
        encoded = json.dumps(MIXED.to_dict(), sort_keys=True)
        assert Transaction.from_dict(json.loads(encoded)) == MIXED

    def test_a_mixed_state_round_trips(self):
        state = DatabaseState.from_rows(SCHEMA, MIXED.inserts)
        again = DatabaseState.from_rows(SCHEMA, {
            name: [tuple(row) for row in rows]
            for name, rows in json.loads(json.dumps(state.to_dict())).items()
        })
        assert again == state

    def test_a_history_file_takes_mixed_rows(self):
        text = io.StringIO()
        write_stream(STREAM, text)
        assert list(read_stream(io.StringIO(text.getvalue()))) == STREAM


class TestJournaledStep:
    def test_the_step_returns_its_verdict_and_is_journaled(self, tmp_path):
        journaled = monitor()
        journal = journaled.enable_journal(tmp_path / "j")
        report = journaled.step(*STREAM[0])
        assert report == monitor().step(*STREAM[0])
        assert journaled.now == 1 and journal.records_written == 1
        journal.close()
        (line,) = journal.journal_path.read_bytes().splitlines()
        record = decode_record(line)
        assert record["t"] == 1
        assert Transaction.from_dict(record) == MIXED

    def test_recovery_equals_the_uninterrupted_run(self, tmp_path):
        straight = monitor()
        want = [straight.step(time, txn) for time, txn in STREAM]
        assert sum(not report.ok for report in want) >= 2

        crashed = monitor()
        crashed.enable_journal(tmp_path / "j", checkpoint_every=2)
        got = [crashed.step(time, txn) for time, txn in STREAM[:3]]
        crashed.journal.abandon()
        recovered, result = Monitor.recover(tmp_path / "j")
        assert result.journal_entries == 1 and recovered.now == 4
        got += [recovered.step(time, txn) for time, txn in STREAM[3:]]
        recovered.journal.close()
        assert got == want
        assert checkpoint_dict(recovered.checker) == checkpoint_dict(
            straight.checker
        )
