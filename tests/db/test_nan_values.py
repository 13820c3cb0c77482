"""NaN is not an attribute value.

It is unequal to itself, so before it was rejected a row carrying it
(a) escaped order constraints, whose normal form assumes a total order,
(b) could not be deleted by an equal-looking row and (c) did not come
back equal from a journal.  Each test below fails where NaN is
admitted.  The infinities are ordinary floats and stay.
"""

import json
import math

import pytest

from repro.cli import main
from repro.core.monitor import Monitor
from repro.db import (
    DatabaseSchema, DatabaseState, Relation, Transaction,
)
from repro.db.storage import (
    StreamFault, iter_stream_lenient, load_stream, read_arrivals,
)
from repro.db.types import Domain, check_row, is_value
from repro.errors import HistoryError, ValueTypeError

NAN = float("nan")
SCHEMA = DatabaseSchema.from_dict(
    {"m": [("k", "int"), ("v", "float")], "u": ["k", "v"]}
)


def test_nan_is_rejected_at_the_value_boundary():
    assert not is_value(NAN)
    with pytest.raises(ValueTypeError, match="nan"):
        check_row((1, NAN))
    for domain in Domain:
        assert not domain.contains(NAN)
    with pytest.raises(ValueTypeError):
        Domain.of(NAN)
    with pytest.raises(ValueTypeError, match="m.v"):
        SCHEMA.relation("m").validate_row((1, NAN))


def test_the_infinities_stay():
    for value in (math.inf, -math.inf):
        assert is_value(value)
        assert Domain.FLOAT.contains(value) and Domain.ANY.contains(value)
    txn = Transaction({"m": [(1, math.inf), (2, -math.inf)]})
    txn.validate(SCHEMA)
    assert Transaction.from_dict(json.loads(json.dumps(txn.to_dict()))) == txn


def test_nan_does_not_escape_an_order_constraint():
    # (a) ``v >= 0`` is checked as ``NOT v < 0``; NaN is neither
    monitor = Monitor(SCHEMA)
    monitor.add_constraint("nonneg", "m(k, v) -> v >= 0")
    with pytest.raises(ValueTypeError):
        monitor.step(0, Transaction({"m": [(1, NAN)]}))
    # and no other way into a state lets it in
    with pytest.raises(ValueTypeError):
        DatabaseState.from_rows(SCHEMA, {"u": [(1, NAN)]})
    with pytest.raises(ValueTypeError):
        Relation(SCHEMA.relation("m"), [(1, 0.5)]).with_changes([(2, NAN)])
    with pytest.raises(ValueTypeError):
        Transaction.builder().insert("m", (1, NAN)).build()


def test_no_state_holds_a_row_an_equal_looking_delete_leaves_behind():
    # (b) deleting (1, nan) used to find nothing: nan != nan
    state = DatabaseState.empty(SCHEMA)
    with pytest.raises(ValueTypeError):
        state = state.apply(Transaction({"m": [(1, float("nan"))]}))
    with pytest.raises(ValueTypeError):
        state = state.apply(Transaction({}, {"m": [(1, float("nan"))]}))
    assert state.relation("m").rows == frozenset()


def test_what_a_journal_holds_comes_back_equal(tmp_path):
    # (c) a transaction with NaN was unequal to its own round trip, and
    # its payload was not JSON
    with pytest.raises(ValueTypeError):
        Transaction.from_dict({"insert": {"m": [[1, NAN]]}})
    line = '{"t": 3, "insert": {"m": [[1, NaN]]}, "delete": {}}\n'
    history = tmp_path / "h.jsonl"
    history.write_text(line)
    (fault,) = iter_stream_lenient(history)
    assert isinstance(fault, StreamFault) and "nan" in fault.reason
    assert list(read_arrivals(history)) == [(None, line.strip(), "default")]
    with pytest.raises(HistoryError, match="line 1: malformed record"):
        load_stream(history)


def test_a_nan_reading_is_quarantined_like_any_input_fault(tmp_path, capsys):
    (tmp_path / "schema.json").write_text(
        json.dumps({"m": [["k", "int"], ["v", "float"]]})
    )
    (tmp_path / "constraints.txt").write_text("nonneg: m(k, v) -> v >= 0\n")
    (tmp_path / "history.jsonl").write_text(
        '{"t": 0, "insert": {"m": [[1, 2.5]]}}\n'
        '{"t": 1, "insert": {"m": [[2, NaN]]}}\n'
        '{"t": 2, "insert": {"m": [[3, -1.0]]}}\n'
    )
    dead = tmp_path / "dead.jsonl"
    status = main([
        "check",
        "--schema", str(tmp_path / "schema.json"),
        "--constraints", str(tmp_path / "constraints.txt"),
        "--history", str(tmp_path / "history.jsonl"),
        "--fault-policy", "quarantine", "--quarantine-log", str(dead),
    ])
    out = capsys.readouterr().out
    assert status == 1, "the run goes on and finds the real violation"
    assert "k=3, v=-1.0" in out and "quarantined 1 record(s)" in out
    (record,) = map(json.loads, dead.read_text().splitlines())
    assert record["kind"] == "decode" and "nan" in record["error"]
