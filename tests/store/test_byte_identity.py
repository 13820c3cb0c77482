"""What reaches the disk is what the parent of PR 23 wrote, byte for byte.

The record and checkpoint paths were rebuilt for speed (one encoder
built once, payloads from sorted row tuples, string paths); none of it
may show in a file.  The reference here is the parent's definition
written out: ``json.dumps(..., sort_keys=True)`` over ``{"t": t,
**txn.to_dict()}`` with rows as sorted lists, framed as ``rs1 <length>
<blake2s-64> <payload>``.  ``golden/parent_directory_v1.json`` is a
journal directory that tree wrote, with its verdicts.
"""

import base64
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import Monitor
from repro.core.persist import RunJournal, checkpoint_dict, recover
from repro.db import DatabaseSchema, Transaction
from repro.store import (
    ColdAnchorStore,
    SegmentStore,
    encode_record,
    scrub_directory,
)

GOLDEN = Path(__file__).parent / "golden" / "parent_directory_v1.json"


def parent_frame(record):
    payload = json.dumps(record, sort_keys=True).encode("ascii")
    digest = hashlib.blake2s(payload, digest_size=8).hexdigest()
    return (
        f"rs1 {len(payload)} {digest} ".encode("ascii") + payload + b"\n"
    )


def parent_to_dict(txn):
    try:
        return {
            "insert": {
                rel: sorted([list(r) for r in rows])
                for rel, rows in txn.inserts.items()
            },
            "delete": {
                rel: sorted([list(r) for r in rows])
                for rel, rows in txn.deletes.items()
            },
        }
    except TypeError:  # an untyped column mixing numbers and strings:
        return txn.to_dict()  # the parent raised; the order is new


ints = st.integers(-2**70, 2**70)
texts = st.text(max_size=6)
floats = st.floats(allow_nan=False)
#: one relation per domain: int, str, float (which takes ints) and any
columns = {
    "i": ints, "s": texts, "f": ints | floats, "a": ints | texts | floats,
}
sides = st.fixed_dictionaries({}, optional={
    name: st.lists(st.tuples(values, values), max_size=4)
    for name, values in columns.items()
})
transactions = st.builds(
    lambda inserts, deletes: Transaction(inserts, {
        rel: set(rows) - set(inserts.get(rel, ()))
        for rel, rows in deletes.items()
    }),
    sides, sides,
)
documents = st.recursive(
    st.none() | st.booleans() | ints | floats | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=12,
)


class TestFrames:
    @given(st.lists(transactions, min_size=1, max_size=4), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_journal_records_are_the_parents(self, txns, grouped):
        with tempfile.TemporaryDirectory() as scratch:
            journal = RunJournal(Path(scratch) / "j", checkpoint_every=99)
            journal.group_commit = grouped
            for time, txn in enumerate(txns):
                journal.record(time, txn, None)
            journal.commit()
            written = journal.journal_path.read_bytes()
            journal.close()
        assert written == b"".join(
            parent_frame({"t": time, **parent_to_dict(txn)})
            for time, txn in enumerate(txns)
        )

    @given(transactions)
    @settings(max_examples=100, deadline=None)
    def test_to_dict_is_the_parents(self, txn):
        assert txn.to_dict() == parent_to_dict(txn)
        assert Transaction.from_dict(
            json.loads(json.dumps(txn.to_dict()))
        ) == txn

    @given(st.dictionaries(texts, documents, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_any_record_frames_as_the_parents(self, record):
        assert encode_record(record) == parent_frame(record)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def unpack(golden, directory):
    directory.mkdir()
    for name, data in golden["files_base64"].items():
        (directory / name).write_bytes(base64.b64decode(data))
    return directory


def build(golden):
    monitor = Monitor(DatabaseSchema.from_dict({
        name: [tuple(a) for a in attrs]
        for name, attrs in golden["schema"].items()
    }))
    for name, text in golden["constraints"]:
        monitor.add_constraint(name, text)
    return monitor


def stream_of(golden):
    return [(t, Transaction.from_dict(txn)) for t, txn in golden["stream"]]


def canonical(report):
    rows = []
    for violation in report.violations:
        table = violation.witnesses
        columns = sorted(table.columns)
        order = [table.columns.index(c) for c in columns]
        rows.append([
            violation.constraint, columns,
            sorted([r[i] for i in order] for r in table.rows),
        ])
    return [report.time, report.index, rows]


class TestParentDirectory:
    def test_it_loads(self, golden, tmp_path):
        with SegmentStore(
            unpack(golden, tmp_path / "j"), lock=False
        ) as store:
            snapshot = store.load()
        assert snapshot.epoch == 2 and not snapshot.fallback
        assert snapshot.torn_records == 0
        journaled = golden["steps_journaled"]
        assert [r["t"] for r in snapshot.records] == [
            t for t, _ in golden["stream"][journaled - 5:journaled]
        ]
        assert {node: len(rows) for node, rows in
                snapshot.cold_rows.items()} == {"aux1": 5}

    def test_it_scrubs_clean(self, golden, tmp_path):
        report = scrub_directory(unpack(golden, tmp_path / "j"))
        assert report.clean
        # two checkpoints, 6 + 5 journal records, 5 + 5 cold rows
        assert report.records_verified == 23

    def test_it_recovers_to_the_parents_verdicts(self, golden, tmp_path):
        stream, journaled = stream_of(golden), golden["steps_journaled"]
        monitor, result = Monitor.recover(unpack(golden, tmp_path / "j"))
        assert result.journal_entries == 5 and not result.torn_records
        got = [canonical(r) for r in result.replayed]
        got += [canonical(monitor.step(t, txn)) for t, txn in stream[journaled:]]
        monitor.journal.close()
        assert got == golden["verdicts"][journaled - 5:]
        straight = build(golden)
        assert [
            canonical(r) for r in straight.run(stream)
        ] == golden["verdicts"]
        assert checkpoint_dict(monitor.checker) == checkpoint_dict(
            straight.checker
        )

    def test_this_tree_writes_the_same_files(self, golden, tmp_path):
        """Same stream, same cadence: the checkpoint and segment files
        are the parent's bytes, the cold tier holds the same rows."""
        monitor = build(golden)
        monitor.enable_journal(
            tmp_path / "here", checkpoint_every=golden["checkpoint_every"]
        )
        for t, txn in stream_of(golden)[:golden["steps_journaled"]]:
            monitor.step(t, txn)
        monitor.journal.close()
        theirs = unpack(golden, tmp_path / "theirs")
        assert sorted(p.name for p in (tmp_path / "here").iterdir()) == (
            sorted(golden["files_base64"])
        )
        for name in golden["files_base64"]:
            if name != "cold.sqlite":
                assert (tmp_path / "here" / name).read_bytes() == (
                    (theirs / name).read_bytes()
                ), name
        with ColdAnchorStore(theirs / "cold.sqlite") as cold:
            want = {gen: cold.read_generation(gen) for gen in (1, 2)}
            assert cold.generations() == [1, 2]
        with ColdAnchorStore(tmp_path / "here" / "cold.sqlite") as cold:
            assert cold.generations() == [1, 2]
            assert {
                gen: cold.read_generation(gen) for gen in (1, 2)
            } == want
        assert checkpoint_dict(recover(tmp_path / "here").checker) == (
            checkpoint_dict(recover(theirs).checker)
        )
