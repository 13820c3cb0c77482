"""Tests for checker checkpoint/restore.

The central property: saving after k steps and restoring yields a
checker whose remaining run is indistinguishable from the original's —
same verdicts, same witnesses, same auxiliary sizes.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checker import Constraint, IncrementalChecker
from repro.core.persist import (
    checkpoint_dict,
    load_checker,
    restore_checker,
    save_checker,
)
from repro.db import DatabaseSchema, Transaction
from repro.errors import MonitorError
from repro.temporal import StreamGenerator

from tests.core.strategies import SCHEMA, constraints

LIB = DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})


def make_checker(**kwargs):
    return IncrementalChecker(
        LIB,
        [
            Constraint("window", "p(x) -> ONCE[0,5] q(x)"),
            Constraint("deadline", "p(x) -> q(x) SINCE[0,*] q(x)"),
            Constraint("prev", "p(x) -> PREV (q(x) OR p(x))"),
        ],
        **kwargs,
    )


def ins(rel, *rows):
    return Transaction({rel: list(rows)})


class TestRoundTrip:
    def test_fresh_checker(self, tmp_path):
        checker = make_checker()
        save_checker(checker, tmp_path / "c.json")
        restored = load_checker(tmp_path / "c.json")
        assert restored.now is None
        assert restored.steps_processed == 0

    def test_mid_run_resume_matches_continuous_run(self, tmp_path):
        script = [
            (0, ins("q", (1,), (2,))),
            (2, ins("p", (1,))),
            (5, Transaction({}, {"q": [(1,)]})),
            (9, ins("p", (2,))),
            (12, Transaction.noop()),
            (20, ins("p", (3,))),
        ]
        continuous = make_checker()
        resumed = make_checker()
        for i, (t, txn) in enumerate(script):
            expected = continuous.step(t, txn)
            got = resumed.step(t, txn)
            assert [v.witnesses for v in expected.violations] == [
                v.witnesses for v in got.violations
            ]
            # checkpoint/restore between every pair of steps
            save_checker(resumed, tmp_path / "c.json")
            resumed = load_checker(tmp_path / "c.json")
        assert resumed.now == continuous.now
        assert resumed.aux_tuple_count() == continuous.aux_tuple_count()
        assert resumed.state == continuous.state

    def test_collapse_flag_preserved(self, tmp_path):
        checker = make_checker(collapse_unbounded=False)
        save_checker(checker, tmp_path / "c.json")
        assert load_checker(tmp_path / "c.json").collapse_unbounded is False

    def test_checkpoint_is_small(self, tmp_path):
        checker = make_checker()
        for t in range(0, 40, 2):
            checker.step(t, ins("q", (t % 3,)))
        doc = checkpoint_dict(checker)
        # bounded encoding: the checkpoint carries aux + current state,
        # nowhere near 20 states worth of history
        assert len(json.dumps(doc)) < 4000


class TestErrors:
    def test_version_check(self):
        with pytest.raises(MonitorError, match="version"):
            restore_checker({"version": 99})

    def test_aux_count_mismatch(self):
        checker = make_checker()
        doc = checkpoint_dict(checker)
        doc["aux"] = doc["aux"][:-1]
        with pytest.raises(MonitorError, match="auxiliary states"):
            restore_checker(doc)

    def test_kind_mismatch(self):
        checker = make_checker()
        doc = checkpoint_dict(checker)
        doc["aux"][0]["type"] = (
            "since" if doc["aux"][0]["type"] != "since" else "once"
        )
        with pytest.raises(MonitorError, match="kind mismatch"):
            restore_checker(doc)

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(MonitorError, match="malformed"):
            load_checker(bad)

    def test_missing_file_names_path(self, tmp_path):
        # FileNotFoundError never escapes raw
        with pytest.raises(MonitorError, match="does not exist") as excinfo:
            load_checker(tmp_path / "nowhere.json")
        assert "nowhere.json" in str(excinfo.value)

    def test_non_object_document(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(MonitorError, match="expected a JSON object"):
            load_checker(bad)

    def test_missing_field_wrapped(self, tmp_path):
        # structurally incomplete documents surface as MonitorError
        # with the path, never as a raw KeyError
        checker = make_checker()
        doc = checkpoint_dict(checker)
        del doc["state"]
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(MonitorError, match="missing or ill-typed"):
            load_checker(bad)

    def test_future_version_rejected_explicitly(self, tmp_path):
        checker = make_checker()
        doc = checkpoint_dict(checker)
        doc["version"] = doc["version"] + 1
        bad = tmp_path / "future.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(MonitorError, match="newer than this build"):
            load_checker(bad)

    def test_save_is_atomic_no_temp_leftover(self, tmp_path):
        checker = make_checker()
        checker.step(0, ins("q", (1,)))
        save_checker(checker, tmp_path / "c.json")
        save_checker(checker, tmp_path / "c.json")  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    constraint=constraints,
    seed=st.integers(0, 10**6),
    split=st.integers(1, 6),
)
def test_resume_property(constraint, seed, split):
    """save-at-k / resume equals the continuous run, on random inputs."""
    stream = list(
        StreamGenerator(SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed)
        .stream(8)
    )
    continuous = IncrementalChecker(SCHEMA, [constraint])
    first_half = IncrementalChecker(SCHEMA, [constraint])

    expected = [continuous.step(t, txn) for t, txn in stream]
    for t, txn in stream[:split]:
        first_half.step(t, txn)
    resumed = restore_checker(checkpoint_dict(first_half))
    got = [resumed.step(t, txn) for t, txn in stream[split:]]

    for want, have in zip(expected[split:], got):
        assert want.ok == have.ok, str(constraint.formula)
        assert [v.witnesses for v in want.violations] == [
            v.witnesses for v in have.violations
        ], str(constraint.formula)


class TestGoldenDocuments:
    """Checkpoint documents are the on-disk contract (``FORMAT_VERSION``
    1).  ``golden/checkpoints_v1.json`` holds a stream and the documents
    the checker wrote for it *before* auxiliary states dumped and loaded
    themselves and held their anchors as runs; the same stream must
    still produce them byte for byte, and they must still restore.
    The file is as recorded: its documents carry the ``share_subformulas``
    field of the time, which no document written now has and which the
    reader ignores — the byte comparison leaves that one key out."""

    @pytest.fixture(scope="class")
    def golden(self):
        from pathlib import Path

        path = Path(__file__).parent / "golden" / "checkpoints_v1.json"
        return json.loads(path.read_text())

    @staticmethod
    def as_written_now(text):
        document = json.loads(text)
        assert document.pop("share_subformulas") is False
        return json.dumps(document, sort_keys=True)

    def replay(self, golden, collapse, upto, checker=None, start=0):
        if checker is None:
            checker = IncrementalChecker(
                DatabaseSchema.from_dict(golden["schema"]),
                [Constraint(n, t) for n, t in golden["constraints"]],
                collapse_unbounded=collapse,
            )
        reports = [
            checker.step(when, Transaction.from_dict(txn))
            for when, txn in golden["stream"][start:upto + 1]
        ]
        return checker, reports

    @pytest.mark.parametrize("collapse", [True, False])
    @pytest.mark.parametrize("step", [17, 39])
    def test_documents_are_byte_identical(self, golden, collapse, step):
        from repro.core.persist import FORMAT_VERSION

        checker, _ = self.replay(golden, collapse, step)
        want = golden["documents"][f"collapse={collapse},step={step}"]
        written = json.dumps(checkpoint_dict(checker), sort_keys=True)
        assert written == self.as_written_now(want)
        assert FORMAT_VERSION == 1
        assert set(json.loads(written)) == {
            "version", "schema", "constraints", "collapse_unbounded",
            "time", "index", "state", "aux",
        }, "views and queues are derived state: never checkpointed"

    @pytest.mark.parametrize("collapse", [True, False])
    def test_golden_document_restores_and_continues(self, golden, collapse):
        document = json.loads(
            golden["documents"][f"collapse={collapse},step=17"]
        )
        resumed, got = self.replay(
            golden, collapse, 39, checker=restore_checker(document), start=18
        )
        continuous, want = self.replay(golden, collapse, 39)
        assert got == want[18:]
        assert any(not report.ok for report in got)
        final = self.as_written_now(
            golden["documents"][f"collapse={collapse},step=39"]
        )
        assert json.dumps(checkpoint_dict(resumed), sort_keys=True) == final
        assert resumed.aux_profile() == continuous.aux_profile()

    def test_dump_and_load_are_the_only_way_in(self, golden):
        """One place rebuilds the derived structures on restore."""
        checker, _ = self.replay(golden, True, 17)
        for aux in checker._aux.values():
            entry = aux.dump()
            twin = type(aux)(aux.formula)
            twin.load(json.loads(json.dumps(entry)))
            assert twin.dump() == entry
            assert twin.tuple_count() == aux.tuple_count()
            assert twin.oldest_anchor() == aux.oldest_anchor()
            assert dict(twin.iter_valuations()) == dict(aux.iter_valuations())
            for valuation, _ in aux.iter_valuations():
                assert twin.anchors_of(valuation) == aux.anchors_of(valuation)
            with pytest.raises(MonitorError, match="kind mismatch"):
                twin.load({"type": "nonsense"})
