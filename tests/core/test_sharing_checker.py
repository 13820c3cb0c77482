"""One auxiliary state per rename-equivalence class of temporal nodes.

The references are one checker per constraint (no state shared across
constraints, :mod:`tests.core.oracles`) and the naive engine.
"""

import base64
import json
from pathlib import Path

import pytest

from repro import Monitor, Transaction
from repro.core.checker import Constraint, IncrementalChecker
from repro.core.naive import NaiveChecker
from repro.core.persist import checkpoint_dict, recover, restore_checker
from repro.db import DatabaseSchema
from repro.errors import MonitorError
from repro.obs import MetricsRegistry
from repro.obs.instrument import MonitorInstrumentation
from repro.shard import ShardedMonitor
from repro.temporal import StreamGenerator

from tests.core.oracles import (
    PerConstraintCheckers, exact, exact_violation, interrupted_run,
)

SCHEMA = DatabaseSchema.from_dict({"p": ["a"], "q": ["a"], "r": ["a", "b"]})

VARIANTS = [
    Constraint("a", "q(x) -> ONCE[0,3] p(x)"),
    Constraint("b", "q(y) -> ONCE[0,3] p(y)"),
    Constraint("c", "r(z, w) -> ONCE[0,3] p(z)"),
]

TOWERS = [
    Constraint("a", "q(x) -> ONCE[0,2] ONCE[0,2] p(x)"),
    Constraint("b", "q(v) -> ONCE[0,2] ONCE[0,2] p(v)"),
    Constraint("c", "r(z, w) -> ONCE[0,2] ONCE[0,2] p(z)"),
]


def ins(rel, *rows):
    return Transaction({rel: list(rows)})


def drive(checker, steps):
    return [checker.step(time, txn) for time, txn in steps]


STEPS = [
    (0, ins("p", (1,))),
    (1, ins("q", (1,))),
    (2, ins("q", (2,))),
    (5, ins("r", (1, 9))),
    (9, ins("q", (1,))),
]


def random_steps(length, seed=3):
    return list(StreamGenerator(
        SCHEMA, universe=[0, 1, 2], max_gap=3, seed=seed
    ).stream(length))


class TestSharingStats:
    def test_variants_collapse_to_one_class(self):
        stats = IncrementalChecker(SCHEMA, VARIANTS).sharing_stats()
        assert stats["classes"] == 1.0
        assert stats["shared_nodes"] == 2.0
        assert stats["distinct_nodes"] == 3.0
        assert stats["dedup_ratio"] == pytest.approx(1 / 3)

    def test_structural_duplicates_dedup_either_way(self):
        # the same node in two constraints is one node, whichever
        # constraint registers it
        twins = [
            Constraint("a", "q(x) -> ONCE[0,3] p(x)"),
            Constraint("b", "r(x, y) -> ONCE[0,3] p(x)"),
        ]
        for order in (twins, twins[::-1]):
            stats = IncrementalChecker(SCHEMA, order).sharing_stats()
            assert stats["classes"] == 1.0
            assert stats["shared_nodes"] == 0.0

    def test_no_temporal_nodes(self):
        stats = IncrementalChecker(
            SCHEMA, [Constraint("c", "q(x) -> p(x)")]
        ).sharing_stats()
        assert stats["classes"] == 0.0
        assert stats["dedup_ratio"] == 1.0

    def test_every_node_resolves_to_its_class_state(self):
        checker = IncrementalChecker(SCHEMA, VARIANTS)
        (state,) = checker._aux.values()
        nodes = [
            node for c in VARIANTS
            for node in c.violation_formula.temporal_subformulas()
        ]
        assert [checker.auxiliary_of(node) for node in nodes] == [
            (state, {}), (state, {"x": "y"}), (state, {"x": "z"}),
        ]
        stranger = Constraint("s", "q(x) -> ONCE[0,4] p(x)")
        (node,) = stranger.violation_formula.temporal_subformulas()
        assert checker.auxiliary_of(node) is None
        # accounting names every constraint the one state serves
        (profile,) = checker.state_profile(deep=False)["nodes"].values()
        assert profile["constraints"] == ["a", "b", "c"]


class TestVerdictEquality:
    def bit_for_bit(self, family, checker=None):
        steps = STEPS + random_steps(30)[10:]
        steps = [(i, txn) for i, (_, txn) in enumerate(steps)]
        got = drive(checker or IncrementalChecker(SCHEMA, family), steps)
        base = drive(PerConstraintCheckers(SCHEMA, family), steps)
        assert got == base == drive(NaiveChecker(SCHEMA, family), steps)
        assert [exact(r) for r in got] == [exact(r) for r in base]
        # the workload actually exercises both verdicts
        assert any(not report.ok for report in base)
        assert any(report.ok for report in base)

    def test_reports_are_bit_for_bit_identical(self):
        self.bit_for_bit(VARIANTS)

    def test_nested_towers_share_per_level(self):
        checker = IncrementalChecker(SCHEMA, TOWERS)
        assert checker.sharing_stats()["classes"] == 2.0
        assert checker.sharing_stats()["shared_nodes"] == 4.0
        assert len(checker._schedule) == 2, "advances per step = depth"
        self.bit_for_bit(TOWERS, checker)

    @pytest.mark.parametrize("urgent", ["a", "b"])
    def test_towers_through_deferral_step_state_and_restore(self, urgent):
        """A shed constraint — the representative's or a member's —
        misses that step's delta and must not be served stale."""
        script = [
            "step", "late", "step", "step_state", "late", "late",
            "restore", "step", "late", "step_state", "restore", "step",
        ] * 2
        violating = 0
        for event, time, got, want in interrupted_run(
            SCHEMA, TOWERS, random_steps(len(script)), script, urgent
        ):
            assert [exact_violation(v) for v in got.violations] == [
                exact_violation(v) for v in want
            ], (time, event)
            violating += not got.ok
        assert violating > 3


class TestPersistence:
    def test_checkpoint_round_trip_keeps_sharing(self):
        checker = IncrementalChecker(SCHEMA, VARIANTS)
        head, tail = STEPS[:3], STEPS[3:]
        drive(checker, head)
        document = checkpoint_dict(checker)
        assert len(document["aux"]) == 1
        restored = restore_checker(document)
        assert restored.sharing_stats() == checker.sharing_stats()
        full = drive(PerConstraintCheckers(SCHEMA, VARIANTS), STEPS)
        assert drive(restored, tail) == full[3:]

    def test_monitor_save_and_resume(self, tmp_path):
        steps = random_steps(24)
        monitor = Monitor(SCHEMA)
        for c in TOWERS:
            monitor.add_constraint(c.name, c.formula)
        got = [monitor.step(t, txn) for t, txn in steps[:11]]
        monitor.save(tmp_path / "towers.json")
        resumed = Monitor.resume(tmp_path / "towers.json")
        assert resumed.checker.sharing_stats()["classes"] == 2.0
        got += [resumed.step(t, txn) for t, txn in steps[11:]]
        assert got == drive(NaiveChecker(SCHEMA, TOWERS), steps)
        assert sum(not report.ok for report in got[11:]) > 2


class TestPerNodeLayout:
    """Documents and journal directories written when every structurally
    distinct node had its own entry (``golden/per_node_layout_v1.json``,
    recorded at the last commit that wrote them) load into the class
    layout: the representatives' entries are kept, the others — their
    renamings, one of them on the cold tier — are dropped."""

    @pytest.fixture(scope="class")
    def golden(self):
        path = Path(__file__).parent / "golden" / "per_node_layout_v1.json"
        return json.loads(path.read_text())

    def constraints(self, golden):
        return [Constraint(n, text) for n, text in golden["constraints"]]

    def continue_against_naive(self, golden, runner, done):
        """``runner``: the restored checker, or the monitor around it."""
        checker = getattr(runner, "checker", runner)
        schema = DatabaseSchema.from_dict(golden["schema"])
        naive = NaiveChecker(schema, self.constraints(golden))
        stream = [
            (t, Transaction.from_dict(txn)) for t, txn in golden["stream"]
        ]
        want = drive(naive, stream)[done:]
        got = drive(runner, stream[done:])
        assert got == want
        assert sum(not report.ok for report in got) > 3
        # and it is where a run that never stopped is
        continuous = IncrementalChecker(schema, self.constraints(golden))
        drive(continuous, stream)
        assert checkpoint_dict(checker) == checkpoint_dict(continuous)

    def test_document_loads_and_continues(self, golden):
        document = json.loads(golden["document"])
        assert document["share_subformulas"] is False
        assert len(document["aux"]) == 13
        checker = restore_checker(document)
        assert checker.sharing_stats()["classes"] == 6.0
        assert checker.sharing_stats()["distinct_nodes"] == 13.0
        self.continue_against_naive(
            golden, checker, golden["document_after_step"] + 1
        )

    def test_journal_directory_recovers_and_continues(
        self, golden, tmp_path
    ):
        directory = tmp_path / "journal"
        directory.mkdir()
        for name, data in golden["journal"]["files_base64"].items():
            (directory / name).write_bytes(base64.b64decode(data))
        framed = (directory / "checkpoint.json").read_text()
        assert framed.count('"cold": true') == 2, (
            "a spilled node is among the dropped entries"
        )
        monitor, result = Monitor.recover(directory)
        journaled = golden["journal"]["steps_journaled"]
        every = golden["journal"]["checkpoint_every"]
        assert result.journal_entries == journaled % every
        assert monitor.checker.steps_processed == journaled
        assert not result.fallback and not result.torn_records
        self.continue_against_naive(golden, monitor, journaled)
        monitor.journal.close()
        # the directory now holds the class layout and recovers again
        again = recover(directory).checker
        assert checkpoint_dict(again) == checkpoint_dict(monitor.checker)

    @pytest.mark.parametrize("entries", [1, 5, 7, 12, 14])
    def test_other_lengths_still_raise(self, golden, entries):
        document = json.loads(golden["document"])
        document["aux"] = (document["aux"] * 2)[:entries]
        with pytest.raises(MonitorError, match="auxiliary states"):
            restore_checker(document)


class TestMonitorSurface:
    def test_monitor_verdicts_match_unshared(self):
        """Unshared: one monitor per constraint; and the naive engine."""
        texts = {"a": "q(x) -> ONCE[0,3] p(x)", "b": "q(y) -> ONCE[0,3] p(y)"}

        def monitor(names, engine="incremental"):
            built = Monitor(SCHEMA, engine=engine)
            for name in names:
                built.add_constraint(name, texts[name])
            return built

        both, naive = monitor("ab"), monitor("ab", engine="naive")
        apart = [monitor("a"), monitor("b")]
        for time, txn in STEPS:
            report = both.step(time, txn)
            assert report == naive.step(time, txn)
            assert [exact_violation(v) for v in report.violations] == [
                exact_violation(v)
                for single in apart
                for v in single.step(time, txn).violations
            ]

    def test_sharing_gauges_are_published(self):
        metrics = MetricsRegistry()
        monitor = Monitor(
            SCHEMA,
            instrumentation=MonitorInstrumentation(metrics=metrics),
        )
        monitor.add_constraint("a", "q(x) -> ONCE[0,3] p(x)")
        monitor.add_constraint("b", "q(y) -> ONCE[0,3] p(y)")
        monitor.step(0, ins("p", (1,)))
        gauge = metrics.gauge("repro_aux_classes", engine="incremental")
        assert gauge.value == 1.0
        shared = metrics.gauge(
            "repro_aux_shared_nodes", engine="incremental"
        )
        assert shared.value == 1.0
        ratio = metrics.gauge(
            "repro_aux_dedup_ratio", engine="incremental"
        )
        assert ratio.value == pytest.approx(0.5)

    @pytest.mark.parametrize("transport", ["inline", "process"])
    def test_sharded_workers_share_too(self, transport, tmp_path):
        steps = random_steps(40, seed=8)
        single = Monitor(SCHEMA)
        sharded = ShardedMonitor(
            SCHEMA, key="a", shards=2, journal_root=tmp_path,
            transport=transport,
        )
        for monitor in (single, sharded):
            for c in TOWERS:
                monitor.add_constraint(c.name, c.formula)
        want = [single.step(t, txn) for t, txn in steps]
        got = list(sharded.run(iter(steps)).steps)
        sharded.close()
        assert got == want
        assert sum(not report.ok for report in want) > 5
