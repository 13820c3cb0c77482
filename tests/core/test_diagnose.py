"""Tests for violation forensics (diagnose)."""

import pytest

from repro import (
    Constraint,
    DatabaseSchema,
    IncrementalChecker,
    Monitor,
    Transaction,
)
from repro.core.diagnose import anchor_evidence, diagnose, witness_evidence
from repro.errors import MonitorError

ENGINES = ("incremental", "naive", "naive-memo", "active", "adom")


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict(
        {"checkout": [("p", "str"), ("b", "int")],
         "returned": [("p", "str"), ("b", "int")]}
    )


def ins(rel, *rows):
    return Transaction({rel: list(rows)})


def make(schema, text):
    return IncrementalChecker(schema, [Constraint("c", text)])


class TestDiagnose:
    def test_pruned_anchor(self, schema):
        checker = make(schema, "returned(p, b) -> ONCE[0,14] checkout(p, b)")
        checker.step(0, ins("checkout", ("ann", 7)))
        checker.step(1, Transaction({}, {"checkout": [("ann", 7)]}))
        report = checker.step(30, ins("returned", ("ann", 7)))
        text = diagnose(checker, report.violations[0])
        assert "witness p='ann', b=7" in text
        assert "holds  returned(p, b)" in text
        assert "no anchors stored" in text

    def test_out_of_window_anchor_reported_with_age(self, schema):
        # unbounded low bound keeps the min anchor, so the evidence can
        # say how far outside the window it is
        checker = make(schema, "returned(p, b) -> ONCE[20,*] checkout(p, b)")
        checker.step(0, ins("checkout", ("ann", 7)))
        report = checker.step(
            5, Transaction({"returned": [("ann", 7)]})
        )
        text = diagnose(checker, report.violations[0])
        assert "none inside [20,*]" in text
        assert "5 units old" in text

    def test_in_window_anchor_on_satisfied_branch(self, schema):
        # two obligations; only one fails — diagnose shows both
        checker = make(
            schema,
            "returned(p, b) -> ONCE[0,14] checkout(p, b) "
            "AND ONCE[0,2] checkout(p, b)",
        )
        checker.step(0, ins("checkout", ("ann", 7)))
        checker.step(1, Transaction({}, {"checkout": [("ann", 7)]}))
        report = checker.step(10, ins("returned", ("ann", 7)))
        text = diagnose(checker, report.violations[0])
        # the 14-window still holds its anchors (distances 9 and 10);
        # the 2-window pruned them, which is itself the evidence
        assert "inside [0,14]" in text
        assert "no anchors stored" in text

    def test_closed_constraint(self, schema):
        checker = make(
            schema, "FORALL p, b. returned(p, b) -> ONCE checkout(p, b)"
        )
        report = checker.step(0, ins("returned", ("ann", 7)))
        text = diagnose(checker, report.violations[0])
        assert "(closed constraint)" in text

    def test_witness_cap(self, schema):
        checker = make(schema, "returned(p, b) -> ONCE checkout(p, b)")
        report = checker.step(
            0, ins("returned", *[("p", i) for i in range(6)])
        )
        text = diagnose(checker, report.violations[0], max_witnesses=2)
        assert "... and 4 more witness(es)" in text

    def test_requires_current_state(self, schema):
        checker = make(schema, "returned(p, b) -> ONCE checkout(p, b)")
        report = checker.step(0, ins("returned", ("ann", 7)))
        checker.step(1, Transaction.noop())
        with pytest.raises(MonitorError, match="before the checker steps"):
            diagnose(checker, report.violations[0])

    def test_unknown_constraint(self, schema):
        checker = make(schema, "returned(p, b) -> ONCE checkout(p, b)")
        report = checker.step(0, ins("returned", ("ann", 7)))
        violation = report.violations[0]
        violation.constraint = "nope"
        with pytest.raises(MonitorError, match="no constraint"):
            diagnose(checker, violation)


def run_violation(schema, engine, text):
    """Drive one engine into the shared expired-anchor violation."""
    monitor = Monitor(schema, engine=engine)
    monitor.add_constraint("c", text)
    monitor.step(0, ins("checkout", ("ann", 7)))
    monitor.step(1, Transaction({}, {"checkout": [("ann", 7)]}))
    report = monitor.step(9, ins("returned", ("ann", 7)))
    assert report.violations, engine
    return monitor.checker, report.violations[0]


class TestDiagnoseAllEngines:
    """Every monitor engine must produce the same-shaped report."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_expired_anchor(self, schema, engine):
        checker, violation = run_violation(
            schema, engine, "returned(p, b) -> ONCE[0,3] checkout(p, b)"
        )
        text = diagnose(checker, violation)
        assert "violation of 'c' at t=9" in text
        # witness key order is engine-dependent; the binding is not
        assert "p='ann'" in text and "b=7" in text
        assert "holds  returned(p, b)" in text
        assert "ONCE[0,3]" in text
        # every conjunct was decided — no engine falls back to the
        # "needs other bindings" escape hatch on this recipe
        assert "needs other bindings" not in text

    @pytest.mark.parametrize("engine", ENGINES)
    def test_in_window_anchor_reported(self, schema, engine):
        # an anchor inside the window on the satisfied obligation, and
        # a pruned/expired one on the failing obligation
        monitor = Monitor(schema, engine=engine)
        monitor.add_constraint(
            "c",
            "returned(p, b) -> ONCE[0,14] checkout(p, b) "
            "AND ONCE[0,2] checkout(p, b)",
        )
        monitor.step(0, ins("checkout", ("ann", 7)))
        monitor.step(1, Transaction({}, {"checkout": [("ann", 7)]}))
        report = monitor.step(10, ins("returned", ("ann", 7)))
        assert report.violations
        text = diagnose(monitor.checker, report.violations[0])
        assert "inside [0,14]" in text

    @pytest.mark.parametrize("engine", ENGINES)
    def test_witness_evidence_structure(self, schema, engine):
        checker, violation = run_violation(
            schema, engine, "returned(p, b) -> ONCE[0,3] checkout(p, b)"
        )
        (entry,) = witness_evidence(checker, violation)
        assert entry["witness"] == {"p": "ann", "b": 7}
        (label, evidence), = entry["evidence"].items()
        assert label == "ONCE[0,3] checkout(p, b)"
        # the naive engines recompute from the stored history; the
        # others read real auxiliary state — same formatter either way
        if engine.startswith("naive"):
            assert evidence.startswith("history scan: ")
            assert "none inside [0,3]" in evidence
        else:
            assert "no anchors stored" in evidence
        # and the structured evidence is exactly what diagnose() prints
        assert evidence in diagnose(checker, violation)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_prev_evidence(self, schema, engine):
        monitor = Monitor(schema, engine=engine)
        monitor.add_constraint(
            "c", "returned(p, b) -> PREV checkout(p, b)"
        )
        monitor.step(0, Transaction({}))
        report = monitor.step(1, ins("returned", ("ann", 7)))
        assert report.violations
        text = diagnose(monitor.checker, report.violations[0])
        assert "operand does not hold" in text

    def test_unsupported_engine_rejected(self, schema):
        class Alien:
            now = 0
            constraints = [
                Constraint("c", "returned(p, b) -> ONCE checkout(p, b)")
            ]

        checker = make(schema, "returned(p, b) -> ONCE checkout(p, b)")
        report = checker.step(0, ins("returned", ("ann", 7)))
        with pytest.raises(MonitorError, match="does not support engine"):
            diagnose(Alien(), report.violations[0])

    def test_anchor_evidence_unbound_witness(self, schema):
        checker = make(schema, "returned(p, b) -> ONCE checkout(p, b)")
        checker.step(0, ins("returned", ("ann", 7)))
        (node,) = checker.aux_nodes()
        assert anchor_evidence(checker, node, {}) == (
            "witness does not bind this subformula"
        )


class TestClassMembers:
    """One auxiliary state serves every node of a rename-equivalence
    class; the evidence for a member is the representative's, read
    through the class's column renaming."""

    SCHEMA = DatabaseSchema.from_dict(
        {"p": ["a"], "q": ["a"], "r": ["a", "b"], "s": ["a", "b"]}
    )

    #: (representative's constraint, a member's, steps, expected evidence)
    CASES = {
        "anchor pruned": (
            "p(x1) -> ONCE[0,3] q(x1)",
            "p(y1) -> ONCE[0,3] q(y1)",
            [(0, ins("q", (1,))),
             (1, Transaction({}, {"q": [(1,)]})),
             (9, ins("p", (1,)))],
            "ONCE[0,3]: no anchors stored for this valuation",
        ),
        "anchor stored outside the window": (
            "p(x1) -> ONCE[20,*] q(x1)",
            "p(y1) -> ONCE[20,*] q(y1)",
            [(0, ins("q", (1,))), (5, ins("p", (1,)))],
            "ONCE[20,*]: 1 anchor(s) stored but none inside [20,*]; "
            "nearest is 5 units old",
        ),
        # the member's sorted columns (y1, z1) are the representative's
        # (x2, x1) the other way round
        "columns permuted": (
            "r(x1, x2) -> ONCE[5,*] s(x1, x2)",
            "r(z1, y1) -> ONCE[5,*] s(z1, y1)",
            [(0, ins("s", (1, 2))), (3, ins("r", (1, 2)))],
            "ONCE[5,*]: 1 anchor(s) stored but none inside [5,*]; "
            "nearest is 3 units old",
        ),
        "prev": (
            "q(x1) -> PREV p(x1)",
            "q(y1) -> PREV p(y1)",
            [(0, Transaction({})),
             (1, Transaction({"p": [(1,)], "q": [(1,)]}))],
            "PREV[0,*]: operand holds at the current state "
            "(visible next step)",
        ),
    }

    def run(self, case):
        first, second, steps, expected = self.CASES[case]
        checker = IncrementalChecker(
            self.SCHEMA, [Constraint("c1", first), Constraint("c2", second)]
        )
        assert checker.sharing_stats()["shared_nodes"] == 1.0
        for time, txn in steps:
            report = checker.step(time, txn)
        assert [v.constraint for v in report.violations] == ["c1", "c2"]
        return checker, report, expected

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_member_evidence_is_the_representatives(self, case):
        checker, report, expected = self.run(case)
        representative, member = (
            diagnose(checker, v) for v in report.violations
        )
        assert expected in representative
        renaming = (
            {"z1": "x1", "y1": "x2"} if case == "columns permuted"
            else {"y1": "x1"}
        )
        member = member.replace("'c2'", "'c1'")
        for theirs, ours in renaming.items():
            member = member.replace(theirs, ours)
        assert member == representative

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flight_dump_carries_it(self, case, tmp_path):
        from repro.obs import FlightRecorder, read_flight

        checker, report, expected = self.run(case)
        flight = FlightRecorder(tmp_path / "flight.jsonl")
        flight.dump(checker, "violation", report)
        first, second = read_flight(flight.path)["evidence"]
        assert (first["constraint"], second["constraint"]) == ("c1", "c2")
        for entry in (first, second):
            (witness,) = entry["witnesses"]
            (text,) = witness["evidence"].values()
            assert expected.endswith(text)
        assert second["witnesses"] == witness_evidence(
            checker, report.violations[1]
        )
