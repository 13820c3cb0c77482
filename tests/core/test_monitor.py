"""Unit tests for the Monitor façade."""

from itertools import combinations

import pytest

from repro import DatabaseSchema, Monitor, Transaction, UnsafeFormulaError
from repro.core import ENGINES
from repro.core import builder as b
from repro.errors import MonitorError, SchemaError


def ins(rel, *rows):
    return Transaction({rel: list(rows)})


#: everything that adds a stage to ``Monitor``'s step path
FEATURES = (
    "quarantine", "journal", "deadline", "telemetry", "statewatch", "handler"
)
CONFIGURATIONS = [
    subset
    for size in range(len(FEATURES) + 1)
    for subset in combinations(FEATURES, size)
]


class TestRegistration:
    def test_text_and_formula_constraints(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("t1", "p(x) -> q(x)")
        formula = b.implies(b.atom("q", b.var("x")), b.atom("p", b.var("x")))
        monitor.add_constraint("t2", formula)
        assert len(monitor.constraints) == 2

    def test_duplicate_names_rejected(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("c", "TRUE")
        with pytest.raises(MonitorError, match="duplicate"):
            monitor.add_constraint("c", "TRUE")

    def test_unsafe_rejected_eagerly(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        with pytest.raises(UnsafeFormulaError):
            monitor.add_constraint("bad", "ONCE NOT p(x)")

    def test_schema_mismatch_rejected_eagerly(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        with pytest.raises(SchemaError):
            monitor.add_constraint("bad", "p(x, y) -> q(x)")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mistyped_comparison_rejected_eagerly(self, engine):
        """A string column compared with a number is refused when the
        constraint is registered, not at the first row that reaches the
        comparison (after that row's state is installed)."""
        schema = DatabaseSchema.builder().relation(
            "reading", [("sensor", "str"), ("value", "str")]
        ).relation("alert", [("sensor", "str")]).build()
        monitor = Monitor(schema, engine=engine)
        with pytest.raises(SchemaError, match="mixes str and num"):
            monitor.add_constraint(
                "hot", "reading(x, y) AND y > 90 -> alert(x)"
            )
        assert monitor.constraints == []
        monitor.step(0, Transaction({"reading": [("s1", "95")]}))
        assert monitor.now == 0

    def test_constraint_file(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        added = monitor.add_constraints_text(
            "a: p(x) -> q(x);\nq(x) -> ONCE p(x)"
        )
        assert [c.name for c in added] == ["a", "c2"]

    def test_registration_frozen_after_first_step(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("c", "TRUE")
        monitor.step(0, Transaction.noop())
        with pytest.raises(MonitorError, match="before the first step"):
            monitor.add_constraint("late", "TRUE")

    def test_unknown_engine(self, tiny_schema):
        with pytest.raises(MonitorError, match="unknown engine"):
            Monitor(tiny_schema, engine="quantum")


class TestEngines:
    @pytest.mark.parametrize("engine", ["incremental", "naive", "naive-memo", "active"])
    def test_engines_agree_on_scenario(self, tiny_schema, engine):
        monitor = Monitor(tiny_schema, engine=engine)
        monitor.add_constraint("c", "q(x) -> ONCE[0,3] p(x)")
        assert monitor.step(0, ins("p", (1,))).ok
        assert monitor.step(2, ins("q", (1,))).ok
        assert not monitor.step(3, ins("q", (2,))).ok
        assert monitor.now == 3

    def test_run(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("c", "q(x) -> p(x)")
        report = monitor.run([(0, ins("q", (1,))), (1, ins("p", (1,)))])
        assert report.violation_count == 1
        assert report.first_violation().time == 0
        assert report.by_constraint() == {"c": report.violations}


    @pytest.mark.parametrize("entry", ["step", "run"])
    @pytest.mark.parametrize(
        "features", CONFIGURATIONS, ids=lambda f: "+".join(f) or "bare"
    )
    def test_every_configuration_matches_the_bare_checker(
        self, features, entry, tmp_path
    ):
        """Whatever is switched on, the one step path yields the bare
        checker's reports and answers every fed step exactly once."""
        from repro.workloads import sensors_workload

        steps = 60
        workload = sensors_workload(violation_rate=0.15)
        stream = list(workload.stream(steps, seed=1992))
        bare = workload.checker()
        expected = [bare.step(time, txn) for time, txn in stream]
        assert sum(len(r.violations) for r in expected) > 0

        monitor = Monitor(
            workload.schema,
            fault_policy="quarantine" if "quarantine" in features else None,
            step_deadline=60.0 if "deadline" in features else None,
        )
        for c in workload.constraints:
            monitor.add_constraint(c.name, c.formula)
        if "telemetry" in features:
            monitor.enable_telemetry()
        if "statewatch" in features:
            monitor.enable_statewatch()
        if "journal" in features:
            monitor.enable_journal(tmp_path / "journal", checkpoint_every=16)
        handled = []
        if "handler" in features:
            monitor.on_violation(handled.append)

        if entry == "run":
            reports = monitor.run(stream).steps
        else:
            reports = [monitor.step(time, txn) for time, txn in stream]
        if monitor.journal is not None:
            monitor.journal.close()

        assert reports == expected
        # the accounting identity: fed == verdicts + degraded + shed
        shed = sum(r.skipped for r in reports)
        degraded = sum(r.degraded for r in reports)
        verdicts = len(reports) - shed - degraded
        assert (verdicts, degraded, shed) == (steps, 0, 0)
        assert monitor.checker.steps_processed == steps
        if "handler" in features:
            assert handled == [v for r in expected for v in r.violations]
        if "quarantine" in features:
            assert monitor.resilience.summary()["faults"] == {}
        if "journal" in features:
            assert monitor.journal.records_written == steps
        if "telemetry" in features:
            assert monitor.telemetry.steps_processed == steps
        if "statewatch" in features:
            assert monitor.statewatch.steps_observed == steps


class TestViolationHandlers:
    def test_handler_fires_per_violation(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("c", "q(x) -> p(x)")
        seen = []
        monitor.on_violation(lambda v: seen.append((v.time, v.constraint)))
        monitor.step(0, ins("q", (1,)))
        monitor.step(1, ins("p", (1,)))
        assert seen == [(0, "c")]

    def test_handlers_fire_during_run(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("c", "q(x) -> p(x)")
        seen = []
        monitor.on_violation(lambda v: seen.append(v.time))
        monitor.run([(0, ins("q", (1,))), (3, ins("q", (2,)))])
        assert seen == [0, 3]

    def test_handler_exception_propagates(self, tiny_schema):
        from repro.errors import HandlerError

        monitor = Monitor(tiny_schema)
        monitor.add_constraint("c", "q(x) -> p(x)")

        def boom(violation):
            raise RuntimeError("alerting failed")

        monitor.on_violation(boom)
        with pytest.raises(HandlerError, match="alerting failed"):
            monitor.step(0, ins("q", (1,)))

    def test_handler_isolation_runs_all_and_carries_report(self, tiny_schema):
        # one raising handler must neither mask the report nor skip
        # the handlers registered after it
        from repro.errors import HandlerError

        monitor = Monitor(tiny_schema)
        monitor.add_constraint("c", "q(x) -> p(x)")
        seen = []

        def boom(violation):
            raise RuntimeError("alerting failed")

        monitor.on_violation(boom)
        monitor.on_violation(lambda v: seen.append(v.constraint))
        with pytest.raises(HandlerError) as excinfo:
            monitor.step(0, ins("q", (1,)))
        assert seen == ["c"]
        err = excinfo.value
        assert err.report.violated_constraints() == ["c"]
        assert len(err.failures) == 1
        assert isinstance(err.failures[0][1], RuntimeError)

    def test_handler_failures_absorbed_by_fault_policy(self, tiny_schema):
        monitor = Monitor(tiny_schema, fault_policy="quarantine")
        monitor.add_constraint("c", "q(x) -> p(x)")

        def boom(violation):
            raise RuntimeError("alerting failed")

        monitor.on_violation(boom)
        report = monitor.step(0, ins("q", (1,)))
        assert report.violated_constraints() == ["c"]  # verdict intact
        assert monitor.resilience.handler_failures == 1
        assert [r.kind for r in monitor.resilience.quarantine] == ["handler"]

    def test_multiple_handlers_in_order(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("c", "q(x) -> p(x)")
        order = []
        monitor.on_violation(lambda v: order.append("first"))
        monitor.on_violation(lambda v: order.append("second"))
        monitor.step(0, ins("q", (1,)))
        assert order == ["first", "second"]


class TestSharingGaugesReachEveryRegistry:
    """``repro_aux_classes`` / ``_shared_nodes`` / ``_dedup_ratio`` are
    published wherever a registry meets a built incremental checker —
    not only when the monitor builds the checker itself."""

    GAUGES = {
        "repro_aux_classes": 1.0,
        "repro_aux_shared_nodes": 1.0,
        "repro_aux_dedup_ratio": 0.5,
    }

    def stepped(self, tiny_schema):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("a", "q(x) -> ONCE[0,3] p(x)")
        monitor.add_constraint("b", "q(y) -> ONCE[0,3] p(y)")
        monitor.step(0, ins("p", (1,)))
        return monitor

    def attach(self, monitor):
        from repro.obs import MetricsRegistry, MonitorInstrumentation

        registry = MetricsRegistry()
        monitor.instrument(MonitorInstrumentation(metrics=registry))
        return {
            name: series[0][1].value
            for name, _kind, _help, series in registry.families()
            if name in self.GAUGES
        }

    def test_attached_after_the_checker_exists(self, tiny_schema):
        assert self.attach(self.stepped(tiny_schema)) == self.GAUGES

    def test_attached_after_resume(self, tiny_schema, tmp_path):
        self.stepped(tiny_schema).save(tmp_path / "c.json")
        resumed = Monitor.resume(tmp_path / "c.json")
        assert self.attach(resumed) == self.GAUGES

    def test_attached_after_recover(self, tiny_schema, tmp_path):
        monitor = Monitor(tiny_schema)
        monitor.add_constraint("a", "q(x) -> ONCE[0,3] p(x)")
        monitor.add_constraint("b", "q(y) -> ONCE[0,3] p(y)")
        monitor.enable_journal(tmp_path / "j", checkpoint_every=1)
        monitor.step(0, ins("p", (1,)))
        monitor.journal.close()
        recovered, _ = Monitor.recover(tmp_path / "j")
        try:
            assert self.attach(recovered) == self.GAUGES
        finally:
            recovered.journal.close()

    def test_other_engines_publish_nothing(self, tiny_schema):
        monitor = Monitor(tiny_schema, engine="naive")
        monitor.add_constraint("a", "q(x) -> ONCE[0,3] p(x)")
        monitor.step(0, ins("p", (1,)))
        assert self.attach(monitor) == {}
