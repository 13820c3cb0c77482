"""Fault policies: classification, quarantine, monitor integration."""

import json

import pytest

from repro.core.monitor import Monitor
from repro.db import DatabaseSchema, Transaction
from repro.errors import (
    HistoryError,
    MonitorError,
    SchemaError,
    TimeError,
    TransactionError,
)
from repro.obs import MetricsRegistry, MonitorInstrumentation
from repro.resilience import (
    FaultPolicy,
    FaultRecord,
    QuarantineLog,
    classify_fault,
)


def ins(rel, *rows):
    return Transaction({rel: list(rows)})


class TestFaultPolicy:
    def test_coerce_accepts_names_and_dashes(self):
        assert FaultPolicy.coerce("skip") is FaultPolicy.SKIP
        assert FaultPolicy.coerce("fail-fast") is FaultPolicy.FAIL_FAST
        assert FaultPolicy.coerce(FaultPolicy.QUARANTINE) is (
            FaultPolicy.QUARANTINE
        )

    def test_coerce_rejects_unknown(self):
        with pytest.raises(MonitorError, match="unknown fault policy"):
            FaultPolicy.coerce("retry")

    def test_classification(self):
        assert classify_fault(TimeError("x")) == "clock"
        assert classify_fault(SchemaError("x")) == "schema"
        assert classify_fault(TransactionError("x")) == "transaction"
        assert classify_fault(HistoryError("x")) == "history"
        assert classify_fault(ValueError("x")) == "other"


class TestQuarantineLog:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "dead" / "letters.jsonl"
        log = QuarantineLog(path)
        log.record(
            FaultRecord("schema", 3, "boom", ins("p", (1,)), "quarantine")
        )
        log.record(FaultRecord("clock", 5, "backwards", None, "quarantine"))
        log.close()
        rows = QuarantineLog.read(path)
        assert [r["kind"] for r in rows] == ["schema", "clock"]
        assert rows[0]["payload"] == {
            "insert": {"p": [[1]]},
            "delete": {},
        }
        # each line is independently parseable (append-only JSONL)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_in_memory_without_path(self):
        log = QuarantineLog()
        log.record(FaultRecord("history", None, "garbage"))
        assert len(log) == 1
        assert [r.kind for r in log] == ["history"]


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"p": ["a"], "q": ["a"]})


def make_monitor(schema, **kwargs):
    monitor = Monitor(schema, **kwargs)
    monitor.add_constraint("c", "q(x) -> ONCE[0,3] p(x)")
    return monitor


class TestMonitorFaultBoundary:
    def test_no_policy_still_raises(self, schema):
        monitor = make_monitor(schema)
        monitor.step(1, ins("p", (1,)))
        with pytest.raises(TimeError):
            monitor.step(0, ins("p", (2,)))

    def test_fail_fast_counts_then_raises(self, schema):
        monitor = make_monitor(schema, fault_policy="fail_fast")
        monitor.step(1, ins("p", (1,)))
        with pytest.raises(TimeError):
            monitor.step(0, ins("p", (2,)))
        assert monitor.resilience.fault_counts == {"clock": 1}
        assert monitor.resilience.skipped == 0

    def test_skip_policy_drops_bad_steps(self, schema):
        monitor = make_monitor(schema, fault_policy="skip")
        ok = monitor.step(1, ins("p", (1,)))
        bad = monitor.step(0, ins("p", (2,)))
        assert not ok.skipped and bad.skipped
        assert bad.fault.kind == "clock"
        # the checker never saw the bad input
        assert monitor.now == 1
        assert monitor.resilience.quarantine is None

    def test_quarantine_policy_dead_letters(self, schema, tmp_path):
        path = tmp_path / "q.jsonl"
        monitor = make_monitor(
            schema, fault_policy="quarantine", quarantine_log=path
        )
        monitor.step(1, ins("p", (1,)))
        monitor.step(2, Transaction({"nope": [(1,)]}))
        monitor.step(3, object())
        monitor.resilience.quarantine.close()
        rows = QuarantineLog.read(path)
        assert [r["kind"] for r in rows] == ["schema", "history"]
        assert monitor.resilience.summary()["quarantined"] == 2

    def test_quarantine_log_alone_implies_policy(self, schema, tmp_path):
        monitor = make_monitor(schema, quarantine_log=tmp_path / "q.jsonl")
        assert monitor.resilience.policy is FaultPolicy.QUARANTINE

    def test_skipped_steps_never_advance_indices(self, schema):
        monitor = make_monitor(schema, fault_policy="skip")
        monitor.step(1, ins("p", (1,)))
        monitor.step(0, ins("p", (2,)))  # clock fault, skipped
        after = monitor.step(2, ins("p", (3,)))
        assert after.index == 1  # the fault consumed no state index

    def test_step_state_goes_through_the_same_boundary(self, schema):
        from repro.db.database import DatabaseState

        monitor = make_monitor(schema, fault_policy="skip")
        state = DatabaseState.from_rows(schema, {"p": [(1,)]})
        assert not monitor.step(5, Transaction.noop()).skipped
        # a clock fault is skipped whichever way the step comes in
        assert monitor.step(5, Transaction.noop()).skipped
        bad = monitor.step_state(5, state)
        assert bad.skipped and bad.fault.kind == "clock"
        assert monitor.now == 5
        assert monitor.resilience.fault_counts == {"clock": 2}
        after = monitor.step_state(6, state)
        assert not after.skipped and after.index == 1

    def test_run_aggregates_skips(self, schema):
        monitor = make_monitor(schema, fault_policy="skip")
        report = monitor.run(
            [
                (1, ins("p", (1,))),
                (1, ins("p", (2,))),  # duplicate timestamp
                (4, ins("q", (1,))),
            ]
        )
        assert len(report) == 3
        assert len(report.skipped_steps) == 1
        assert len(report.checked_steps) == 2
        assert report.ok

    def test_record_fault_requires_policy(self, schema):
        monitor = make_monitor(schema)
        with pytest.raises(HistoryError, match="bad line"):
            monitor.record_fault("decode", "bad line")

    def test_record_fault_routed_through_policy(self, schema):
        monitor = make_monitor(schema, fault_policy="quarantine")
        report = monitor.record_fault("decode", "line 7: not json")
        assert report.skipped
        assert monitor.resilience.fault_counts == {"decode": 1}


class TestFaultMetrics:
    def test_fault_counters_reach_the_registry(self, schema, tmp_path):
        registry = MetricsRegistry()
        monitor = make_monitor(
            schema,
            fault_policy="quarantine",
            instrumentation=MonitorInstrumentation(None, registry),
        )
        monitor.step(1, ins("p", (1,)))
        monitor.step(0, ins("p", (2,)))
        monitor.step(2, Transaction({"nope": [(1,)]}))
        families = {name for name, _, _, _ in registry.families()}
        assert "repro_faults_total" in families
        assert "repro_quarantined_total" in families

    def test_fault_free_run_registers_no_fault_series(self, schema):
        # lazily registered: a clean run adds nothing to the registry
        registry = MetricsRegistry()
        monitor = make_monitor(
            schema,
            fault_policy="quarantine",
            instrumentation=MonitorInstrumentation(None, registry),
        )
        monitor.step(1, ins("p", (1,)))
        monitor.step(2, ins("q", (1,)))
        families = {name for name, _, _, _ in registry.families()}
        assert not any(f.startswith("repro_faults") for f in families)
        assert not any(f.startswith("repro_quarantined") for f in families)
