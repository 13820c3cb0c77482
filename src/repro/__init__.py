"""repro — real-time integrity constraints with bounded history encoding.

A from-scratch reproduction of Chomicki's *Real-Time Integrity
Constraints* (PODS 1992): metric past first-order temporal logic
constraints over database histories, checked incrementally in space
independent of the history length.

Quickstart::

    from repro import DatabaseSchema, Monitor, Transaction

    schema = (DatabaseSchema.builder()
              .relation("borrowed", [("patron", "str"), ("book", "int")])
              .relation("returned", [("patron", "str"), ("book", "int")])
              .build())

    monitor = Monitor(schema)
    monitor.add_constraint(
        "return-window",
        "FORALL p, b. returned(p, b) -> ONCE[0,14] borrowed(p, b)",
    )
    report = monitor.step(
        1, Transaction.builder().insert("borrowed", ("ann", 7)).build()
    )
    assert report.ok

See ``examples/`` for runnable end-to-end scenarios and DESIGN.md for
the system inventory.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.core import (
        ActiveDomainChecker,
        Constraint,
        DelayedChecker,
        HistoryEvaluator,
        IncrementalChecker,
        Interval,
        Monitor,
        NaiveChecker,
        RunReport,
        StepReport,
        Violation,
        builder,
        check_safe,
        is_safe,
        normalize,
        parse,
        parse_constraints,
    )
    from repro.db import (
        DatabaseSchema,
        DatabaseState,
        Domain,
        Relation,
        RelationSchema,
        Table,
        Transaction,
        TransactionBuilder,
    )
    from repro.obs import (
        Instrumentation,
        MetricsRegistry,
        MonitorInstrumentation,
        Tracer,
    )
    from repro.errors import (
        HandlerError,
        MonitorError,
        ParseError,
        RecoveryError,
        ReproError,
        SchemaError,
        TimeError,
        UnsafeFormulaError,
    )
    from repro.ingest import (
        IngestPipeline,
        IngestQueue,
        Reorderer,
        RetryPolicy,
        RetryingSource,
    )
    from repro.resilience import FaultPolicy, QuarantineLog, StepBudget
    from repro.temporal import Clock, History, StreamGenerator, UpdateStream

__version__ = "1.0.0"

__all__ = [
    "ActiveDomainChecker",
    "Clock",
    "Constraint",
    "DatabaseSchema",
    "DelayedChecker",
    "DatabaseState",
    "Domain",
    "FaultPolicy",
    "HandlerError",
    "History",
    "HistoryEvaluator",
    "IncrementalChecker",
    "IngestPipeline",
    "IngestQueue",
    "Instrumentation",
    "Interval",
    "MetricsRegistry",
    "Monitor",
    "MonitorError",
    "MonitorInstrumentation",
    "NaiveChecker",
    "ParseError",
    "QuarantineLog",
    "RecoveryError",
    "Relation",
    "RelationSchema",
    "Reorderer",
    "ReproError",
    "RetryPolicy",
    "RetryingSource",
    "RunReport",
    "SchemaError",
    "StepBudget",
    "StepReport",
    "StreamGenerator",
    "Table",
    "TimeError",
    "Tracer",
    "Transaction",
    "TransactionBuilder",
    "UnsafeFormulaError",
    "UpdateStream",
    "Violation",
    "builder",
    "check_safe",
    "is_safe",
    "normalize",
    "parse",
    "parse_constraints",
]

lazy_surface(__name__, {
    "repro.core": (
        "ActiveDomainChecker", "Constraint", "DelayedChecker",
        "HistoryEvaluator", "IncrementalChecker", "Interval", "Monitor",
        "NaiveChecker", "RunReport", "StepReport", "Violation", "builder",
        "check_safe", "is_safe", "normalize", "parse", "parse_constraints",
    ),
    "repro.db": (
        "DatabaseSchema", "DatabaseState", "Domain", "Relation",
        "RelationSchema", "Table", "Transaction", "TransactionBuilder",
    ),
    "repro.obs": (
        "Instrumentation", "MetricsRegistry", "MonitorInstrumentation",
        "Tracer",
    ),
    "repro.errors": (
        "HandlerError", "MonitorError", "ParseError", "RecoveryError",
        "ReproError", "SchemaError", "TimeError", "UnsafeFormulaError",
    ),
    "repro.ingest": (
        "IngestPipeline", "IngestQueue", "Reorderer", "RetryPolicy",
        "RetryingSource",
    ),
    "repro.resilience": ("FaultPolicy", "QuarantineLog", "StepBudget"),
    "repro.temporal": ("Clock", "History", "StreamGenerator", "UpdateStream"),
})
