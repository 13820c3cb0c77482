"""Fault tolerance for long-running monitors.

The paper pitches the bounded-history checker as a *long-running*
process — precisely the process that must survive bad inputs, crashes,
and overload without losing its (deliberately small) auxiliary state.
This package supplies the three layers, all threaded through
:class:`~repro.core.monitor.Monitor`:

* **fault policies** (:mod:`repro.resilience.policy`) — ``fail_fast`` /
  ``skip`` / ``quarantine`` handling of schema, transaction, and clock
  faults (and raising violation handlers) at the step boundary, with a
  JSONL dead-letter :class:`QuarantineLog` and fault counters in the
  standard metrics registry::

      monitor = Monitor(schema, fault_policy="quarantine")
      monitor.run(dirty_stream)            # never raises on bad input
      monitor.resilience.summary()         # what was skipped and why

* **overload degradation** (:mod:`repro.resilience.degrade`) — a
  per-step deadline budget (:class:`StepBudget`) that sheds non-urgent
  constraint evaluations and marks steps ``degraded``;

* **chaos engineering** (:mod:`repro.resilience.chaos`) — seeded fault
  injection (:func:`inject_faults`), simulated kills
  (:func:`run_until_crash`), and delivery perturbation for the ingest
  frontier (:func:`plan_ingest_chaos`: disorder, duplication, skew),
  used by the chaos test suites to prove ``recover ∘ crash ≡
  uninterrupted run`` and ``ingest ∘ perturb ≡ clean run``.

Journaled auto-checkpointing and crash recovery live next to the
checkpoint format in :mod:`repro.core.persist`
(:class:`~repro.core.persist.RunJournal`,
:func:`~repro.core.persist.recover`); ``Monitor.enable_journal`` and
``Monitor.recover`` wire them up.  See ``docs/robustness.md`` for the
full walkthrough.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.core.persist import RecoveryResult, RunJournal, recover
    from repro.resilience.chaos import (
        FAULT_KINDS,
        ROTATION_FAILPOINTS,
        SHARD_FAULT_MODES,
        STORAGE_FAULT_KINDS,
        FaultyStream,
        IngestChaosPlan,
        InjectedFault,
        ShardChaosPlan,
        SimulatedCrash,
        StorageChaosPlan,
        assert_lint_clean,
        crash_after,
        disorder_arrivals,
        duplicate_arrivals,
        inject_faults,
        inject_storage_faults,
        plan_ingest_chaos,
        plan_shard_chaos,
        plan_storage_chaos,
        run_until_crash,
        split_sources,
    )
    from repro.resilience.degrade import StepBudget
    from repro.resilience.policy import (
        FAULT_ERRORS,
        FaultPolicy,
        FaultRecord,
        QuarantineLog,
        ResilienceRuntime,
        classify_fault,
    )

__all__ = [
    "FAULT_ERRORS",
    "FAULT_KINDS",
    "FaultPolicy",
    "FaultRecord",
    "FaultyStream",
    "IngestChaosPlan",
    "InjectedFault",
    "QuarantineLog",
    "ROTATION_FAILPOINTS",
    "RecoveryResult",
    "ResilienceRuntime",
    "RunJournal",
    "SHARD_FAULT_MODES",
    "STORAGE_FAULT_KINDS",
    "ShardChaosPlan",
    "SimulatedCrash",
    "StepBudget",
    "StorageChaosPlan",
    "assert_lint_clean",
    "classify_fault",
    "crash_after",
    "disorder_arrivals",
    "duplicate_arrivals",
    "inject_faults",
    "inject_storage_faults",
    "plan_ingest_chaos",
    "plan_shard_chaos",
    "plan_storage_chaos",
    "recover",
    "run_until_crash",
    "split_sources",
]

lazy_surface(__name__, {
    "repro.core.persist": ("RecoveryResult", "RunJournal", "recover"),
    "repro.resilience.chaos": (
        "FAULT_KINDS", "ROTATION_FAILPOINTS", "SHARD_FAULT_MODES",
        "STORAGE_FAULT_KINDS", "FaultyStream", "IngestChaosPlan",
        "InjectedFault", "ShardChaosPlan", "SimulatedCrash",
        "StorageChaosPlan", "assert_lint_clean", "crash_after",
        "disorder_arrivals", "duplicate_arrivals", "inject_faults",
        "inject_storage_faults", "plan_ingest_chaos", "plan_shard_chaos",
        "plan_storage_chaos", "run_until_crash", "split_sources",
    ),
    "repro.resilience.degrade": ("StepBudget",),
    "repro.resilience.policy": (
        "FAULT_ERRORS", "FaultPolicy", "FaultRecord", "QuarantineLog",
        "ResilienceRuntime", "classify_fault",
    ),
})
