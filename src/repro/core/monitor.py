"""The `Monitor` façade — the library's main entry point.

Wraps constraint registration, parsing, compilation, safety checking,
and an exchangeable checking engine behind one object::

    from repro import Monitor, Transaction

    monitor = Monitor(schema)
    monitor.add_constraint(
        "return-window",
        "FORALL p, b. returned(p, b) -> ONCE[0,14] borrowed(p, b)",
    )
    report = monitor.step(3, Transaction.builder()
                              .insert("borrowed", ("ann", 7)).build())
    assert report.ok

Engines:

* ``"incremental"`` (default) — the paper's bounded-history checker;
* ``"naive"`` — stores the history, re-evaluates from scratch each step;
* ``"naive-memo"`` — stores the history with cross-step memoisation;
* ``"active"`` — the ECA-rule (trigger) implementation over the active
  database substrate (:mod:`repro.active`);
* ``"adom"`` — prefix-active-domain semantics (:mod:`repro.core.adom`),
  which accepts constraints outside the safe-range fragment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core import ENGINES
from repro.core.checker import Constraint, IncrementalChecker
from repro.core.formulas import Formula
from repro.core.parser import parse, parse_constraints
from repro.core.violations import RunReport, StepReport
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import HandlerError, HistoryError, MonitorError
from repro.resilience.policy import (
    CHECKPOINTS_TOTAL,
    FAULT_ERRORS,
    JOURNAL_RECORDS_TOTAL,
    FaultPolicy,
    QuarantineLog,
    ResilienceRuntime,
    classify_fault,
    count_degraded,
)
from repro.temporal.clock import Timestamp
from repro.temporal.stream import UpdateStream

#: Engines whose per-constraint evaluation loop supports deadline
#: shedding (the active engine evaluates inside rule firings).
SHEDDING_ENGINES = ("incremental", "naive", "naive-memo", "adom")


class MonitorFacade:
    """What every monitor façade shares, whatever does the checking.

    Constraint-text registration, violation/alert handler registration
    with isolated dispatch, the fault policy and its out-of-band entry
    (:meth:`record_fault`), and ingestion (:meth:`feed`).  A subclass
    provides ``add_constraint``, ``step``, ``set_step_deadline``, an
    ``engine`` label and :meth:`_next_index`.
    """

    #: which engine does the checking (the subclass says)
    engine: str

    def __init__(
        self,
        schema: DatabaseSchema,
        instrumentation=None,
        fault_policy=None,
        quarantine_log=None,
    ):
        self.schema = schema
        self.instrumentation = instrumentation
        self.constraints: List[Constraint] = []
        self._violation_handlers: List = []
        self._alert_handlers: List = []
        self._resilience: Optional[ResilienceRuntime] = None
        self._ingest = None
        self.set_fault_policy(fault_policy, quarantine_log)

    def _metrics(self):
        """The metrics registry behind the instrumentation, if any."""
        return getattr(self.instrumentation, "metrics", None)

    @property
    def _series_engine(self) -> str:
        """The ``engine`` label of the fault series this façade writes."""
        return self.engine

    def _next_index(self) -> int:
        """Index the next applied step will get (skipped reports carry it)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # fault policy
    # ------------------------------------------------------------------

    def set_fault_policy(self, fault_policy, quarantine_log=None) -> None:
        """Install, replace, or (with neither argument) clear the policy.

        Args:
            fault_policy: a :class:`~repro.resilience.FaultPolicy` or
                its string name; ``None`` with a ``quarantine_log``
                means ``"quarantine"``.
            quarantine_log: optional
                :class:`~repro.resilience.QuarantineLog` or a path for
                one.

        Takes effect immediately, including on an already-built engine
        — the twin of ``set_step_deadline`` for monitors that were
        resumed or recovered rather than constructed.
        """
        if fault_policy is None and quarantine_log is None:
            self._resilience = None
            return
        if quarantine_log is not None and not isinstance(
            quarantine_log, QuarantineLog
        ):
            quarantine_log = QuarantineLog(quarantine_log)
        if fault_policy is None:
            fault_policy = FaultPolicy.QUARANTINE
        self._resilience = ResilienceRuntime(
            fault_policy,
            quarantine=quarantine_log,
            metrics=self._metrics(),
            engine=self._series_engine,
        )

    @property
    def resilience(self):
        """The fault-handling runtime (None when no policy is set)."""
        return self._resilience

    def _absorb_fault(self, kind: str, error, time, payload) -> StepReport:
        """Apply the fault policy to one fault; the skipped report."""
        resilience = self._resilience
        assert resilience is not None  # callers raise without a policy
        return resilience.handle(
            kind, error, time, payload, self._next_index()
        )

    def record_fault(
        self,
        kind: str,
        reason: str,
        time: Optional[Timestamp] = None,
        payload=None,
    ) -> StepReport:
        """Report an out-of-band fault (e.g. an unparseable stream line).

        For callers that decode the stream themselves — such as the CLI
        reading a history file leniently — and hit records that never
        become a transaction at all.  Routed through the same fault
        policy as step-boundary faults, so it raises under ``fail_fast``
        (or with no policy configured).
        """
        error = HistoryError(reason)
        if self._resilience is None:
            raise error
        return self._absorb_fault(
            classify_fault(error) if kind is None else kind,
            error,
            time,
            payload,
        )

    # ------------------------------------------------------------------
    # registration and dispatch
    # ------------------------------------------------------------------

    def add_constraint(
        self, name: str, formula: Union[str, Formula]
    ) -> Constraint:
        """Register one constraint (text or formula) before stepping."""
        raise NotImplementedError

    def add_constraints_text(self, text: str) -> List[Constraint]:
        """Register a whole constraint file (``[name :] formula ; ...``)."""
        return [
            self.add_constraint(name, formula)
            for name, formula in parse_constraints(text)
        ]

    def on_violation(self, handler) -> None:
        """Register ``handler(violation)`` to run on every violation.

        Handlers fire synchronously inside ``step``/``run``, in
        registration order — the hook for alerting, journaling, or
        compensation logic.  Each handler call is isolated: a raising
        handler can neither mask the step's report nor skip the
        handlers after it.  Collected failures are re-raised as one
        :class:`~repro.errors.HandlerError` after dispatch (monitoring
        must not silently drop reactions) — unless a ``skip`` or
        ``quarantine`` fault policy is active, in which case they are
        counted and dead-lettered instead.
        """
        self._violation_handlers.append(handler)

    def on_alert(self, handler) -> None:
        """Register ``handler(alert)`` to run on every alert.

        Alerts fire synchronously inside ``step`` — the same channel
        discipline as :meth:`on_violation`, including handler
        isolation.  What an alert is depends on the façade:
        :class:`~repro.obs.slo.SLOAlert` /
        :class:`~repro.obs.statewatch.StateAlert` instances from a
        ``Monitor``, shard crash/stall/tombstone
        :class:`~repro.resilience.FaultRecord` s from a
        ``ShardedMonitor``.
        """
        self._alert_handlers.append(handler)

    def _dispatch(self, report: StepReport) -> StepReport:
        failures = []
        for violation in report.violations:
            for handler in self._violation_handlers:
                try:
                    handler(violation)
                except Exception as exc:  # noqa: BLE001 — isolation point
                    failures.append((violation, exc))
        if failures:
            resilience = self._resilience
            if resilience is not None and resilience.policy.value != "fail_fast":
                resilience.handle_handler_failures(report, failures)
            else:
                raise HandlerError(report, failures) from failures[0][1]
        return report

    def _emit_alerts(self, alerts) -> None:
        if not alerts or not self._alert_handlers:
            return
        failures = []
        for alert in alerts:
            for handler in self._alert_handlers:
                try:
                    handler(alert)
                except Exception as exc:  # noqa: BLE001 — isolation point
                    failures.append((alert, exc))
        if failures:
            raise HandlerError(alerts, failures) from failures[0][1]

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    @property
    def ingest(self):
        """The last :class:`~repro.ingest.IngestPipeline` fed (or None)."""
        return self._ingest

    def feed(
        self,
        sources,
        watermark: int = 0,
        max_lateness: Optional[int] = None,
        skew=None,
        retry=None,
        queue_capacity: int = 1024,
        backpressure: str = "block",
        consumer_rate: Optional[int] = None,
        pressure_deadline: Optional[float] = None,
        urgent: Sequence[str] = (),
        max_buffer: int = 4096,
    ) -> RunReport:
        """Pull from unordered, unreliable sources until they run dry.

        The ingestion counterpart of ``run``: where ``run`` demands
        a clean, strictly-increasing stream, ``feed`` accepts a list of
        :class:`~repro.ingest.Source`-likes (any iterable of
        ``(time, txn)`` pairs qualifies) and hardens the boundary — a
        watermark reorderer absorbs disorder up to ``watermark`` clock
        units, normalises per-source ``skew``, deduplicates replays,
        and dead-letters too-late events; flaky sources are retried
        per ``retry``; a bounded queue applies ``backpressure``.  See
        :class:`~repro.ingest.IngestPipeline` for every knob, and
        :attr:`ingest` for the accounting after the run.
        """
        from repro.ingest import IngestPipeline

        pipeline = IngestPipeline(
            self,
            sources,
            watermark=watermark,
            max_lateness=max_lateness,
            skew=skew,
            retry=retry,
            queue_capacity=queue_capacity,
            backpressure=backpressure,
            consumer_rate=consumer_rate,
            pressure_deadline=pressure_deadline,
            urgent=urgent,
            max_buffer=max_buffer,
        )
        self._ingest = pipeline
        return pipeline.run()


class Monitor(MonitorFacade):
    """Registers constraints and checks them over an update stream."""

    def __init__(
        self,
        schema: DatabaseSchema,
        engine: str = "incremental",
        initial: Optional[DatabaseState] = None,
        instrumentation=None,
        fault_policy=None,
        quarantine_log=None,
        step_deadline=None,
        urgent: Sequence[str] = (),
        strict: bool = False,
        lint_config=None,
    ):
        """Args:
            schema: the database schema.
            engine: one of :data:`ENGINES`.
            initial: base state the first transaction applies to.
            instrumentation: optional
                :class:`repro.obs.instrument.Instrumentation` (e.g. a
                :class:`repro.obs.instrument.MonitorInstrumentation`)
                receiving runtime telemetry from the engine; ``None``
                (default) disables all hooks.
            fault_policy: optional
                :class:`~repro.resilience.FaultPolicy` (or its string
                name): ``"fail_fast"``, ``"skip"``, or ``"quarantine"``.
                ``None`` (default) leaves the fault boundary open —
                faults raise.
            quarantine_log: optional
                :class:`~repro.resilience.QuarantineLog` or a path for
                one; implies ``fault_policy="quarantine"`` when no
                policy is given.
            step_deadline: optional per-step evaluation budget — either
                seconds (a float) or a prepared
                :class:`~repro.resilience.StepBudget`.  When a step
                exceeds it, non-urgent constraint evaluations are shed
                and the step is reported ``degraded``.  Supported by
                the :data:`SHEDDING_ENGINES`.
            urgent: constraint names never shed under deadline pressure
                (only meaningful with ``step_deadline`` seconds).
            strict: lint each constraint at registration and reject it
                with :class:`~repro.errors.LintError` when the linter
                reports an error-severity diagnostic (see
                :mod:`repro.lint`).
            lint_config: optional
                :class:`~repro.lint.LintConfig` used by ``strict``
                registration; defaults to the standard configuration
                (with the safe-range rule disabled for the ``adom``
                engine, which evaluates outside the safe fragment).
        """
        if engine not in ENGINES:
            raise MonitorError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        self.engine = engine
        super().__init__(
            schema, instrumentation, fault_policy, quarantine_log
        )
        self.initial = initial
        self.strict = strict
        self.lint_config = lint_config
        self._checker = None
        self._journal = None
        self._budget = None
        self._telemetry = None
        self._statewatch = None
        if step_deadline is not None:
            self.set_step_deadline(step_deadline, urgent)

    # ------------------------------------------------------------------
    # resilience configuration
    # ------------------------------------------------------------------

    def _publish_sharing_metrics(self) -> None:
        """Expose the checker's subformula-dedup accounting as gauges.

        Called wherever a metrics registry meets a built incremental
        checker: when the checker is built under instrumentation, and
        when :meth:`instrument` reaches one that already exists (a
        resumed or recovered monitor, or a late attach).
        """
        metrics = self._metrics()
        if metrics is None or self.engine != "incremental":
            return
        stats = self._checker.sharing_stats()
        metrics.gauge(
            "repro_aux_classes",
            help="auxiliary states maintained (equivalence classes)",
            engine=self.engine,
        ).set(stats["classes"])
        metrics.gauge(
            "repro_aux_shared_nodes",
            help="temporal nodes served by another class member's state",
            engine=self.engine,
        ).set(stats["shared_nodes"])
        metrics.gauge(
            "repro_aux_dedup_ratio",
            help="maintained auxiliary states over distinct temporal "
                 "nodes (1.0 = nothing shared)",
            engine=self.engine,
        ).set(stats["dedup_ratio"])

    def set_step_deadline(self, step_deadline, urgent: Sequence[str] = ()):
        """Install, replace, or (with ``None``) clear the step budget.

        Takes effect immediately, including on an already-built engine —
        the hook the ingest pipeline uses to arm a tighter deadline
        while its queue runs hot and disarm it once the backlog drains.
        """
        if step_deadline is not None:
            from repro.resilience import StepBudget

            if self.engine not in SHEDDING_ENGINES:
                raise MonitorError(
                    f"step deadlines require an engine with a sheddable "
                    f"evaluation loop {SHEDDING_ENGINES}, not {self.engine!r}"
                )
            if not isinstance(step_deadline, StepBudget):
                step_deadline = StepBudget(step_deadline, urgent=urgent)
            if step_deadline.telemetry is None:
                step_deadline.telemetry = self._telemetry
        self._budget = step_deadline
        if self._checker is not None:
            self._checker.budget = step_deadline

    def enable_telemetry(self, slo=None, clock=None):
        """Attach end-to-end event-time telemetry (and, optionally, SLOs).

        Stamps every event through the arrival → reorder-release →
        check → verdict path into per-stage latency histograms (see
        :class:`~repro.obs.telemetry.EventTimeTelemetry`), samples
        frontier lag and queue pressure continuously, and — when
        ``slo`` is given — evaluates burn-rate alert rules on every
        verdict, routing fired alerts to :meth:`on_alert` handlers.

        Args:
            slo: anything :func:`repro.obs.slo.coerce_slo_engine`
                accepts — an :class:`~repro.obs.slo.SLOEngine`, specs,
                an SLO document dict, or a path to an SLO file.
            clock: optional wall-clock source (tests inject a fake).

        Must be called before the first step/feed; the pipeline and
        step path pick the telemetry up when they start.  The metric
        families land in the instrumentation's registry when one is
        attached (otherwise in the telemetry's own registry).
        """
        from repro.obs.slo import coerce_slo_engine
        from repro.obs.telemetry import EventTimeTelemetry

        if self._telemetry is not None:
            raise MonitorError("telemetry is already enabled")
        kwargs = {} if clock is None else {"clock": clock}
        self._telemetry = EventTimeTelemetry(
            metrics=self._metrics(), slo=coerce_slo_engine(slo), **kwargs
        )
        if self._budget is not None:
            self._budget.telemetry = self._telemetry
        return self._telemetry

    def enable_statewatch(
        self,
        sample_every: int = 8,
        leak_window: int = 32,
        leak_slope: float = 1.0,
        top_k: int = 8,
        flight=None,
        flight_capacity: int = 256,
    ):
        """Attach the state observatory (and, optionally, a flight box).

        After every step, measures the engine's auxiliary state per
        temporal subformula (via the uniform
        :mod:`~repro.core.statespace` protocol), compares it against
        the analytic per-node bound of
        :func:`repro.core.bounds.node_tuple_bound`, and tracks growth
        and heavy-hitter valuations.  Fired
        :class:`~repro.obs.statewatch.StateAlert` bound/leak alerts
        route to :meth:`on_alert` handlers — the same channel as SLO
        alerts, including handler isolation.

        Args:
            sample_every: cadence (steps) of the expensive work (deep
                byte sizes, sketch updates, metric exports); the bound
                and leak rules run every step regardless.
            leak_window: sliding window (steps) of the growth rule.
            leak_slope: tuples/step slope at which the leak rule fires.
            top_k: heavy-hitter valuations retained per node.
            flight: optional flight recorder — a
                :class:`~repro.obs.flight.FlightRecorder` or a path to
                dump ``repro-flight/1`` artifacts at.
            flight_capacity: ring size when ``flight`` is a path.

        Returns:
            The attached :class:`~repro.obs.statewatch.StateWatch`.
        """
        from repro.obs.flight import FlightRecorder
        from repro.obs.statewatch import StateWatch

        if self._statewatch is not None:
            raise MonitorError("statewatch is already enabled")
        if flight is not None and not isinstance(flight, FlightRecorder):
            flight = FlightRecorder(flight, capacity=flight_capacity)
        self._statewatch = StateWatch(
            metrics=self._metrics(),
            sample_every=sample_every,
            leak_window=leak_window,
            leak_slope=leak_slope,
            top_k=top_k,
            flight=flight,
        )
        return self._statewatch

    def health(self):
        """The monitor's current state as a mergeable health snapshot.

        A versioned JSON-able dict (``repro-health/1``) aggregating
        stage latencies, frontier lag, ingest/fault/shed accounting,
        journal age, and SLO budget state; see
        :func:`repro.obs.health.build_health`.  Snapshots from N
        shards fold into one with
        :func:`repro.obs.health.merge_health`.
        """
        from repro.obs.health import build_health

        return build_health(self)

    @property
    def telemetry(self):
        """The attached event-time telemetry (None when disabled)."""
        return self._telemetry

    @property
    def statewatch(self):
        """The attached state observatory (None when disabled)."""
        return self._statewatch

    @property
    def journal(self):
        """The attached :class:`~repro.core.persist.RunJournal`, if any."""
        return self._journal

    @property
    def budget(self):
        """The per-step :class:`~repro.resilience.StepBudget`, if any."""
        return self._budget

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def add_constraint(
        self, name: str, formula: Union[str, Formula]
    ) -> Constraint:
        """Register one constraint (text or formula) before stepping.

        Compilation (normalisation + safety check + schema validation)
        happens immediately, so unsafe or mistyped constraints fail
        fast with a diagnostic rather than at the first step.
        """
        if self._checker is not None:
            raise MonitorError(
                "constraints must be registered before the first step"
            )
        if any(c.name == name for c in self.constraints):
            raise MonitorError(f"duplicate constraint name {name!r}")
        if isinstance(formula, str):
            formula = parse(formula)
        if self.strict:
            self._lint_registration(name, formula)
        constraint = Constraint(
            name, formula, require_safe=self.engine != "adom"
        )
        constraint.validate_schema(self.schema)
        if self.engine == "adom":
            from repro.core.adom import check_adom_compatible

            check_adom_compatible(constraint.violation_formula)
        self.constraints.append(constraint)
        return constraint

    def _lint_registration(self, name: str, formula: Formula) -> None:
        """Strict-mode gate: reject ``formula`` on lint errors.

        The whole registered set plus the newcomer is linted so
        cross-constraint rules (duplicates) see the new constraint in
        context; previously accepted constraints cannot re-fail, since
        they passed the same gate.
        """
        from repro.lint import LintConfig
        from repro.lint.linter import reject_lint_errors

        config = self.lint_config
        if config is None and self.engine == "adom":
            config = LintConfig(disabled=frozenset({"RTC004"}))
        pairs = [(c.name, c.formula) for c in self.constraints]
        pairs.append((name, formula))
        reject_lint_errors(self.schema, pairs, config)

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------

    @property
    def checker(self):
        """The underlying engine (created lazily at first use)."""
        if self._checker is None:
            self._checker = self._build_checker()
            self._publish_sharing_metrics()
            if self._budget is not None:
                self._checker.budget = self._budget
        return self._checker

    def _build_checker(self):
        if self.engine == "incremental":
            return IncrementalChecker(
                self.schema, self.constraints, initial=self.initial,
                instrumentation=self.instrumentation,
            )
        if self.engine in ("naive", "naive-memo"):
            from repro.core.naive import NaiveChecker

            return NaiveChecker(
                self.schema, self.constraints, initial=self.initial,
                memoize=self.engine == "naive-memo",
                instrumentation=self.instrumentation,
            )
        if self.engine == "active":
            from repro.active.compiler import ActiveChecker

            return ActiveChecker(
                self.schema, self.constraints, initial=self.initial,
                instrumentation=self.instrumentation,
            )
        from repro.core.adom import ActiveDomainChecker

        return ActiveDomainChecker(
            self.schema, self.constraints, initial=self.initial,
            instrumentation=self.instrumentation,
        )

    def instrument(self, instrumentation) -> None:
        """Attach (or detach, with ``None``) runtime instrumentation.

        Takes effect immediately, including on an already-built engine —
        the hook for resuming from a checkpoint and for toggling
        telemetry mid-run.
        """
        self.instrumentation = instrumentation
        if self._resilience is not None:
            self._resilience.metrics = self._metrics()
        if self._checker is not None:
            self._checker.instrumentation = instrumentation
            engine = getattr(self._checker, "engine", None)
            if engine is not None and hasattr(engine, "instrumentation"):
                engine.instrumentation = instrumentation
            self._publish_sharing_metrics()

    def step(self, time: Timestamp, txn: Transaction) -> StepReport:
        """Apply one transaction at ``time`` and check all constraints.

        With a fault policy configured, input faults (schema,
        transaction, clock, malformed payloads) are intercepted here —
        the step boundary — and skipped or quarantined instead of
        raising; the checker is untouched by a faulted step because
        every engine validates before mutating.
        """
        return self._step(time, txn, False)

    def step_state(self, time: Timestamp, state: DatabaseState) -> StepReport:
        """Record a full successor state at ``time`` and check."""
        if self._journal is not None:
            raise MonitorError(
                "step_state cannot be journaled (the journal records "
                "transactions); derive a transaction and use step()"
            )
        return self._step(time, state, True)

    def run(self, stream: Union[UpdateStream, Sequence]) -> RunReport:
        """Process a whole update stream; return the aggregate report."""
        report = RunReport()
        for time, txn in stream:
            report.add(self._step(time, txn, False))
        return report

    def _step(self, time: Timestamp, update, as_state: bool) -> StepReport:
        """The one path every step takes, a stage per configured feature.

        telemetry begin -> fault boundary around the engine call ->
        journal append -> budget note -> handler dispatch -> telemetry
        verdict -> statewatch.  ``update`` is a transaction, or with
        ``as_state`` the successor state itself.  The journal is
        appended to before handlers run so that a step whose handler
        raises is already durable: recovery replays it instead of
        losing a state the checker has moved past.
        """
        telemetry = self._telemetry
        if telemetry is not None:
            try:
                telemetry.check_begin(time)
            except TypeError:  # unhashable timestamp — the boundary's job
                telemetry = None
        resilience = self._resilience
        checker = self.checker
        tracer = None
        if resilience is not None:
            # an absorbed step must not leave its trace spans open
            tracer = getattr(self.instrumentation, "tracer", None)
            depth = tracer.open_spans if tracer is not None else 0
        try:
            if as_state:
                report = checker.step_state(time, update)
            else:
                if resilience is not None and not isinstance(
                    update, Transaction
                ):
                    raise HistoryError(
                        f"stream element at t={time!r} is not a "
                        f"Transaction but {type(update).__name__}"
                    )
                report = checker.step(time, update)
        except FAULT_ERRORS as exc:
            if resilience is None:
                raise
            if tracer is not None:
                while tracer.open_spans > depth:
                    tracer.end(error=type(exc).__name__)
            report = self._absorb_fault(
                classify_fault(exc), exc, time, update
            )
        else:
            if self._journal is not None:
                self._journal_record(time, update, checker)
            if report.deferred:
                if resilience is not None:
                    resilience.note_step(report)
                else:
                    count_degraded(self._metrics(), self.engine, report)
            if self._violation_handlers:
                self._dispatch(report)
        if telemetry is not None:
            self._emit_alerts(telemetry.verdict(time, report))
        if self._statewatch is not None:
            self._emit_alerts(self._statewatch.observe(checker, report))
        return report

    def _next_index(self) -> int:
        return self.checker.steps_processed

    def _journal_record(
        self, time: Timestamp, txn: Transaction, checker
    ) -> None:
        checkpointed = self._journal.record(time, txn, checker)
        # ``self._metrics()`` without its frame: this runs per record
        metrics = getattr(self.instrumentation, "metrics", None)
        if metrics is not None:
            metrics.counter(
                JOURNAL_RECORDS_TOTAL,
                help="Steps appended to the run journal",
                engine=self.engine,
            ).inc()
            if checkpointed:
                metrics.counter(
                    CHECKPOINTS_TOTAL,
                    help="Automatic checkpoints written",
                    engine=self.engine,
                ).inc()

    @property
    def now(self) -> Optional[Timestamp]:
        """Timestamp of the last processed state (None before any)."""
        return self.checker.now if self._checker is not None else None

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def enable_journal(
        self, directory, checkpoint_every: int = 64, sync=False,
        backend="segment", cold="auto", failpoints=(),
    ):
        """Journal every applied step under ``directory``.

        Writes an initial checkpoint immediately, appends each
        successfully applied ``(time, transaction)`` as a checksummed
        framed record to the store backend, and rewrites the
        checkpoint (atomically, rotating the journal segment) every
        ``checkpoint_every`` steps.  After a crash,
        :meth:`Monitor.recover` restores the newest usable checkpoint
        and replays the journal tail.

        ``sync`` selects the durability level: ``False`` flush-only
        (survives process kills), ``True`` fsync at every record and
        rotation boundary (host-crash durability — the shard workers'
        default; honours the ``REPRO_FSYNC=off`` escape hatch), or
        ``"force"`` to fsync regardless of the environment (chaos and
        durability jobs).  ``backend``/``cold``/``failpoints`` are
        passed to :class:`~repro.core.persist.RunJournal`: the durable
        segment store (default, with ``cold="auto"`` spilling
        unbounded-operator anchors to its SQLite tier) or an in-memory
        store.  Incremental engine only, like :meth:`save`.
        """
        from repro.core.persist import RunJournal

        if self.engine != "incremental":
            raise MonitorError(
                f"journaling requires the incremental engine, "
                f"not {self.engine!r}"
            )
        if self._journal is not None:
            raise MonitorError("a journal is already attached")
        journal = RunJournal(
            directory, checkpoint_every=checkpoint_every, sync=sync,
            backend=backend, cold=cold, failpoints=failpoints,
        )
        journal.attach(self.checker)
        self._journal = journal
        return journal

    def checkpoint(self) -> None:
        """Force a checkpoint now (requires :meth:`enable_journal`)."""
        if self._journal is None:
            raise MonitorError(
                "no journal attached to this monitor; call "
                "enable_journal(directory) before checkpoint()"
            )
        try:
            self._journal.checkpoint(self.checker)
        except OSError as exc:
            raise MonitorError(
                f"cannot checkpoint journal directory "
                f"{self._journal.directory}: {exc}"
            ) from exc

    @classmethod
    def recover(cls, directory, resume_journal: bool = True,
                sync=False, checkpoint_every: int = 64,
                backend="segment", cold="auto"):
        """Rebuild a monitor after a crash from checkpoint + journal.

        Restores the newest usable checkpoint under ``directory``
        (falling back to the retained previous generation when the
        current one fails its checksums), replays the journal tail on
        top — truncating leniently at the first damaged record, see
        :attr:`~repro.core.persist.RecoveryResult.torn_records` — and
        (by default) re-attaches the journal so monitoring continues
        exactly where the killed process stopped (``sync``/``backend``/
        ``cold`` select the re-attached journal's configuration).

        Returns:
            ``(monitor, result)`` where ``result`` is the
            :class:`~repro.core.persist.RecoveryResult` describing what
            was restored and replayed.
        """
        from repro.core.persist import recover as recover_run

        result = recover_run(directory)
        monitor = cls._around(result.checker)
        if resume_journal:
            monitor.enable_journal(
                directory, checkpoint_every=checkpoint_every,
                sync=sync, backend=backend, cold=cold,
            )
        return monitor, result

    @classmethod
    def _around(cls, checker: IncrementalChecker) -> "Monitor":
        """A monitor whose engine is the restored ``checker``."""
        monitor = cls(checker.schema, engine="incremental")
        monitor.constraints = list(checker.constraints)
        monitor._checker = checker
        return monitor

    def save(self, path) -> None:
        """Write a checkpoint of the monitoring run to ``path``.

        Only the incremental engine supports checkpointing (its state
        is the small bounded encoding; the naive engines' state is the
        whole history, which defeats the point).
        """
        from repro.core.persist import save_checker

        if self.engine != "incremental":
            raise MonitorError(
                f"checkpointing requires the incremental engine, "
                f"not {self.engine!r}"
            )
        save_checker(self.checker, path)

    @classmethod
    def resume(cls, path) -> "Monitor":
        """Restore a monitor from a checkpoint written by :meth:`save`."""
        from repro.core.persist import load_checker

        return cls._around(load_checker(path))

    def __repr__(self) -> str:
        return (
            f"Monitor({len(self.constraints)} constraint(s), "
            f"engine={self.engine!r})"
        )
