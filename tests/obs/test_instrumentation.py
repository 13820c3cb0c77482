"""Instrumentation threaded through every engine, and its cost when off.

Two contracts pinned here:

* every engine in :data:`~repro.core.monitor.ENGINES` drives the same
  hook vocabulary (balanced spans, per-constraint evaluations, step
  metrics) through :class:`MonitorInstrumentation`;
* a monitor with instrumentation *disabled* emits nothing, and the
  per-step hook traffic when enabled is bounded (asserted via a
  counting no-op double), so the disabled fast path stays cheap.
"""

import pytest

from repro.core.monitor import ENGINES
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    MonitorInstrumentation,
    Tracer,
)
from repro.obs.instrument import (
    EVAL_SECONDS,
    STEP_SECONDS,
    STEPS_TOTAL,
    VIOLATIONS_TOTAL,
)
from repro.workloads import library_workload

from .test_tracer import fake_clock

STEPS = 40


class CountingInstrumentation(Instrumentation):
    """No-op double that counts hook invocations per kind."""

    def __init__(self):
        self.calls = {}

    def _note(self, hook):
        self.calls[hook] = self.calls.get(hook, 0) + 1

    def step_begin(self, engine, time, txn_rows):
        self._note("step_begin")

    def apply_done(self, engine, time, seconds):
        self._note("apply_done")

    def aux_advanced(self, engine, node, seconds, tuples):
        self._note("aux_advanced")

    def rule_fired(self, engine, rule, time, seconds):
        self._note("rule_fired")

    def constraint_checked(self, engine, constraint, seconds,
                           violations, aux_tuples):
        self._note("constraint_checked")

    def step_end(self, engine, time, seconds, violations, aux_tuples):
        self._note("step_end")


class RecordingInstrumentation(Instrumentation):
    """Double that records every hook call: the hook's name, the engine
    label, the names it was given and the *kind* of every other
    argument (values such as durations differ run to run)."""

    def __init__(self):
        self.calls = []

    def _record(self, hook, engine, *args):
        self.calls.append((hook, engine) + tuple(
            arg if isinstance(arg, str) else type(arg).__name__
            for arg in args
        ))

    def step_begin(self, engine, time, txn_rows):
        self._record("step_begin", engine, time, txn_rows)

    def apply_done(self, engine, time, seconds):
        self._record("apply_done", engine, time, seconds)

    def aux_advanced(self, engine, node, seconds, tuples):
        self._record("aux_advanced", engine, node, seconds, tuples)

    def rule_fired(self, engine, rule, time, seconds):
        self._record("rule_fired", engine, rule, time, seconds)

    def constraint_checked(self, engine, constraint, seconds,
                           violations, aux_tuples):
        self._record("constraint_checked", engine, constraint, seconds,
                     violations, aux_tuples)

    def step_end(self, engine, time, seconds, violations, aux_tuples):
        self._record("step_end", engine, time, seconds, violations,
                     aux_tuples)


#: the sensors workload's temporal nodes, bottom-up, and constraints
SENSOR_NODES = (
    "ONCE[0,10] reading(s, 2)",
    "((EXISTS l. (reading(s, l) AND l >= 1)) SINCE[5,*] reading(s, 2))",
    "ONCE[1,3] maintenance(s)",
)
SENSOR_CONSTRAINTS = ("alarm-justified", "sustained-high", "cooldown")


def pinned_step(engine):
    """One step's hook calls on the sensors workload, as recorded from
    every engine before the engines shared a step template."""
    begin = ("step_begin", engine, "int", "int")
    applied = ("apply_done", engine, "int", "float")
    end = ("step_end", engine, "int", "float", "int", "int")
    advanced = [
        ("aux_advanced", engine, node, "float", "int")
        for node in SENSOR_NODES
    ]
    # the naive engines keep no per-constraint auxiliary store
    footprint = "NoneType" if engine.startswith("naive") else "int"
    checked = [
        ("constraint_checked", engine, name, "float", "int", footprint)
        for name in SENSOR_CONSTRAINTS
    ]
    if engine == "active":
        # maintenance and the check are rule firings inside the commit:
        # no separate apply phase, no aux_advanced
        fired = [
            ("rule_fired", engine, f"maintain-aux{i}", "int", "float")
            for i in range(len(SENSOR_NODES))
        ]
        check_rule = ("rule_fired", engine, "check-constraints",
                      "int", "float")
        return [begin, *fired, *checked, check_rule, end]
    if engine.startswith("naive"):
        return [begin, applied, *checked, end]
    return [begin, applied, *advanced, *checked, end]


def run_engine(engine, instrumentation, steps=STEPS):
    workload = library_workload(violation_rate=0.2)
    monitor = workload.monitor(engine)
    monitor.instrument(instrumentation)
    for time, txn in workload.stream(steps, seed=11):
        monitor.step(time, txn)
    return monitor


@pytest.mark.parametrize("engine", ENGINES)
class TestEveryEngine:
    def test_trace_spans_balance_and_cover_constraints(self, engine):
        tracer = Tracer(clock=fake_clock(step=0.001))
        run_engine(engine, MonitorInstrumentation(tracer=tracer))
        assert tracer.open_spans == 0
        steps = [e for e in tracer.events if e["name"] == "step"]
        assert len(steps) == STEPS
        assert all(e["engine"] == engine for e in steps)
        evaluates = [e for e in tracer.events if e["name"] == "evaluate"]
        workload = library_workload()
        names = {c.name for c in workload.constraints}
        assert {e["constraint"] for e in evaluates} == names
        # every evaluate nests inside some step span
        step_ids = {e["span"] for e in steps}
        assert {e["parent"] for e in evaluates} <= step_ids

    def test_metrics_cover_steps_and_violations(self, engine):
        registry = MetricsRegistry()
        monitor = run_engine(
            engine, MonitorInstrumentation(metrics=registry)
        )
        assert registry.counter(STEPS_TOTAL, engine=engine).value == STEPS
        step_hist = registry.histogram(STEP_SECONDS, engine=engine)
        assert step_hist.count == STEPS
        workload = library_workload()
        for constraint in workload.constraints:
            evals = registry.histogram(
                EVAL_SECONDS,
                engine=engine,
                constraint=constraint.name,
            )
            assert evals.count == STEPS
            # the series exists even when it never fired
            registry.counter(
                VIOLATIONS_TOTAL, engine=engine,
                constraint=constraint.name,
            )
        # the workload's violation rate guarantees some violations
        total = sum(
            child.value
            for name, _, _, series in registry.families()
            if name == VIOLATIONS_TOTAL
            for _, child in series
        )
        assert total > 0
        assert monitor.checker is not None

    def test_hook_sequence_is_pinned(self, engine):
        from repro.workloads import sensors_workload

        workload = sensors_workload(violation_rate=0.3)
        monitor = workload.monitor(engine)
        recording = RecordingInstrumentation()
        monitor.instrument(recording)
        for time, txn in workload.stream(6, seed=5):
            monitor.step(time, txn)
        assert recording.calls == pinned_step(engine) * 6

    def test_space_tuples_uniform_hook(self, engine):
        from repro.analysis.metrics import space_of

        monitor = run_engine(engine, None)
        checker = monitor.checker
        assert hasattr(checker, "space_tuples")
        assert checker.space_tuples() == space_of(checker)
        assert space_of(monitor) == space_of(checker)


class TestOverhead:
    def test_disabled_monitor_emits_nothing(self):
        from repro.obs import Profiler

        tracer = Tracer()
        registry = MetricsRegistry()
        profiler = Profiler()
        # instrumentation built but never attached
        MonitorInstrumentation(tracer=tracer, metrics=registry)
        run_engine("incremental", None)
        assert tracer.events == []
        assert len(registry) == 0
        assert profiler.profile.call_counts() == {}

    def test_disabled_resilience_adds_no_series_or_hooks(self):
        # with no fault policy, budget, or journal configured, a run
        # through Monitor.step must add zero resilience metric series
        # and keep the pristine fast path (runtime objects all unset)
        registry = MetricsRegistry()
        monitor = run_engine(
            "incremental", MonitorInstrumentation(metrics=registry)
        )
        assert monitor.resilience is None
        assert monitor.journal is None
        assert monitor.budget is None
        assert monitor.checker.budget is None
        families = {name for name, _, _, _ in registry.families()}
        assert not any(
            name.startswith(prefix)
            for name in families
            for prefix in (
                "repro_faults",
                "repro_quarantined",
                "repro_handler_failures",
                "repro_degraded",
                "repro_deferred",
                "repro_journal",
                "repro_checkpoints",
            )
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hook_traffic_per_step_is_bounded(self, engine):
        counting = CountingInstrumentation()
        run_engine(engine, counting, steps=STEPS)
        workload = library_workload()
        n_constraints = len(workload.constraints)
        per_step = sum(counting.calls.values()) / STEPS
        # begin + apply + end + one evaluate per constraint, plus at
        # most a few aux-node advances / rule firings per step: the
        # disabled path replaces each of these with one attribute load,
        # so this bound caps the enabled-vs-disabled call-count delta.
        assert counting.calls["step_begin"] == STEPS
        assert counting.calls["step_end"] == STEPS
        assert counting.calls["constraint_checked"] == STEPS * n_constraints
        assert per_step <= 3 + n_constraints + 12
