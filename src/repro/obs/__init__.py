"""Runtime observability: structured tracing and metrics.

The paper's claims are quantitative (bounded space, constant step
time), so the monitor carries always-on-capable telemetry: engines call
the narrow :class:`~repro.obs.instrument.Instrumentation` hooks, and
:class:`~repro.obs.instrument.MonitorInstrumentation` routes them to a
:class:`~repro.obs.tracer.Tracer` (JSONL span traces) and/or a
:class:`~repro.obs.metrics.MetricsRegistry` (Prometheus-exportable
counters, gauges, latency histograms)::

    from repro import Monitor
    from repro.obs import MetricsRegistry, MonitorInstrumentation, Tracer

    tracer, registry = Tracer(), MetricsRegistry()
    monitor = Monitor(
        schema,
        instrumentation=MonitorInstrumentation(tracer, registry),
    )
    ...  # step / run as usual
    tracer.dump_jsonl("trace.jsonl")
    print(render_prometheus(registry))

With no instrumentation attached, every hook site is a single ``None``
check — see ``docs/observability.md`` for the overhead discussion.

Performance observability rides the same hooks:
:class:`~repro.obs.profiler.Profiler` aggregates per-operator
cumulative/self time (``top``/``tree`` reports).

Event-time observability answers the operational question — "how long
after an event *arrived* did its verdict land?":
:class:`~repro.obs.telemetry.EventTimeTelemetry` stamps events through
the arrival → reorder-release → check → verdict path,
:class:`~repro.obs.slo.SLOEngine` evaluates declarative SLOs with
error budgets and fast/slow burn-rate alerts on every verdict, and
:mod:`repro.obs.health` renders it all into versioned, associatively
mergeable health snapshots (``Monitor.health()`` / ``repro health``).

State observability watches the paper's *space* claim at runtime:
:class:`~repro.obs.statewatch.StateWatch` accounts auxiliary state per
constraint and temporal subformula each step (through the uniform
:mod:`repro.core.statespace` protocol), alerts when a node exceeds its
analytic bound or the total keeps growing, and sketches heavy-hitter
valuations; :class:`~repro.obs.flight.FlightRecorder` keeps a bounded
black box of recent steps and dumps a ``repro-flight/1`` artifact on
violations, faults, and budget exhaustion (``Monitor.
enable_statewatch()`` / ``repro state``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.obs.export import (
        render_json,
        render_prometheus,
        write_metrics,
    )
    from repro.obs.flight import (
        FLIGHT_VERSION,
        FlightRecorder,
        read_flight,
        validate_flight,
    )
    from repro.obs.health import (
        HEALTH_VERSION,
        build_health,
        build_sharded_health,
        load_health,
        merge_health,
        render_health_text,
        validate_health,
        write_health,
    )
    from repro.obs.instrument import Instrumentation, MonitorInstrumentation
    from repro.obs.metrics import (
        DEFAULT_LATENCY_BUCKETS,
        DEFAULT_SIZE_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        percentile,
    )
    from repro.obs.profiler import Profile, Profiler
    from repro.obs.slo import (
        INDICATORS,
        SLO_VERSION,
        SLOAlert,
        SLOEngine,
        SLOSpec,
        load_slo_file,
        parse_slo_doc,
    )
    from repro.obs.statewatch import (
        STATE_VERSION,
        SpaceSavingSketch,
        StateAlert,
        StateWatch,
        load_state,
        render_state_text,
        validate_state,
        write_state,
    )
    from repro.obs.telemetry import EventTimeTelemetry
    from repro.obs.tracer import Tracer, read_trace

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "EventTimeTelemetry",
    "FLIGHT_VERSION",
    "FlightRecorder",
    "Gauge",
    "HEALTH_VERSION",
    "Histogram",
    "INDICATORS",
    "Instrumentation",
    "MetricsRegistry",
    "MonitorInstrumentation",
    "Profile",
    "Profiler",
    "SLO_VERSION",
    "SLOAlert",
    "SLOEngine",
    "SLOSpec",
    "STATE_VERSION",
    "SpaceSavingSketch",
    "StateAlert",
    "StateWatch",
    "Tracer",
    "build_health",
    "build_sharded_health",
    "load_health",
    "load_slo_file",
    "load_state",
    "merge_health",
    "parse_slo_doc",
    "percentile",
    "read_flight",
    "read_trace",
    "render_health_text",
    "render_json",
    "render_prometheus",
    "render_state_text",
    "validate_flight",
    "validate_health",
    "validate_state",
    "write_health",
    "write_metrics",
    "write_state",
]

lazy_surface(__name__, {
    "repro.obs.export": ("render_json", "render_prometheus", "write_metrics"),
    "repro.obs.flight": (
        "FLIGHT_VERSION", "FlightRecorder", "read_flight", "validate_flight",
    ),
    "repro.obs.health": (
        "HEALTH_VERSION", "build_health", "build_sharded_health",
        "load_health", "merge_health", "render_health_text", "validate_health",
        "write_health",
    ),
    "repro.obs.instrument": ("Instrumentation", "MonitorInstrumentation"),
    "repro.obs.metrics": (
        "DEFAULT_LATENCY_BUCKETS", "DEFAULT_SIZE_BUCKETS", "Counter", "Gauge",
        "Histogram", "MetricsRegistry", "percentile",
    ),
    "repro.obs.profiler": ("Profile", "Profiler"),
    "repro.obs.slo": (
        "INDICATORS", "SLO_VERSION", "SLOAlert", "SLOEngine", "SLOSpec",
        "load_slo_file", "parse_slo_doc",
    ),
    "repro.obs.statewatch": (
        "STATE_VERSION", "SpaceSavingSketch", "StateAlert", "StateWatch",
        "load_state", "render_state_text", "validate_state", "write_state",
    ),
    "repro.obs.telemetry": ("EventTimeTelemetry",),
    "repro.obs.tracer": ("Tracer", "read_trace"),
})
