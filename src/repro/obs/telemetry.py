"""End-to-end event-time telemetry: arrival → verdict, per stage.

The paper's point is that integrity checking happens in *real time*,
so the question that matters operationally is not "how long does a
step take" but "how long after an event **arrived** did its verdict
land, and where did the time go".  :class:`EventTimeTelemetry` answers
it by stamping every event at each stage boundary of the monitoring
path and recording the stage latencies into fixed-bucket histograms:

========  ==========================================================
stage     measured interval
========  ==========================================================
reorder   arrival at the ingest boundary → released by the watermark
          frontier (``repro_event_reorder_seconds``)
queue     released → dequeued for checking
          (``repro_event_queue_seconds``)
check     dequeued → verdict computed
          (``repro_event_check_seconds``)
verdict   arrival → verdict, end to end
          (``repro_event_verdict_seconds``)
========  ==========================================================

Alongside the wall-clock stages it samples two *event-time* series
continuously (the units are the monitored stream's clock units, so
they are deterministic for a given delivery order): the watermark
frontier lag (``repro_event_frontier_lag``) and the ingest queue
depth (``repro_event_queue_depth``).  Events excluded before a verdict
— shed by the overloaded queue — and constraint evaluations deferred
by a blown :class:`~repro.resilience.StepBudget` become telemetry
events too (``repro_event_shed_total`` / ``repro_event_deferred_total``).

The instrumentation follows the repository's overhead-gate pattern:
every call site guards with ``if telemetry is not None``, so the
disabled path costs one attribute load per site and allocates nothing;
the enabled path pre-resolves its histogram children at construction,
so a stamp is a clock read plus a couple of dict operations.  The
overhead bound (< 5% on E2's tail step time) is pinned by the
``telemetry/monitor`` column of benchmark e2.

Events are keyed by their **normalised timestamp** — the value the
reorderer emits after skew adjustment — which is unique per monitored
state (the reorderer net-merges same-time deltas), so one stamp per
stage suffices.  When events reach the monitor without an ingest
pipeline (plain :meth:`~repro.core.monitor.Monitor.step`), arrival is
stamped at the step boundary and the reorder/queue stages stay empty.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

# Metric family names (the ``repro_event_*`` event-time families).
EVENT_REORDER_SECONDS = "repro_event_reorder_seconds"
EVENT_QUEUE_SECONDS = "repro_event_queue_seconds"
EVENT_CHECK_SECONDS = "repro_event_check_seconds"
EVENT_VERDICT_SECONDS = "repro_event_verdict_seconds"
EVENT_FRONTIER_LAG = "repro_event_frontier_lag"
EVENT_QUEUE_DEPTH = "repro_event_queue_depth"
EVENT_SHED_TOTAL = "repro_event_shed_total"
EVENT_DEFERRED_TOTAL = "repro_event_deferred_total"

#: Bucket bounds for event-time lag/depth histograms (clock units /
#: queued events — integral, so powers of two resolve exactly).
DEFAULT_LAG_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

#: The stage → family mapping (used by the health snapshot).
STAGE_FAMILIES: Dict[str, str] = {
    "reorder": EVENT_REORDER_SECONDS,
    "queue": EVENT_QUEUE_SECONDS,
    "check": EVENT_CHECK_SECONDS,
    "verdict": EVENT_VERDICT_SECONDS,
}


class EventTimeTelemetry:
    """Stamps events through the monitoring path; feeds the SLO engine.

    Args:
        metrics: the :class:`~repro.obs.metrics.MetricsRegistry` the
            event-time families are recorded into (one is created when
            omitted — telemetry is always exportable).
        slo: optional :class:`~repro.obs.slo.SLOEngine`; when present,
            every verdict feeds it one indicator sample and the alerts
            it fires are returned from :meth:`verdict`.
        clock: wall-clock source (tests inject a deterministic fake).
    """

    __slots__ = (
        "metrics", "slo", "_clock",
        "_arrived", "_released", "_checking",
        "steps_processed", "violations_total", "degraded_steps",
        "skipped_steps", "shed_events", "deferred_evaluations",
        "last_frontier_lag", "last_queue_depth",
        "_reorder_hist", "_queue_hist", "_check_hist", "_verdict_hist",
        "_lag_hist", "_depth_hist", "_shed_counter", "_step_sheds",
    )

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        slo=None,
        clock: Callable[[], float] = perf_counter,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slo = slo
        self._clock = clock
        self._arrived: Dict[int, float] = {}
        self._released: Dict[int, float] = {}
        self._checking: Dict[int, float] = {}
        self.steps_processed = 0
        self.violations_total = 0
        self.degraded_steps = 0
        self.skipped_steps = 0
        self.shed_events = 0
        self.deferred_evaluations = 0
        #: latest sampled values (event-time units; None before the
        #: first sample — a run without an ingest pipeline never lags)
        self.last_frontier_lag: Optional[int] = None
        self.last_queue_depth: Optional[int] = None
        self._step_sheds = 0
        hist = self.metrics.histogram
        self._reorder_hist = hist(
            EVENT_REORDER_SECONDS, buckets=DEFAULT_LATENCY_BUCKETS,
            help="Arrival to watermark release, per event",
        )
        self._queue_hist = hist(
            EVENT_QUEUE_SECONDS, buckets=DEFAULT_LATENCY_BUCKETS,
            help="Watermark release to dequeue, per event",
        )
        self._check_hist = hist(
            EVENT_CHECK_SECONDS, buckets=DEFAULT_LATENCY_BUCKETS,
            help="Dequeue to verdict, per event",
        )
        self._verdict_hist = hist(
            EVENT_VERDICT_SECONDS, buckets=DEFAULT_LATENCY_BUCKETS,
            help="Arrival to verdict, end to end",
        )
        self._lag_hist = hist(
            EVENT_FRONTIER_LAG, buckets=DEFAULT_LAG_BUCKETS,
            help="Watermark frontier lag samples (clock units)",
        )
        self._depth_hist = hist(
            EVENT_QUEUE_DEPTH, buckets=DEFAULT_LAG_BUCKETS,
            help="Ingest queue depth samples (events)",
        )
        self._shed_counter = self.metrics.counter(
            EVENT_SHED_TOTAL,
            help="Events shed before reaching a verdict",
        )

    # ------------------------------------------------------------------
    # stage stamps (called by the reorderer / queue / monitor)
    # ------------------------------------------------------------------

    def arrived(self, time: int) -> None:
        """Stamp an event's arrival (first stamp wins on replays)."""
        if time not in self._arrived:
            self._arrived[time] = self._clock()

    def released(self, time: int) -> None:
        """Stamp an event's release by the watermark frontier."""
        now = self._clock()
        start = self._arrived.get(time)
        if start is not None:
            self._reorder_hist.observe(now - start)
        self._released[time] = now

    def check_begin(self, time: int) -> None:
        """Stamp the start of checking (dequeue); implies arrival."""
        now = self._clock()
        start = self._released.pop(time, None)
        if start is not None:
            self._queue_hist.observe(now - start)
        if time not in self._arrived:
            self._arrived[time] = now
        self._checking[time] = now

    def verdict(self, time: int, report) -> List:
        """Close an event's lifecycle; returns any SLO alerts fired.

        ``report`` is the step's
        :class:`~repro.core.violations.StepReport` (a *skipped* report
        — the fault boundary dropped the input — still closes the
        event: a dead letter is its verdict).
        """
        now = self._clock()
        started = self._checking.pop(time, None)
        check_seconds = now - started if started is not None else 0.0
        self._check_hist.observe(check_seconds)
        arrived = self._arrived.pop(time, None)
        verdict_seconds = now - arrived if arrived is not None else 0.0
        self._verdict_hist.observe(verdict_seconds)
        self.steps_processed += 1
        violations = len(report.violations)
        self.violations_total += violations
        if report.degraded:
            self.degraded_steps += 1
        if report.skipped:
            self.skipped_steps += 1
        sheds = self._step_sheds
        self._step_sheds = 0
        if self.slo is None:
            return []
        return self.slo.observe({
            "verdict_seconds": verdict_seconds,
            "check_seconds": check_seconds,
            "frontier_lag": self.last_frontier_lag or 0,
            "queue_depth": self.last_queue_depth or 0,
            "shed": sheds,
            "deferred": len(report.deferred),
            "fault": 1 if report.skipped else 0,
            "violations": violations,
        })

    # ------------------------------------------------------------------
    # exclusions and continuous samples
    # ------------------------------------------------------------------

    def shed(self, time: int) -> None:
        """An event was shed by the overloaded queue — lifecycle over."""
        self.shed_events += 1
        self._step_sheds += 1
        self._shed_counter.inc()
        self._arrived.pop(time, None)
        self._released.pop(time, None)
        self._checking.pop(time, None)

    def deferred(self, constraint: str) -> None:
        """A constraint evaluation was shed by the step budget."""
        self.deferred_evaluations += 1
        self.metrics.counter(
            EVENT_DEFERRED_TOTAL,
            constraint=constraint,
            help="Constraint evaluations deferred under deadline",
        ).inc()

    def sample(self, frontier_lag: Optional[int],
               queue_depth: Optional[int]) -> None:
        """Record one continuous sample of the event-time gauges."""
        if frontier_lag is not None:
            self.last_frontier_lag = frontier_lag
            self._lag_hist.observe(frontier_lag)
        if queue_depth is not None:
            self.last_queue_depth = queue_depth
            self._depth_hist.observe(queue_depth)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Events stamped but not yet closed by a verdict or shed."""
        return len(self._arrived)

    def stage_histograms(self) -> Dict[str, object]:
        """The four stage histograms keyed by stage name."""
        return {
            "reorder": self._reorder_hist,
            "queue": self._queue_hist,
            "check": self._check_hist,
            "verdict": self._verdict_hist,
        }

    def lag_histograms(self) -> Dict[str, object]:
        """The event-time lag/depth histograms keyed by series name."""
        return {
            "frontier": self._lag_hist,
            "queue_depth": self._depth_hist,
        }

    def __repr__(self) -> str:
        slo = ", slo" if self.slo is not None else ""
        return (
            f"EventTimeTelemetry({self.steps_processed} verdict(s), "
            f"{self.pending} pending{slo})"
        )
