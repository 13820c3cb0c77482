"""Instrumentation for the experiments.

Wraps a checker run with per-step wall-clock timing and space sampling,
returning a :class:`RunMetrics` the benchmark harness turns into the
tables recorded in EXPERIMENTS.md.  "Space" is measured in *stored
tuples*, the unit of the paper's claims: auxiliary-relation entries for
the incremental/active checkers, retained history tuples for the naive
checker — deliberately not bytes, which would measure the Python
runtime rather than the algorithm.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.core.violations import RunReport


def space_of(checker) -> int:
    """The checker's current stored-tuple count, engine-agnostic.

    Every engine exposes the uniform ``space_tuples()`` hook (see
    :class:`~repro.core.engine.Engine`); a
    :class:`~repro.core.monitor.Monitor` façade is measured through its
    built checker.
    """
    # a Monitor façade measures its underlying engine
    probe = getattr(
        getattr(checker, "checker", checker), "space_tuples", None
    )
    if probe is None:
        raise TypeError(f"cannot measure space of {type(checker).__name__}")
    return probe()


class RunMetrics:
    """Per-step timings and space samples of one checker run."""

    def __init__(
        self,
        step_seconds: Sequence[float],
        space_samples: Sequence[int],
        report: RunReport,
    ):
        self.step_seconds = list(step_seconds)
        self.space_samples = list(space_samples)
        self.report = report

    @property
    def steps(self) -> int:
        """Number of steps measured."""
        return len(self.step_seconds)

    @property
    def total_seconds(self) -> float:
        """Total checking time over the run."""
        return sum(self.step_seconds)

    @property
    def mean_step_seconds(self) -> float:
        """Mean per-step checking time."""
        return self.total_seconds / max(1, self.steps)

    @property
    def peak_space(self) -> int:
        """Maximum stored tuples observed at any step."""
        return max(self.space_samples, default=0)

    @property
    def final_space(self) -> int:
        """Stored tuples after the last step."""
        return self.space_samples[-1] if self.space_samples else 0

    def tail_mean_step_seconds(self, fraction: float = 0.25) -> float:
        """Mean step time over the last ``fraction`` of the run.

        The interesting number for growth detection: a checker whose
        cost grows with history length has a tail mean well above its
        overall mean.
        """
        k = max(1, int(len(self.step_seconds) * fraction))
        tail = self.step_seconds[-k:]
        return sum(tail) / len(tail)

    def median_step_seconds(self) -> float:
        """Median per-step checking time (robust to GC noise)."""
        from statistics import median  # for this one method; not cheap

        return median(self.step_seconds) if self.step_seconds else 0.0

    def __repr__(self) -> str:
        return (
            f"RunMetrics({self.steps} steps, "
            f"total {self.total_seconds * 1e3:.2f} ms, "
            f"peak space {self.peak_space})"
        )


def measure_run(checker, stream, registry=None, warmup=0) -> RunMetrics:
    """Drive ``checker`` through ``stream``, measuring every step.

    Args:
        checker: any stepping engine.
        stream: ``(time, transaction)`` pairs.
        registry: optional :class:`repro.obs.metrics.MetricsRegistry`;
            when given, every per-step sample is also emitted into the
            same metric families runtime instrumentation uses
            (``repro_step_seconds`` histogram, ``repro_aux_tuples_total``
            gauge, labelled by engine), so benchmark measurements and
            live telemetry share one pipeline and one naming scheme.
        warmup: number of leading steps to run *unmeasured*.  Warmup
            steps still advance the checker (and their violations stay
            in the returned report — verdicts are not a perf figure),
            but their samples are excluded from the step/space series
            **and from the registry**, so cold-start allocations never
            leak into histogram buckets.
    """
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    step_seconds: List[float] = []
    space_samples: List[int] = []
    step_hist = space_gauge = None
    if registry is not None:
        from repro.obs.instrument import AUX_TUPLES_TOTAL, STEP_SECONDS

        label = getattr(checker, "engine_label", type(checker).__name__)
        step_hist = registry.histogram(
            STEP_SECONDS, help="End-to-end step time", engine=label
        )
        space_gauge = registry.gauge(
            AUX_TUPLES_TOTAL,
            help="Total stored tuples (engine space measure)",
            engine=label,
        )
    report = RunReport()
    remaining_warmup = warmup
    for when, txn in stream:
        if remaining_warmup > 0:
            remaining_warmup -= 1
            report.add(checker.step(when, txn))
            continue
        started = time.perf_counter()
        report.add(checker.step(when, txn))
        elapsed = time.perf_counter() - started
        step_seconds.append(elapsed)
        space = space_of(checker)
        space_samples.append(space)
        if step_hist is not None:
            step_hist.observe(elapsed)
            space_gauge.set(space)
    return RunMetrics(step_seconds, space_samples, report)
