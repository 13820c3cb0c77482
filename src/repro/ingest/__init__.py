"""Hardened ingestion: untrusted update streams in, clean streams out.

The paper's checker consumes a history with strictly increasing
timestamps; real-time feeds deliver out-of-order, duplicated, skewed,
and intermittently unavailable updates.  This package is the boundary
where messy reality becomes the clean stream the engines require:

* **sources** (:mod:`repro.ingest.sources`) — the :class:`Source`
  pull protocol, with :class:`RetryingSource` (capped jittered
  exponential backoff, deadlines, optional :class:`CircuitBreaker`)
  for flaky feeds and :class:`FlakySource` for seeded chaos;
* **reordering** (:mod:`repro.ingest.reorder`) — the watermark-based
  :class:`Reorderer`: bounded buffering of out-of-order arrivals,
  per-source clock-skew normalisation, replay deduplication, and
  dead-lettering of too-late events to the quarantine log (never a
  silent drop);
* **backpressure** (:mod:`repro.ingest.queue`) — the bounded
  :class:`IngestQueue` with blocking or shedding overflow policies,
  composing with :class:`~repro.resilience.StepBudget` for graceful
  degradation under overload;
* **the pipeline** (:mod:`repro.ingest.pipeline`) —
  :class:`IngestPipeline` glues the stages together and drives a
  :class:`~repro.core.monitor.Monitor`; the usual entry point is
  :meth:`Monitor.feed`::

      report = monitor.feed([feed_a, feed_b], watermark=8,
                            skew={"feed-b": 3}, retry=5)

The keystone guarantee, enforced by ``tests/ingest/``: for any seeded
corruption within the watermark bound, monitored verdicts are
bit-for-bit identical to monitoring the clean stream, across all
engines — and every excluded event is accounted for in the quarantine
log and metrics.  See ``docs/robustness.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.ingest.pipeline import IngestPipeline, as_source
    from repro.ingest.queue import BackpressurePolicy, IngestQueue
    from repro.ingest.reorder import Reorderer
    from repro.ingest.sources import (
        CircuitBreaker,
        FlakySource,
        IterableSource,
        RetryPolicy,
        RetryingSource,
        Source,
    )

__all__ = [
    "BackpressurePolicy",
    "CircuitBreaker",
    "FlakySource",
    "IngestPipeline",
    "IngestQueue",
    "IterableSource",
    "Reorderer",
    "RetryPolicy",
    "RetryingSource",
    "Source",
    "as_source",
]

lazy_surface(__name__, {
    "repro.ingest.pipeline": ("IngestPipeline", "as_source"),
    "repro.ingest.queue": ("BackpressurePolicy", "IngestQueue"),
    "repro.ingest.reorder": ("Reorderer",),
    "repro.ingest.sources": (
        "CircuitBreaker", "FlakySource", "IterableSource", "RetryPolicy",
        "RetryingSource", "Source",
    ),
})
