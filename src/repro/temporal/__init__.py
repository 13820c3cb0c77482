"""Time substrate: clocks, histories, update streams, and generators."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.temporal.clock import (
        Clock,
        Timestamp,
        validate_successor,
        validate_timestamp,
    )
    from repro.temporal.generators import StreamGenerator, random_schema
    from repro.temporal.history import History, Snapshot
    from repro.temporal.stream import TimedTransaction, UpdateStream, merge_streams

__all__ = [
    "Clock",
    "History",
    "Snapshot",
    "StreamGenerator",
    "TimedTransaction",
    "Timestamp",
    "UpdateStream",
    "merge_streams",
    "random_schema",
    "validate_successor",
    "validate_timestamp",
]

lazy_surface(__name__, {
    "repro.temporal.clock": (
        "Clock", "Timestamp", "validate_successor", "validate_timestamp",
    ),
    "repro.temporal.generators": ("StreamGenerator", "random_schema"),
    "repro.temporal.history": ("History", "Snapshot"),
    "repro.temporal.stream": (
        "TimedTransaction", "UpdateStream", "merge_streams",
    ),
})
