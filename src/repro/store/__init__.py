"""``repro.store`` — the durable state-store seam.

The checkpoint/journal machinery of :mod:`repro.core.persist` writes
through a :class:`StateStore` backend:

* :class:`MemoryStore` — plain Python containers, nothing durable
  (tests, ephemeral monitors, and the reference the durable backend's
  property tests compare against);
* :class:`SegmentStore` — a checksummed append-only segment WAL with
  atomic checkpoint rotation, a previous-generation fallback, and an
  optional SQLite cold tier for the minimal anchor tuples of
  unbounded ``ONCE``/``SINCE`` state.

Every durable record is framed by :mod:`repro.store.record` — format
magic, length prefix, blake2s-64 checksum — so torn writes and bit
flips are *detected*, and :mod:`repro.store.scrub` turns detection
into repair: truncate-to-last-valid-record, previous-generation
promotion, stale-artifact cleanup.  The ``repro scrub`` CLI subcommand
fronts the same functions.

Fsync discipline is three-valued (``False`` / ``True`` / ``"force"``)
with a ``REPRO_FSYNC=off`` escape hatch honoured only by ``True`` —
see :func:`fsync_enabled`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.store.base import (
        FSYNC_ENV,
        RepairReport,
        ScrubFinding,
        ScrubReport,
        StateStore,
        StoreSnapshot,
        SYNC_FORCE,
        fsync_enabled,
    )
    from repro.store.lock import JournalLock, process_start_token
    from repro.store.memory import MemoryStore
    from repro.store.record import (
        STORE_MAGIC,
        SegmentScan,
        decode_record,
        encode_record,
        payload_digest,
        scan_segment,
    )
    from repro.store.scrub import (
        find_store_directories,
        is_store_directory,
        repair_directory,
        repair_tree,
        scrub_directory,
        scrub_tree,
    )
    from repro.store.segment import (
        FAILPOINT_ENV,
        FAILPOINT_EXIT,
        FAILPOINTS,
        SegmentStore,
        list_segments,
        segment_epoch,
        segment_name,
    )
    from repro.store.sqlite import ColdAnchorStore, sqlite_available

__all__ = [
    "ColdAnchorStore",
    "FAILPOINT_ENV",
    "FAILPOINT_EXIT",
    "FAILPOINTS",
    "FSYNC_ENV",
    "JournalLock",
    "MemoryStore",
    "RepairReport",
    "ScrubFinding",
    "ScrubReport",
    "SegmentScan",
    "SegmentStore",
    "StateStore",
    "StoreSnapshot",
    "STORE_MAGIC",
    "SYNC_FORCE",
    "decode_record",
    "encode_record",
    "find_store_directories",
    "fsync_enabled",
    "is_store_directory",
    "list_segments",
    "payload_digest",
    "process_start_token",
    "repair_directory",
    "repair_tree",
    "scan_segment",
    "scrub_directory",
    "scrub_tree",
    "segment_epoch",
    "segment_name",
    "sqlite_available",
]

lazy_surface(__name__, {
    "repro.store.base": (
        "FSYNC_ENV", "RepairReport", "ScrubFinding", "ScrubReport",
        "StateStore", "StoreSnapshot", "SYNC_FORCE", "fsync_enabled",
    ),
    "repro.store.lock": ("JournalLock", "process_start_token"),
    "repro.store.memory": ("MemoryStore",),
    "repro.store.record": (
        "STORE_MAGIC", "SegmentScan", "decode_record", "encode_record",
        "payload_digest", "scan_segment",
    ),
    "repro.store.scrub": (
        "find_store_directories", "is_store_directory", "repair_directory",
        "repair_tree", "scrub_directory", "scrub_tree",
    ),
    "repro.store.segment": (
        "FAILPOINT_ENV", "FAILPOINT_EXIT", "FAILPOINTS", "SegmentStore",
        "list_segments", "segment_epoch", "segment_name",
    ),
    "repro.store.sqlite": ("ColdAnchorStore", "sqlite_available"),
})
