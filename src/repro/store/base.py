"""The ``StateStore`` seam: what a durability backend must provide.

:mod:`repro.core.persist` drives durability through this interface, so
the checkpoint/journal machinery is indifferent to *where* records
land: in a dict (:class:`~repro.store.memory.MemoryStore`, for tests
and ephemeral runs) or in a checksummed segment log with an optional
SQLite cold tier (:class:`~repro.store.segment.SegmentStore`).

A store holds three kinds of durable data:

* the **checkpoint document** — the hot serialized checker state
  (written atomically, retained one generation back for fallback);
* **journal records** — the ``(timestamp, transaction)`` steps applied
  since the checkpoint, appended one framed record at a time;
* optional **cold rows** — minimal anchor tuples of unbounded
  ``ONCE``/``SINCE`` state, spilled out of the checkpoint document
  into the cold tier (the paper's bounded-history split: the bounded
  horizon is hot, the collapsed anchors are cold).

``scrub``/``repair`` complete the crash story: scrub verifies every
checksum and reports findings; repair truncates damaged segments back
to their last valid record and falls back to the previous checkpoint
generation when the current one is unreadable.

The ``sync`` discipline is three-valued everywhere it appears:
``False`` (flush only), ``True`` (fsync, unless the ``REPRO_FSYNC=off``
escape hatch disables it for test suites), and ``"force"`` (fsync
regardless of the environment — what chaos and durability jobs use, so
the escape hatch can never weaken the guarantees under test).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

PathLike = Union[str, Path]

#: Value of ``sync=`` that fsyncs regardless of ``REPRO_FSYNC``.
SYNC_FORCE = "force"

#: Environment variable that downgrades ``sync=True`` to flush-only.
FSYNC_ENV = "REPRO_FSYNC"


def fsync_enabled(sync) -> bool:
    """Whether this ``sync=`` setting should issue real ``fsync`` calls.

    ``sync=True`` honours the ``REPRO_FSYNC=off`` escape hatch (set by
    the tier-1 test suite so thousands of journal writes don't each pay
    a disk flush); ``sync="force"`` ignores it, which the durability
    chaos jobs assert — an environment variable must never be able to
    weaken the property actually under test.

    This is the one place the environment is read, and a store asks
    once, when it is constructed: what it answered then holds for the
    store's life (a forked child that builds its own store asks again).
    """
    if sync == SYNC_FORCE:
        return True
    if not sync:
        return False
    return os.environ.get(FSYNC_ENV, "").strip().lower() not in (
        "off", "0", "false", "no",
    )


def fsync_file(fh, enabled: bool) -> None:
    """``fsync`` an open file if ``enabled`` (a resolved
    :func:`fsync_enabled` answer, not a ``sync=`` setting)."""
    if enabled:
        os.fsync(fh.fileno())


def fsync_dir(directory: PathLike, enabled: bool) -> None:
    """``fsync`` a directory so renamed/created entries survive a host
    crash, if ``enabled`` (a resolved :func:`fsync_enabled` answer)."""
    if not enabled:
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class StoreSnapshot:
    """Everything :func:`repro.core.persist.recover` needs from a store.

    Attributes:
        document: the newest loadable checkpoint document (``None``
            when the store has never checkpointed).
        cold_rows: the cold anchor rows belonging to that checkpoint
            generation, as ``{node_id: [[valuation, times], ...]}`` —
            empty when the store keeps no cold tier.
        records: verified journal records, oldest first, across every
            retained segment (including records already covered by the
            checkpoint, which replay skips by timestamp).
        epoch: the checkpoint generation the snapshot restored
            (``-1`` before any checkpoint).
        fallback: True when the *current* checkpoint generation was
            damaged and the previous one was used instead.
        torn_records: journal records lost to damage — frames after
            the first unverifiable frame of any segment.
    """

    __slots__ = ("document", "cold_rows", "records", "epoch",
                 "fallback", "torn_records")

    def __init__(self, document, cold_rows=None, records=(),
                 epoch=-1, fallback=False, torn_records=0):
        self.document: Optional[dict] = document
        self.cold_rows: Dict[str, list] = dict(cold_rows or {})
        self.records: List[dict] = list(records)
        self.epoch: int = epoch
        self.fallback: bool = fallback
        self.torn_records: int = torn_records

    def __repr__(self) -> str:
        has = "checkpoint" if self.document is not None else "empty"
        return (
            f"StoreSnapshot({has}, epoch={self.epoch}, "
            f"{len(self.records)} record(s), "
            f"torn={self.torn_records}, fallback={self.fallback})"
        )


class ScrubFinding:
    """One integrity problem found by a store scrub."""

    __slots__ = ("path", "kind", "detail", "repair")

    def __init__(self, path, kind: str, detail: str, repair: str):
        #: file the damage lives in
        self.path = Path(path)
        #: classification: ``torn`` / ``checksum`` / ``garbled`` /
        #: ``version`` / ``missing``
        self.kind = kind
        #: human-readable description with the byte offset
        self.detail = detail
        #: the repair action ``--repair`` would take: ``truncate``,
        #: ``fallback``, ``rebuild``, or ``none`` (unrepairable)
        self.repair = repair

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": str(self.path), "kind": self.kind,
            "detail": self.detail, "repair": self.repair,
        }

    def __repr__(self) -> str:
        return f"ScrubFinding({self.path.name}, {self.kind}, {self.repair})"


class ScrubReport:
    """Outcome of scrubbing one store directory (or a tree of them)."""

    __slots__ = ("directory", "files_checked", "records_verified",
                 "findings")

    def __init__(self, directory, files_checked=0, records_verified=0,
                 findings=()):
        self.directory = Path(directory)
        self.files_checked: int = files_checked
        self.records_verified: int = records_verified
        self.findings: List[ScrubFinding] = list(findings)

    @property
    def clean(self) -> bool:
        """Whether every durable record verified."""
        return not self.findings

    @property
    def repairable(self) -> bool:
        """Whether every finding has a known repair action."""
        return all(f.repair != "none" for f in self.findings)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "files_checked": self.files_checked,
            "records_verified": self.records_verified,
            "clean": self.clean,
            "repairable": self.repairable,
            "findings": [f.to_dict() for f in self.findings],
        }

    def merge(self, other: "ScrubReport") -> None:
        """Fold a child directory's report into this one (shard trees)."""
        self.files_checked += other.files_checked
        self.records_verified += other.records_verified
        self.findings.extend(other.findings)

    def __repr__(self) -> str:
        state = "clean" if self.clean else (
            f"{len(self.findings)} finding(s)"
        )
        return (
            f"ScrubReport({self.directory}, "
            f"{self.files_checked} file(s), "
            f"{self.records_verified} record(s), {state})"
        )


class RepairReport:
    """Outcome of repairing a store: the actions taken, per file."""

    __slots__ = ("directory", "actions", "unrepaired", "torn_records")

    def __init__(self, directory, actions=(), unrepaired=(),
                 torn_records=0):
        self.directory = Path(directory)
        #: ``(path, action)`` pairs, e.g. ``("wal-00000001.log",
        #: "truncated to 412 bytes")``
        self.actions: List[Tuple[Path, str]] = [
            (Path(p), a) for p, a in actions
        ]
        #: findings no repair action exists for
        self.unrepaired: List[ScrubFinding] = list(unrepaired)
        #: journal records lost by truncation across all repaired files
        self.torn_records: int = torn_records

    @property
    def complete(self) -> bool:
        """Whether every finding was repaired."""
        return not self.unrepaired

    def to_dict(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "complete": self.complete,
            "torn_records": self.torn_records,
            "actions": [
                {"path": str(p), "action": a} for p, a in self.actions
            ],
            "unrepaired": [f.to_dict() for f in self.unrepaired],
        }

    def __repr__(self) -> str:
        return (
            f"RepairReport({self.directory}, "
            f"{len(self.actions)} action(s), "
            f"complete={self.complete})"
        )


class StateStore(ABC):
    """Abstract durability backend behind checkpoint/journal machinery.

    Lifecycle: construct → (``load`` for recovery | ``checkpoint`` for
    a fresh attach) → ``append`` per committed step (or ``write`` per
    step and one ``commit`` per group) → periodic ``checkpoint`` →
    ``close``.  Implementations own their files and locking; callers
    never touch paths directly.
    """

    #: whether this backend persists across processes
    durable = False

    @abstractmethod
    def append(self, record: dict) -> None:
        """Durably append one journal record (a committed step)."""

    def write(self, record: dict) -> None:
        """Append one journal record without committing it; durable
        only once :meth:`commit` returns.  Backends with nothing to
        amortise commit per record."""
        self.append(record)

    def commit(self) -> None:
        """Make every record handed to :meth:`write` durable."""

    @abstractmethod
    def checkpoint(self, document: dict,
                   cold_rows: Optional[Dict[str, list]] = None) -> None:
        """Atomically write a checkpoint and start a fresh journal
        segment; old segments/generations beyond the retention window
        are reclaimed."""

    @abstractmethod
    def load(self) -> StoreSnapshot:
        """Read back the newest recoverable state, leniently: damaged
        journal tails are truncated to the last valid record (counted
        in ``torn_records``), and a damaged current checkpoint falls
        back to the previous generation where one is retained."""

    @abstractmethod
    def close(self) -> None:
        """Flush, close files, release locks (idempotent)."""

    def abandon(self) -> None:
        """Simulate this store's process dying (chaos tests): drop
        in-process claims (the writer lock's same-process registry)
        while leaving every on-disk artifact — including the lock
        file — exactly as a killed process would.  No-op where nothing
        is held."""

    def scrub(self) -> ScrubReport:
        """Verify every durable record; in-memory stores are vacuously
        clean."""
        return ScrubReport(getattr(self, "directory", "<memory>"))

    def repair(self) -> RepairReport:
        """Repair what :meth:`scrub` found; no-op where nothing is
        durable."""
        return RepairReport(getattr(self, "directory", "<memory>"))

    # -- accounting ----------------------------------------------------

    @property
    def records_written(self) -> int:
        """Journal records appended over this store's lifetime."""
        return getattr(self, "_records_written", 0)

    @property
    def checkpoints_written(self) -> int:
        """Checkpoints written over this store's lifetime."""
        return getattr(self, "_checkpoints_written", 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
