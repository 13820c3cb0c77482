"""The durable backend: checksummed segment WAL with atomic rotation.

Directory layout::

    <dir>/checkpoint.json        # current checkpoint (one framed record)
    <dir>/checkpoint.prev.json   # previous generation (fallback)
    <dir>/wal-00000003.log       # journal segment for epoch 3 (active)
    <dir>/wal-00000002.log       # retained previous segment
    <dir>/cold.sqlite            # optional cold anchor tier
    <dir>/journal.lock           # single-writer guard (pid + start token)

Every record — journal step *and* checkpoint — is one framed line
(:mod:`repro.store.record`): magic + length prefix + blake2s checksum,
so any torn write or bit flip is detected on read.  Segment ``k``
holds the steps applied after checkpoint epoch ``k``.

Checkpoint epoch ``n`` commits through a fixed protocol, each step
crash-safe against the previous one:

1. cold anchor rows for generation ``n`` are written to the SQLite
   tier (a crash here leaves an uncommitted generation the previous
   checkpoint never references);
2. the framed checkpoint is written to a temp file and fsynced, the
   old ``checkpoint.json`` is renamed to ``checkpoint.prev.json``, the
   temp renamed over ``checkpoint.json``, and the directory fsynced —
   readers only ever see a complete old or complete new checkpoint;
3. segment ``wal-n`` is created (rotation);
4. segments ``<= n-2`` are unlinked and cold generations ``<= n-2``
   vacuumed (retention: two checkpoints + two segments, so a damaged
   current checkpoint can fall back one generation and still replay).

:meth:`SegmentStore.load` is lenient end to end: a damaged journal
frame truncates the logical record stream at the last valid record
(counting ``torn_records``), and a damaged current checkpoint — or one
whose cold generation fails its digest — falls back to the previous
generation.  Strict verification lives in :mod:`repro.store.scrub`.

**Failpoints** make the crash windows testable: each named point can
raise :class:`~repro.resilience.chaos.SimulatedCrash` in-process
(``failpoints={...}``) or hard-kill the process via ``os._exit`` when
the ``REPRO_STORE_FAILPOINT=<name>:<nth>`` environment variable is set
(the real-subprocess crash tests).

What the environment decides — that variable, and whether ``sync=True``
really fsyncs — is read once, when a store is constructed, and holds
for the store's life; a child process that builds its store after
``fork`` reads its own.  The record and checkpoint paths work on
strings computed then: no ``Path`` is built and no variable looked up
per record or per checkpoint.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StoreCorruption, StoreError
from repro.store.base import (
    SYNC_FORCE,
    PathLike,
    StateStore,
    StoreSnapshot,
    fsync_dir,
    fsync_enabled,
    fsync_file,
)
from repro.store.lock import JournalLock
from repro.store.record import encode_record, scan_segment

#: File names inside a store directory.
CHECKPOINT_NAME = "checkpoint.json"
PREV_CHECKPOINT_NAME = "checkpoint.prev.json"
COLD_NAME = "cold.sqlite"

#: Active/retained journal segments: ``wal-<epoch, zero-padded>.log``.
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"
SEGMENT_GLOB = f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"

#: Checkpoint generations (and their segments) kept for fallback.
RETAIN_GENERATIONS = 2

#: The named crash windows of the commit protocol, in protocol order.
FAILPOINTS = (
    "record_pre_fsync",
    "record_post_fsync",
    "checkpoint_pre_rename",
    "checkpoint_post_rename",
    "rotate_pre_unlink",
    "rotate_post_unlink",
)

#: ``<name>:<nth>`` — hard-kill the process at the nth hit of a point.
FAILPOINT_ENV = "REPRO_STORE_FAILPOINT"

#: Exit status of an environment-failpoint kill (distinguishable from
#: python crashes in the subprocess tests).
FAILPOINT_EXIT = 37

_env_hits: Dict[str, int] = {}


def _env_failpoint() -> Tuple[Optional[str], int]:
    """``(name, nth)`` of the environment's kill point, ``(None, 1)``
    when the variable is unset."""
    spec_name, _, nth_text = os.environ.get(FAILPOINT_ENV, "").partition(":")
    try:
        nth = int(nth_text) if nth_text else 1
    except ValueError:
        nth = 1
    return spec_name or None, nth


def segment_name(epoch: int) -> str:
    """File name of the journal segment for a checkpoint epoch."""
    return f"{SEGMENT_PREFIX}{epoch:08d}{SEGMENT_SUFFIX}"


def _name_epoch(name: str) -> int:
    if not (name.startswith(SEGMENT_PREFIX)
            and name.endswith(SEGMENT_SUFFIX)):
        return -1
    digits = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    try:
        return int(digits)
    except ValueError:
        return -1


def segment_epoch(path: PathLike) -> int:
    """Parse a segment file name back to its epoch (-1 if malformed)."""
    return _name_epoch(os.path.basename(path))


def _segment_files(directory) -> List[Tuple[int, str]]:
    """``(epoch, file name)`` of every well-named segment file in a
    store directory, by epoch, from one ``listdir``."""
    try:
        names = os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError):
        return []
    return sorted(
        (epoch, name)
        for epoch, name in zip(map(_name_epoch, names), names)
        if epoch >= 0
    )


def list_segments(directory: PathLike) -> List[Path]:
    """Every well-named segment file in a store directory, by epoch."""
    directory = Path(directory)
    return [directory / name for _, name in _segment_files(directory)]


class SegmentStore(StateStore):
    """Checksummed segment-log durability backend.

    Args:
        directory: the store directory (created if missing).
        sync: ``False`` flush-only, ``True`` fsync at record and
            rotation boundaries (honours ``REPRO_FSYNC=off``), or
            ``"force"`` to fsync unconditionally.
        failpoints: names from :data:`FAILPOINTS` that raise
            ``SimulatedCrash`` when reached (in-process chaos tests).
        lock: take the single-writer lock (disable only for read-only
            inspection; two live writers corrupt the tail).
    """

    durable = True

    def __init__(self, directory: PathLike, sync=False,
                 failpoints: Iterable[str] = (), lock: bool = True):
        unknown = set(failpoints) - set(FAILPOINTS)
        if unknown:
            raise StoreError(
                f"unknown failpoint(s) {sorted(unknown)}; "
                f"known: {list(FAILPOINTS)}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        #: fixed for the life of the store, so resolved here and not
        #: per record or checkpoint: whether ``sync`` really fsyncs, the
        #: environment's kill point, and the files of the protocol
        self._fsync = fsync_enabled(sync)
        self._kill_at, self._kill_nth = _env_failpoint()
        self._dir = str(self.directory)
        self._checkpoint_file = os.path.join(self._dir, CHECKPOINT_NAME)
        self._prev_file = os.path.join(self._dir, PREV_CHECKPOINT_NAME)
        self._tmp_file = self._checkpoint_file + ".tmp"
        self._cold_file = os.path.join(self._dir, COLD_NAME)
        self._failpoints: Set[str] = set(failpoints)
        self._fh = None
        #: torn-tail bytes of the active segment, discovered by a
        #: lenient load: the valid prefix length to truncate to before
        #: the first append, so new records never land behind damage
        self._truncate_tail: Optional[int] = None
        #: records written to the segment since the last commit
        self._uncommitted = False
        self._epoch = self._discover_epoch()
        self._records_written = 0
        self._checkpoints_written = 0
        self._closed = False
        self._cold = None
        self._lock = JournalLock(self.directory) if lock else None
        if self._lock is not None:
            self._lock.acquire()

    # -- paths ---------------------------------------------------------

    @property
    def checkpoint_path(self) -> Path:
        """The current checkpoint file."""
        return Path(self._checkpoint_file)

    @property
    def prev_checkpoint_path(self) -> Path:
        """The retained previous-generation checkpoint file."""
        return Path(self._prev_file)

    @property
    def cold_path(self) -> Path:
        """The SQLite cold anchor tier (may not exist)."""
        return Path(self._cold_file)

    @property
    def journal_path(self) -> Path:
        """The active journal segment (for introspection/tests)."""
        return self.directory / segment_name(max(self._epoch, 0))

    @property
    def epoch(self) -> int:
        """Checkpoint generations committed (-1 before the first)."""
        return self._epoch

    def _discover_epoch(self) -> int:
        """On re-attach, resume numbering after the newest artifact."""
        epochs = [epoch for epoch, _ in _segment_files(self._dir)]
        for path in (self._checkpoint_file, self._prev_file):
            if os.path.exists(path):
                scan = scan_segment(path)
                if scan.clean and scan.records:
                    epoch = scan.records[0].get("epoch")
                    if isinstance(epoch, int):
                        epochs.append(epoch)
        return max(epochs) if epochs else -1

    # -- failpoints ----------------------------------------------------

    def _failpoint(self, name: str) -> None:
        """The seam every crash window of the protocol passes."""
        if name in self._failpoints:
            from repro.resilience.chaos import SimulatedCrash

            # the simulated process dies here: drop its in-process
            # writer-lock claim (the file stays, as after a real kill)
            # so recovery in this process can steal it like a respawn
            self.abandon()
            raise SimulatedCrash(f"storage failpoint {name}")
        if name != self._kill_at:
            return
        _env_hits[name] = _env_hits.get(name, 0) + 1
        if _env_hits[name] >= self._kill_nth:
            # a hard kill, not an exception: nothing below this frame
            # gets to flush, close, or release locks — exactly a crash
            os._exit(FAILPOINT_EXIT)

    # -- cold tier -----------------------------------------------------

    def _cold_store(self):
        if self._cold is None:
            from repro.store.sqlite import ColdAnchorStore

            # the tier gets the answer this store got, not the question
            self._cold = ColdAnchorStore(
                self._cold_file, sync=SYNC_FORCE if self._fsync else False
            )
        return self._cold

    # -- StateStore ----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"store {self.directory} is closed")

    def _open_segment(self, epoch: int, truncate: bool = False) -> None:
        if self._fh is not None:
            # closing flushes; what was written and not committed is
            # covered by the checkpoint this rotation belongs to
            self._fh.close()
            self._uncommitted = False
        path = os.path.join(self._dir, segment_name(epoch))
        if truncate:
            # rotation starts a fresh segment; any recorded tail
            # damage belonged to the (retained) previous one
            self._truncate_tail = None
        elif self._truncate_tail is not None:
            # a lenient load found a torn tail in this segment: drop
            # the damaged bytes now, or every appended record would be
            # stranded behind them (the next load stops at the first
            # bad frame and would silently discard the new records)
            with open(path, "r+b") as fh:
                fh.truncate(self._truncate_tail)
                fh.flush()
                fsync_file(fh, self._fsync)
            self._truncate_tail = None
        mode = "wb" if truncate else "ab"
        self._fh = open(path, mode)

    def append(self, record: dict) -> None:
        """Append one framed journal record and commit it."""
        self.write(record)
        self.commit()

    def write(self, record: dict) -> None:
        """Frame one journal record into the active segment's buffer.

        Nothing is promised about it until :meth:`commit` returns.
        """
        if self._fh is None:  # before the first record, or closed
            self._check_open()
            self._open_segment(max(self._epoch, 0))
        self._fh.write(encode_record(record))
        self._uncommitted = True
        self._records_written += 1

    def commit(self) -> None:
        """Make every written record durable: one flush, then fsync
        when ``sync`` — the two ``record_*_fsync`` crash windows."""
        if not self._uncommitted:
            return
        self._fh.flush()
        self._failpoint("record_pre_fsync")
        if self._fsync:  # ``fsync_file`` without its frame
            os.fsync(self._fh.fileno())
        self._failpoint("record_post_fsync")
        self._uncommitted = False

    def checkpoint(self, document: dict,
                   cold_rows: Optional[Dict[str, list]] = None) -> None:
        """Commit one checkpoint generation (the 4-step protocol)."""
        self._check_open()
        new_epoch = self._epoch + 1
        fsync = self._fsync

        # 1. cold generation first: until step 2 renames the
        # checkpoint, nothing references generation new_epoch
        cold_meta: Dict[str, dict] = {}
        if cold_rows:
            cold_meta = self._cold_store().write_generation(
                new_epoch, cold_rows
            )

        # 2. atomic checkpoint: tmp + fsync + rename, keeping the old
        # generation as the fallback
        frame = encode_record({
            "epoch": new_epoch,
            "document": document,
            "cold": cold_meta,
        })
        with open(self._tmp_file, "wb") as fh:
            fh.write(frame)
            fh.flush()
            fsync_file(fh, fsync)
        self._failpoint("checkpoint_pre_rename")
        if os.path.isfile(self._checkpoint_file):
            os.replace(self._checkpoint_file, self._prev_file)
        os.replace(self._tmp_file, self._checkpoint_file)
        fsync_dir(self._dir, fsync)
        self._failpoint("checkpoint_post_rename")

        # 3. rotate: open the new epoch's segment
        self._open_segment(new_epoch, truncate=True)
        fsync_file(self._fh, fsync)
        fsync_dir(self._dir, fsync)
        self._failpoint("rotate_pre_unlink")

        # 4. reclaim everything beyond the retention window
        horizon = new_epoch - (RETAIN_GENERATIONS - 1)
        for epoch, name in _segment_files(self._dir):
            if epoch < horizon:
                os.unlink(os.path.join(self._dir, name))
        if cold_rows or os.path.exists(self._cold_file):
            try:
                self._cold_store().vacuum(horizon)
            except StoreError:  # pragma: no cover - sqlite unavailable
                pass
        self._failpoint("rotate_post_unlink")

        self._epoch = new_epoch
        self._checkpoints_written += 1

    def _load_checkpoint(self):
        """The newest *usable* checkpoint: ``(meta, cold_rows,
        fallback)`` or ``None``.

        A candidate is usable when its frame verifies **and** its cold
        generation (if it references one) reads back digest-clean; the
        previous generation is the fallback for either failure.
        """
        for path, fallback in (
            (self._checkpoint_file, False),
            (self._prev_file, True),
        ):
            if not os.path.exists(path):
                continue
            scan = scan_segment(path)
            if not scan.clean or not scan.records:
                continue
            meta = scan.records[0]
            if not isinstance(meta.get("epoch"), int) or (
                "document" not in meta
            ):
                continue
            cold_meta = meta.get("cold") or {}
            cold_rows: Dict[str, list] = {}
            if cold_meta:
                try:
                    cold_rows = self._cold_store().read_generation(
                        meta["epoch"], expected=cold_meta
                    )
                except (StoreCorruption, StoreError):
                    continue
            return meta, cold_rows, fallback
        return None

    def load(self) -> StoreSnapshot:
        """Read back the newest recoverable state, leniently."""
        self._check_open()
        loaded = self._load_checkpoint()
        if loaded is None:
            document, cold_rows, epoch, fallback = None, {}, -1, False
        else:
            meta, cold_rows, fallback = loaded
            document, epoch = meta["document"], meta["epoch"]

        # the logical journal: every retained segment at or after the
        # restored epoch, truncated at the first damaged frame
        records: List[dict] = []
        torn = 0
        broken = False
        self._truncate_tail = None
        active = segment_name(max(self._epoch, 0))
        for segment, name in _segment_files(self._dir):
            if segment < epoch:
                continue  # retained for deeper fallback only
            scan = scan_segment(os.path.join(self._dir, name))
            if broken:
                # a gap before these records: replaying them against
                # the truncated state would diverge — they are lost too
                torn += len(scan.records) + scan.dropped_lines
                continue
            records.extend(scan.records)
            torn += scan.dropped_lines
            if not scan.clean:
                broken = True
                if name == active and self._fh is None:
                    # damage in the segment appends reopen: remember
                    # the valid prefix so the first append truncates
                    # the torn tail instead of writing after it
                    self._truncate_tail = scan.valid_bytes
        return StoreSnapshot(
            document, cold_rows=cold_rows, records=records,
            epoch=epoch, fallback=fallback, torn_records=torn,
        )

    def scrub(self):
        """Strictly verify every durable record in this directory."""
        from repro.store.scrub import scrub_directory

        return scrub_directory(self.directory)

    def repair(self):
        """Apply the file-level repairs scrub prescribes."""
        from repro.store.scrub import repair_directory

        return repair_directory(self.directory)

    def abandon(self) -> None:
        """Simulate a kill: drop the in-process lock claim, nothing else.

        File handles stay open and the lock file stays on disk with
        this process's stamp — exactly the wreckage a killed process
        leaves — but the writer lock no longer counts as held by a
        live instance, so in-process recovery can steal it the way a
        respawned process would.
        """
        if self._lock is not None:
            self._lock.abandon()

    def close(self) -> None:
        """Flush and close the segment; release lock and cold tier."""
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._cold is not None:
            self._cold.close()
            self._cold = None
        if self._lock is not None:
            self._lock.release()

    def __repr__(self) -> str:
        return (
            f"SegmentStore({self.directory}, epoch={self._epoch}, "
            f"sync={self.sync!r})"
        )
