"""Checkpoint / restore / crash recovery for the incremental checker.

A monitor that never stores the history is exactly the kind of process
one wants to stop and resume: the whole checkpoint is the (small)
auxiliary state plus the current database state.  This module
serialises an :class:`~repro.core.checker.IncrementalChecker` to a
versioned JSON document and restores it to a checker that continues
the run *exactly* where the original left off — the round-trip
property ``resume(save(checker)) ≡ checker`` is verified by property
tests.

Constraints are stored as their concrete syntax (``str(formula)``),
which the parser round-trips; auxiliary relations are stored in the
checker's bottom-up registration order — one per rename-equivalence
class of temporal nodes — which reconstruction reproduces
deterministically from the constraints.  Documents written when every
structurally distinct node had its own entry are told by their length
and still load (:func:`restore_checker`).

Durability is delegated to the :mod:`repro.store` seam:

* every durable record — checkpoint and journal step alike — is a
  framed line carrying a format version, length prefix, and blake2s
  checksum, so torn writes and bit flips are *detected* instead of
  silently corrupting recovery;
* :class:`RunJournal` appends each applied ``(timestamp,
  transaction)`` pair through a :class:`~repro.store.StateStore`
  backend (checksummed segment WAL by default, in-memory for
  ephemeral runs) with periodic atomic checkpoints;
* :func:`recover` restores the newest usable checkpoint — falling
  back to the retained previous generation when the current one is
  damaged — and replays the journal, **leniently**: a damaged record
  truncates the replay at the last valid record, and the count of
  records lost that way is reported as
  :attr:`RecoveryResult.torn_records`.

State is **tiered** by the paper's bounded-history split
(:mod:`repro.core.bounds`): bounded-window ``ONCE``/``SINCE`` state —
at most ``window + 1`` timestamps per valuation, touched every step —
stays in the hot checkpoint document, while the minimal anchors of
*unbounded* operators spill to the store's SQLite cold tier
(:mod:`repro.store.sqlite`), keyed per aux node and bound to the
checkpoint by per-node digests.  ``cold="auto"`` spills whenever the
backend is durable and ``sqlite3`` is available.

Records are appended *after* a step commits, so a quarantined or
faulted input never reaches the journal and a crash mid-step loses at
most that one uncommitted step.

Three durability levels exist.  ``sync=False`` (default) flushes every
record to the OS, which survives a *process* kill but can lose
acknowledged steps to a *host* crash.  ``sync=True`` additionally
``fsync``\\ s every record and checkpoint boundary — unless the
``REPRO_FSYNC=off`` escape hatch downgrades it (test suites).
``sync="force"`` fsyncs regardless of the environment; the chaos and
durability jobs use it so no environment variable can weaken the
property under test.  Shard worker journals (:mod:`repro.shard`)
default to ``sync=True`` because a shard's acknowledgement is consumed
by the supervisor as a durability promise.

A journal directory is guarded by a ``journal.lock`` file stamped with
the owner's ``(pid, process start token)`` — see
:class:`repro.store.JournalLock` — so a second live writer is refused
while a dead owner's lock (even under a recycled pid) is stolen.

Legacy layouts — plain-JSON checkpoints and ``journal.jsonl`` files
written before the framed store existed — are still recovered
(:func:`load_checker` sniffs the format; :func:`recover` falls back to
the legacy reader when the checkpoint is plain JSON).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.auxiliary import OnceState, SinceState
from repro.core.checker import Constraint, IncrementalChecker
from repro.core.parser import parse
from repro.core.violations import RunReport
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.db.types import sorted_rows
from repro.errors import (
    MonitorError,
    RecoveryError,
    ReproError,
    StoreCorruption,
)
from repro.store import (
    JournalLock,
    MemoryStore,
    SegmentStore,
    StateStore,
    StoreSnapshot,
    decode_record,
    encode_record,
    sqlite_available,
)
from repro.store.lock import LOCK_NAME
from repro.store.record import STORE_MAGIC

FORMAT_VERSION = 1

#: File names inside a journal directory.  ``CHECKPOINT_NAME`` is the
#: framed current checkpoint; ``JOURNAL_NAME`` is the *legacy* plain
#: JSONL journal (the segment backend writes ``wal-*.log`` instead).
CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_NAME = "journal.jsonl"

__all__ = [
    "CHECKPOINT_NAME", "JOURNAL_NAME", "LOCK_NAME", "FORMAT_VERSION",
    "JournalLock", "RunJournal", "RecoveryResult", "checkpoint_dict",
    "restore_checker", "save_checker", "load_checker", "recover",
    "tiered_checkpoint", "merge_cold_rows", "cold_node_ids",
]

PathLike = Union[str, Path]


def checkpoint_dict(checker: IncrementalChecker) -> dict:
    """Serialise a checker to a JSON-able checkpoint document."""
    # views and the other derived structures are not checkpointed:
    # each auxiliary state dumps its stored relation and nothing else
    aux_states = [aux.dump() for aux in checker._aux.values()]
    return {
        "version": FORMAT_VERSION,
        "schema": checker.schema.to_dict(),
        "constraints": [
            {"name": c.name, "formula": str(c.formula)}
            for c in checker.constraints
        ],
        "collapse_unbounded": checker.collapse_unbounded,
        "time": checker._time,
        "index": checker._index,
        "state": checker.state.to_dict(),
        "aux": aux_states,
    }


def cold_node_ids(checker: IncrementalChecker) -> List[str]:
    """The aux node ids whose state is cold (unbounded ``ONCE``/``SINCE``).

    The paper's encoding makes the split exact: a bounded-window node
    keeps at most ``window + 1`` timestamps per valuation and is read
    every step (hot), while an unbounded node collapses to one minimal
    anchor per valuation — written once, read only at checkpoint and
    recovery time (cold).  Ids are positional (``aux<i>`` in the
    checker's registration order), the same order the checkpoint
    document's ``aux`` list uses.
    """
    ids = []
    for index, (node, aux) in enumerate(checker._aux.items()):
        if isinstance(aux, (OnceState, SinceState)) and (
            not node.interval.is_bounded
        ):
            ids.append(f"aux{index}")
    return ids


def tiered_checkpoint(
    checker: IncrementalChecker, spill: bool = True
) -> Tuple[dict, Dict[str, list]]:
    """Split a checkpoint into its hot document and cold anchor rows.

    Returns ``(document, cold_rows)``: the document is
    :func:`checkpoint_dict` with each cold node's ``anchors`` replaced
    by ``"cold": true``, and ``cold_rows`` maps the node id to the
    extracted ``[valuation, times]`` rows.  With ``spill=False`` (or
    no cold nodes) the document is the full classic checkpoint and
    ``cold_rows`` is empty.
    """
    document = checkpoint_dict(checker)
    cold_rows: Dict[str, list] = {}
    if not spill:
        return document, cold_rows
    for node_id in cold_node_ids(checker):
        index = int(node_id[len("aux"):])
        entry = document["aux"][index]
        cold_rows[node_id] = entry.pop("anchors")
        entry["cold"] = True
    return document, cold_rows


def merge_cold_rows(document: dict, cold_rows: Dict[str, list]) -> dict:
    """Fold spilled cold rows back into a tiered checkpoint document.

    Raises:
        RecoveryError: a document entry is marked cold but the store
            snapshot carries no rows for it (the cold tier and the
            checkpoint disagree about what was spilled).
    """
    for index, entry in enumerate(document.get("aux") or []):
        if not (isinstance(entry, dict) and entry.get("cold")):
            continue
        node_id = f"aux{index}"
        if node_id not in cold_rows:
            raise RecoveryError(
                f"checkpoint marks {node_id} as spilled but the cold "
                f"tier has no rows for it"
            )
        entry.pop("cold")
        entry["anchors"] = cold_rows[node_id]
    return document


def restore_checker(document: dict) -> IncrementalChecker:
    """Rebuild a checker from a checkpoint document."""
    version = document.get("version")
    if isinstance(version, int) and version > FORMAT_VERSION:
        raise MonitorError(
            f"checkpoint format version {version} is newer than this "
            f"build supports (<= {FORMAT_VERSION}); upgrade the library "
            f"to restore it"
        )
    if version != FORMAT_VERSION:
        raise MonitorError(
            f"unsupported checkpoint version: {version!r}"
        )
    schema = DatabaseSchema.from_dict(
        {
            name: [tuple(a) for a in attrs]
            for name, attrs in document["schema"].items()
        }
    )
    constraints = [
        Constraint(entry["name"], parse(entry["formula"]))
        for entry in document["constraints"]
    ]
    state = DatabaseState.from_rows(
        schema,
        {
            name: [tuple(row) for row in rows]
            for name, rows in document["state"].items()
        },
    )
    checker = IncrementalChecker(
        schema,
        constraints,
        initial=state,
        collapse_unbounded=document["collapse_unbounded"],
    )
    checker._time = document["time"]
    checker._index = document["index"]

    saved = document["aux"]
    nodes = list(checker._aux)
    distinct = list(dict.fromkeys(
        node
        for c in constraints
        for node in c.violation_formula.temporal_subformulas()
    ))
    if len(saved) == len(distinct) != len(nodes):
        # written before one state served a whole rename-equivalence
        # class: one entry per structurally distinct node, in the same
        # bottom-up order.  A non-representative's entry is a renaming
        # of its representative's, so only the representatives' load.
        saved = [
            entry for node, entry in zip(distinct, saved)
            if node in checker._aux
        ]
    elif len(saved) != len(nodes):
        raise MonitorError(
            f"checkpoint has {len(saved)} auxiliary states but the "
            f"constraints define {len(nodes)} (in {len(distinct)} "
            f"temporal nodes)"
        )
    for node, entry in zip(nodes, saved):
        if entry.get("cold") or (
            entry.get("type") != "prev" and "anchors" not in entry
        ):
            raise MonitorError(
                "checkpoint entry was spilled to the cold tier and "
                "never merged back (recover from the store, not "
                "the raw document)"
            )
        checker._aux[node].load(entry)
    return checker


def save_checker(
    checker: IncrementalChecker, path: PathLike, sync=False
) -> None:
    """Write a checker checkpoint to ``path``, atomically and framed.

    The document is wrapped in one checksummed frame (magic + length
    prefix + blake2s digest, :mod:`repro.store.record`), written to a
    sibling temp file, and renamed into place — readers and crash
    recovery only ever see a complete old or complete new checkpoint,
    and any later torn write or bit flip fails the checksum instead of
    parsing as garbage.  ``sync`` follows the store discipline
    (``False`` / ``True`` / ``"force"``).
    """
    from repro.store.base import fsync_dir, fsync_enabled, fsync_file

    path = Path(path)
    fsync = fsync_enabled(sync)
    frame = encode_record({
        "epoch": 0,
        "document": checkpoint_dict(checker),
        "cold": {},
    })
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(frame)
        fh.flush()
        fsync_file(fh, fsync)
    os.replace(tmp, path)
    fsync_dir(path.parent, fsync)


def _checkpoint_frame_document(record: dict, path: Path) -> dict:
    """Unwrap a framed checkpoint record to its document."""
    document = record.get("document")
    if not isinstance(document, dict):
        raise MonitorError(
            f"malformed checkpoint {path}: frame carries no document"
        )
    return document


def load_checker(path: PathLike) -> IncrementalChecker:
    """Restore a checker from a checkpoint file (framed or legacy JSON).

    Raises:
        MonitorError: if the file is missing, unreadable, fails its
            checksum, is not valid JSON, structurally incomplete, or
            written by an unsupported (including newer) format version
            — always with the path and reason; raw
            ``FileNotFoundError``/``JSONDecodeError``/``KeyError``
            never escape.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise MonitorError(
            f"checkpoint {path} does not exist"
        ) from None
    except OSError as exc:
        raise MonitorError(
            f"cannot read checkpoint {path}: {exc}"
        ) from None
    if data.lstrip().startswith(STORE_MAGIC.encode("ascii") + b" "):
        try:
            record = decode_record(data.strip(), path=path, offset=0)
        except StoreCorruption as exc:
            raise MonitorError(
                f"corrupt checkpoint {path}: {exc}"
            ) from None
        document = _checkpoint_frame_document(record, path)
    else:
        # legacy plain-JSON checkpoint (pre-store format)
        try:
            document = json.loads(data.decode("utf-8", errors="strict"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise MonitorError(
                f"malformed checkpoint {path}: not valid JSON ({exc})"
            ) from None
        if not isinstance(document, dict):
            raise MonitorError(
                f"malformed checkpoint {path}: expected a JSON object, "
                f"got {type(document).__name__}"
            )
    try:
        return restore_checker(document)
    except (KeyError, TypeError, AttributeError) as exc:
        raise MonitorError(
            f"malformed checkpoint {path}: missing or ill-typed field "
            f"({type(exc).__name__}: {exc})"
        ) from None


# ----------------------------------------------------------------------
# journaled auto-checkpointing
# ----------------------------------------------------------------------


class RunJournal:
    """Write-ahead journal + periodic atomic checkpoints for one run.

    Attach it to a checker, then call :meth:`record` after every
    committed step: the pair is appended through the store backend and
    every ``checkpoint_every`` records a fresh atomic checkpoint is
    written and the journal segment rotated.  The directory is
    therefore always recoverable to the last *completed* step via
    :func:`recover`.

    Args:
        directory: store directory (required for the segment backend;
            ignored by an explicit in-memory backend).
        checkpoint_every: automatic checkpoint period, in records.
        sync: durability level (``False`` / ``True`` / ``"force"``,
            see the module docstring).
        backend: ``"segment"`` (durable, default), ``"memory"``, or a
            ready-made :class:`~repro.store.StateStore` instance.
        cold: spill unbounded-operator anchors to the store's SQLite
            cold tier — ``"auto"`` (default: spill when the backend is
            durable and ``sqlite3`` exists), ``True`` (require the
            tier), or ``False`` (keep everything in the hot document).
        failpoints: storage failpoint names forwarded to the segment
            backend (chaos tests).
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        checkpoint_every: int = 64,
        sync=False,
        backend="segment",
        cold="auto",
        failpoints=(),
    ):
        if not isinstance(checkpoint_every, int) or checkpoint_every < 1:
            raise MonitorError(
                f"checkpoint_every must be a positive int, "
                f"got {checkpoint_every!r}"
            )
        self.directory = Path(directory) if directory is not None else None
        self.checkpoint_every = checkpoint_every
        #: durability level, passed through to the backend
        self.sync = sync
        if isinstance(backend, StateStore):
            self.store = backend
        elif backend == "memory":
            self.store = MemoryStore()
        elif backend == "segment":
            if self.directory is None:
                raise MonitorError(
                    "the segment journal backend needs a directory"
                )
            self.store = SegmentStore(
                self.directory, sync=sync, failpoints=failpoints
            )
        else:
            raise MonitorError(
                f"unknown journal backend {backend!r}; expected "
                f"'segment', 'memory', or a StateStore instance"
            )
        if cold == "auto":
            self._spill = self.store.durable and sqlite_available()
        elif cold:
            if not sqlite_available():  # pragma: no cover - stdlib absent
                raise MonitorError(
                    "cold=True requires the sqlite3 module"
                )
            self._spill = True
        else:
            self._spill = False
        #: set by an owner that commits in groups (a shard worker, once
        #: per frame): :meth:`record` then only writes, and a step is
        #: durable once the owner's :meth:`commit` returns
        self.group_commit = False
        self.records_written = 0
        self.checkpoints_written = 0
        self._since_checkpoint = 0

    @property
    def spills_cold(self) -> bool:
        """Whether checkpoints spill cold anchors to the SQLite tier."""
        return self._spill

    @property
    def checkpoint_path(self) -> Optional[Path]:
        """Path of the current checkpoint file (None for in-memory)."""
        return getattr(self.store, "checkpoint_path", None)

    @property
    def journal_path(self) -> Optional[Path]:
        """Path of the active journal segment (None for in-memory)."""
        return getattr(self.store, "journal_path", None)

    @property
    def steps_since_checkpoint(self) -> int:
        """Journaled steps not yet covered by a checkpoint (the
        checkpoint's age — how much replay a crash right now would
        cost)."""
        return self._since_checkpoint

    def attach(self, checker: IncrementalChecker) -> None:
        """Write an initial checkpoint of ``checker``."""
        self.checkpoint(checker)

    def record(
        self,
        time: int,
        txn: Transaction,
        checker: IncrementalChecker,
    ) -> bool:
        """Journal one applied step; maybe auto-checkpoint.

        Returns:
            True when this record triggered an automatic checkpoint.
        """
        store = self.store
        # the rows go to the encoder as sorted tuples: the JSON arrays
        # of ``txn.to_dict()`` without a list built per row
        store.write({
            "t": time,
            "insert": sorted_rows(txn.inserts),
            "delete": sorted_rows(txn.deletes),
        })
        if not self.group_commit:
            store.commit()
        self.records_written += 1
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint(checker)
            return True
        return False

    def commit(self) -> None:
        """Make every recorded step durable (``group_commit`` owners)."""
        self.store.commit()

    def checkpoint(self, checker: IncrementalChecker) -> None:
        """Write an atomic checkpoint now and rotate the journal.

        The checkpoint commits *before* old journal segments are
        reclaimed; a crash between the two leaves records that are
        already covered by the checkpoint, which :func:`recover`
        detects by timestamp and skips.
        """
        document, cold_rows = tiered_checkpoint(
            checker, spill=self._spill
        )
        self.store.checkpoint(document, cold_rows)
        self.checkpoints_written += 1
        self._since_checkpoint = 0

    def abandon(self) -> None:
        """Simulate this journal's process dying (chaos tests): leave
        every on-disk artifact as a kill would, but drop the writer
        lock's in-process claim so recovery in this same process can
        steal it like a respawn."""
        self.store.abandon()

    def close(self) -> None:
        """Flush and close the backend; release the writer lock."""
        self.store.close()

    def __repr__(self) -> str:
        return (
            f"RunJournal({self.directory}, "
            f"every={self.checkpoint_every}, "
            f"backend={type(self.store).__name__}, "
            f"{self.records_written} record(s), "
            f"{self.checkpoints_written} checkpoint(s))"
        )


class RecoveryResult:
    """Outcome of :func:`recover`: the restored checker plus replay facts."""

    __slots__ = (
        "checker", "replayed", "checkpoint_time", "journal_entries",
        "torn_records", "fallback",
    )

    def __init__(
        self,
        checker: IncrementalChecker,
        replayed: RunReport,
        checkpoint_time: Optional[int],
        journal_entries: int,
        torn_records: int = 0,
        fallback: bool = False,
    ):
        #: the restored checker, positioned at the last completed step
        self.checker = checker
        #: step reports produced while replaying the journal
        self.replayed = replayed
        #: checker time as of the restored checkpoint (before replay)
        self.checkpoint_time = checkpoint_time
        #: journal records replayed on top of the checkpoint
        self.journal_entries = journal_entries
        #: journal records lost to damage (truncated at the last valid
        #: record); 0 for a clean directory
        self.torn_records = torn_records
        #: True when the current checkpoint was damaged and the
        #: retained previous generation was restored instead
        self.fallback = fallback

    def __repr__(self) -> str:
        extra = ""
        if self.torn_records:
            extra += f", {self.torn_records} torn"
        if self.fallback:
            extra += ", fallback"
        return (
            f"RecoveryResult(checkpoint t={self.checkpoint_time}, "
            f"replayed {self.journal_entries} journal record(s), "
            f"now at t={self.checker.now}{extra})"
        )


def _legacy_snapshot(directory: Path) -> StoreSnapshot:
    """Snapshot of a pre-store layout: plain-JSON checkpoint + JSONL
    journal, read with the same lenient truncate-to-last-valid rule."""
    try:
        checker_doc = json.loads(
            (directory / CHECKPOINT_NAME).read_text()
        )
    except (OSError, ValueError) as exc:
        raise RecoveryError(
            f"cannot recover from {directory}: malformed legacy "
            f"checkpoint: {exc}"
        ) from None
    records: List[dict] = []
    torn = 0
    journal = directory / JOURNAL_NAME
    if journal.exists():
        lines = [
            line for line in journal.read_text().splitlines()
            if line.strip()
        ]
        for position, line in enumerate(lines):
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or not isinstance(
                    record.get("t"), int
                ):
                    raise ValueError("not a journal record")
            except ValueError:
                torn = len(lines) - position
                break
            records.append(record)
    return StoreSnapshot(checker_doc, records=records, torn_records=torn)


def _load_snapshot(directory: Path) -> StoreSnapshot:
    """The directory's recoverable state, via the store or legacy path."""
    checkpoint = directory / CHECKPOINT_NAME
    if checkpoint.exists():
        try:
            with open(checkpoint, "rb") as fh:
                head = fh.read(len(STORE_MAGIC) + 1)
        except OSError:
            head = b""
        if head.lstrip()[:1] == b"{":
            return _legacy_snapshot(directory)
    with SegmentStore(directory, lock=False) as store:
        return store.load()


def recover(directory: PathLike) -> RecoveryResult:
    """Restore a crashed run from its journal directory, leniently.

    Loads the newest usable checkpoint (falling back to the retained
    previous generation when the current one fails its checksum or its
    cold-tier digests), merges spilled cold anchors back in, then
    replays every retained journal record whose timestamp lies after
    the checkpoint (records at or before it are left-overs of a crash
    between checkpoint-write and segment-reclaim, and are skipped).
    Journal damage does not abort recovery: the replay is truncated at
    the last valid record and the loss reported via
    :attr:`RecoveryResult.torn_records`.  The returned checker is
    bit-for-bit the checker of an uninterrupted run over the same
    prefix — the chaos suite asserts this across crash points and
    injected corruptions.

    Raises:
        RecoveryError: if no usable checkpoint survives (both
            generations missing or damaged), or a verified journal
            record does not replay against the restored state.
    """
    directory = Path(directory)
    snapshot = _load_snapshot(directory)
    if snapshot.document is None:
        raise RecoveryError(
            f"cannot recover from {directory}: no usable checkpoint "
            f"(missing, or every generation failed verification)"
        )
    try:
        document = merge_cold_rows(snapshot.document, snapshot.cold_rows)
        checker = restore_checker(document)
    except RecoveryError:
        raise
    except (MonitorError, KeyError, TypeError, AttributeError) as exc:
        raise RecoveryError(
            f"cannot recover from {directory}: {exc}"
        ) from None
    checkpoint_time = checker.now
    replayed = RunReport()
    entries = 0
    for record in snapshot.records:
        time = record.get("t")
        if not isinstance(time, int):
            raise RecoveryError(
                f"{directory}: journal record lacks an integer "
                f"timestamp: {record!r}"
            )
        if checker.now is not None and time <= checker.now:
            continue  # already covered by the checkpoint
        try:
            txn = Transaction.from_dict(record)
            replayed.add(checker.step(time, txn))
        except ReproError as exc:
            raise RecoveryError(
                f"{directory}: journal record at t={time} does not "
                f"replay against the restored checkpoint: {exc}"
            ) from None
        entries += 1
    return RecoveryResult(
        checker, replayed, checkpoint_time, entries,
        torn_records=snapshot.torn_records,
        fallback=snapshot.fallback,
    )
