"""Persistence of schemas and update streams as JSON / JSON-lines.

The on-disk format is the one consumed by the CLI:

* ``schema.json`` — the :meth:`DatabaseSchema.to_dict` form,
  ``{"relation": [["attr", "domain"], ...], ...}``;
* ``history.jsonl`` — one JSON object per line, each
  ``{"t": <timestamp>, "insert": {rel: [rows]}, "delete": {rel: [rows]}}``,
  timestamps strictly increasing.

Only the *stream* (timestamps + transactions) is stored; states are
reconstructed by replay, which is both smaller on disk and exactly the
input shape of the incremental checker.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Tuple, Union

from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import HistoryError, ReproError

PathLike = Union[str, Path]

#: One element of an update stream: (timestamp, transaction).
TimedTransaction = Tuple[int, Transaction]

#: What decoding one line raises when the line is not a record: bad
#: JSON or shape, or rows no transaction takes (an illegal value such as
#: NaN or a bool, a row both inserted and deleted).
_MALFORMED = (ValueError, KeyError, TypeError, ReproError)


def dump_schema(schema: DatabaseSchema, path: PathLike) -> None:
    """Write ``schema`` to ``path`` as JSON."""
    Path(path).write_text(
        json.dumps(schema.to_dict(), indent=2, sort_keys=True) + "\n"
    )


def load_schema(path: PathLike) -> DatabaseSchema:
    """Read a schema written by :func:`dump_schema`."""
    data = json.loads(Path(path).read_text())
    return DatabaseSchema.from_dict(
        {name: [tuple(a) for a in attrs] for name, attrs in data.items()}
    )


def dump_stream(stream: Iterable[TimedTransaction], path: PathLike) -> None:
    """Write an update stream to ``path`` as JSON lines."""
    with open(path, "w") as fh:
        write_stream(stream, fh)


def write_stream(stream: Iterable[TimedTransaction], fh: IO[str]) -> None:
    """Write an update stream to an open text file."""
    for t, txn in stream:
        record = {"t": t}
        record.update(txn.to_dict())
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")


def load_stream(path: PathLike) -> List[TimedTransaction]:
    """Read the whole update stream from ``path``.

    Raises:
        HistoryError: on malformed lines or non-increasing timestamps.
    """
    with open(path) as fh:
        return list(read_stream(fh))


def read_stream(fh: IO[str]) -> Iterator[TimedTransaction]:
    """Lazily read an update stream from an open text file."""
    previous_t = None
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
            t = record["t"]
            txn = Transaction.from_dict(record)
        except _MALFORMED as exc:
            raise HistoryError(f"line {lineno}: malformed record: {exc}")
        if not isinstance(t, int) or t < 0:
            raise HistoryError(
                f"line {lineno}: timestamp must be a non-negative int, "
                f"got {t!r}"
            )
        if previous_t is not None and t <= previous_t:
            raise HistoryError(
                f"line {lineno}: timestamp {t} not greater than "
                f"predecessor {previous_t}"
            )
        previous_t = t
        yield t, txn


def dump_arrivals(
    arrivals: Iterable[Tuple[int, Transaction, str]], path: PathLike
) -> None:
    """Write an *arrival* sequence (a perturbed delivery order).

    Same line format as :func:`dump_stream` plus a ``"source"`` field;
    unlike a history file, timestamps need not increase — the file
    records deliveries as the wire saw them, for ``repro ingest`` to
    reorder.
    """
    with open(path, "w") as fh:
        for t, txn, source in arrivals:
            record = {"t": t, "source": source}
            record.update(txn.to_dict())
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_arrivals(
    path: PathLike, default_source: str = "default"
) -> Iterator[Tuple[object, object, str]]:
    """Lazily read arrivals written by :func:`dump_arrivals`.

    Deliberately lenient: timestamps are passed through unvalidated
    and undecodable lines come out as ``(None, <raw line>,
    default_source)`` garbage arrivals — the ingest reorderer is the
    validation boundary and must see every record to account for it.
    Records without a ``"source"`` field are tagged ``default_source``.
    """
    with open(path) as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                record = json.loads(stripped)
                t = record["t"]
                txn = Transaction.from_dict(record)
                source = record.get("source", default_source)
            except _MALFORMED:
                yield None, stripped, default_source
                continue
            if not isinstance(source, str):
                source = str(source)
            yield t, txn, source


class StreamFault:
    """A stream line that could not be decoded (lenient reading only)."""

    __slots__ = ("lineno", "reason", "line")

    def __init__(self, lineno: int, reason: str, line: str):
        self.lineno = lineno
        self.reason = reason
        self.line = line

    def __repr__(self) -> str:
        return f"StreamFault(line {self.lineno}: {self.reason})"


def iter_stream_lenient(
    path: PathLike,
) -> Iterator[Union[TimedTransaction, StreamFault]]:
    """Read an update stream without dying on the first bad line.

    Yields ``(t, txn)`` pairs for decodable records and
    :class:`StreamFault` markers for undecodable ones, in file order.
    Unlike :func:`read_stream`, timestamps are *not* checked for
    monotonicity here — that is the monitor's clock validation, and
    under a fault policy it must reach the monitor to be counted and
    quarantined rather than abort the read.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                record = json.loads(stripped)
                t = record["t"]
                txn = Transaction.from_dict(record)
            except _MALFORMED as exc:
                yield StreamFault(
                    lineno, f"malformed record: {exc}", stripped
                )
                continue
            if not isinstance(t, int):
                yield StreamFault(
                    lineno,
                    f"timestamp must be an int, got {t!r}",
                    stripped,
                )
                continue
            yield t, txn
