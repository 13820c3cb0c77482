"""The SQLite cold tier: minimal anchor tuples, out of the checkpoint.

The paper's bounded-history encoding splits auxiliary state sharply:
bounded-window ``ONCE``/``SINCE`` nodes keep at most ``window + 1``
timestamps per valuation (hot, small, touched every step), while
*unbounded* nodes collapse to one minimal anchor per valuation — rows
that are written once and then only read at checkpoint/recovery time.
Keeping those cold anchors inside the JSON checkpoint makes checkpoint
cost grow with total history coverage; spilling them here makes the
hot checkpoint size track only the bounded horizon.

Layout (generational, append-then-vacuum — no in-place updates, so a
crash can never half-overwrite a committed generation):

* ``cold_rows(gen, node, payload, checksum)`` — one row per anchor
  valuation, ``payload`` the canonical JSON ``[valuation, times]``,
  ``checksum`` its blake2s-64;
* ``cold_meta(gen, node, row_count, digest)`` — per node and
  generation, the row count and the digest of the sorted row
  checksums.

The checkpoint frame that references generation ``g`` embeds the same
``cold_meta`` mapping, so the binding is verified in both directions
at load: every row must match its own checksum, the rows of each node
must hash to the digest the checkpoint expects, and no node may be
missing or spurious.  Any mismatch is :class:`StoreCorruption` and the
segment store falls back to the previous generation.

``sqlite3`` is standard library but gated anyway: without it the
store still works, it simply keeps cold rows in the hot checkpoint
(``persist`` only spills when the tier is available).
"""

from __future__ import annotations

import hashlib
import json
from importlib.util import find_spec
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import StoreCorruption, StoreError
from repro.store.base import fsync_enabled
from repro.store.record import canonical_json, payload_digest

PathLike = Union[str, Path]


def sqlite_available() -> bool:
    """Whether the cold tier can be used in this interpreter.

    Asks for the C extension (what a build without SQLite lacks)
    without importing it: ``sqlite3`` is loaded by the first
    :class:`ColdAnchorStore`, when a checkpoint spills or reads cold
    rows, not by every journal.
    """
    return find_spec("_sqlite3") is not None


def _node_digest(checksums: List[str]) -> str:
    """Digest of one node's generation: blake2s over sorted row sums."""
    h = hashlib.blake2s(digest_size=8)
    for checksum in sorted(checksums):
        h.update(checksum.encode("ascii"))
    return h.hexdigest()


class ColdAnchorStore:
    """Generational SQLite table of cold anchor rows.

    ``sync`` follows the store discipline (``False`` / ``True`` /
    ``"force"``); it is resolved here, once, into the connection's
    ``PRAGMA synchronous``.
    """

    def __init__(self, path: PathLike, sync=False):
        try:
            import sqlite3
        except ImportError:  # pragma: no cover - stdlib module absent
            raise StoreError(
                "sqlite3 is unavailable in this interpreter; "
                "the cold anchor tier cannot be used"
            ) from None
        #: what a damaged database file raises (for the methods below)
        self._database_error = sqlite3.DatabaseError
        self.path = Path(path)
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:
            raise StoreCorruption(
                f"cold tier {self.path} cannot be opened: {exc}",
                kind="garbled", path=self.path,
            ) from None
        try:
            self._conn.execute(
                "PRAGMA synchronous = %s"
                % ("FULL" if fsync_enabled(sync) else "OFF")
            )
            self._conn.executescript(
                """
                CREATE TABLE IF NOT EXISTS cold_rows (
                    gen INTEGER NOT NULL,
                    node TEXT NOT NULL,
                    payload TEXT NOT NULL,
                    checksum TEXT NOT NULL
                );
                CREATE INDEX IF NOT EXISTS cold_rows_gen
                    ON cold_rows (gen, node);
                CREATE TABLE IF NOT EXISTS cold_meta (
                    gen INTEGER NOT NULL,
                    node TEXT NOT NULL,
                    row_count INTEGER NOT NULL,
                    digest TEXT NOT NULL,
                    PRIMARY KEY (gen, node)
                );
                """
            )
        except sqlite3.DatabaseError as exc:
            raise StoreCorruption(
                f"cold tier {self.path} is not a readable database: {exc}",
                kind="garbled", path=self.path,
            ) from None

    def write_generation(self, gen: int,
                         rows: Dict[str, list]) -> Dict[str, dict]:
        """Write one full cold generation; returns its meta mapping.

        The returned ``{node: {"rows": n, "digest": d}}`` mapping is
        what the checkpoint frame embeds — the cross-file binding that
        lets recovery verify the tier against the checkpoint.
        """
        meta: Dict[str, dict] = {}
        with self._conn:
            # overwrite any half-written attempt at this generation
            # from a crash before the checkpoint rename committed it
            self._conn.execute(
                "DELETE FROM cold_rows WHERE gen = ?", (gen,)
            )
            self._conn.execute(
                "DELETE FROM cold_meta WHERE gen = ?", (gen,)
            )
            for node, anchors in sorted(rows.items()):
                payloads = list(map(canonical_json, anchors))
                checksums = [
                    payload_digest(payload.encode("ascii"))
                    for payload in payloads
                ]
                self._conn.executemany(
                    "INSERT INTO cold_rows (gen, node, payload, "
                    "checksum) VALUES (?, ?, ?, ?)",
                    [(gen, node, payload, checksum)
                     for payload, checksum in zip(payloads, checksums)],
                )
                meta[node] = {
                    "rows": len(checksums),
                    "digest": _node_digest(checksums),
                }
            self._conn.executemany(
                "INSERT INTO cold_meta (gen, node, row_count, "
                "digest) VALUES (?, ?, ?, ?)",
                [(gen, node, entry["rows"], entry["digest"])
                 for node, entry in meta.items()],
            )
        return meta

    def read_generation(self, gen: int,
                        expected: Optional[Dict[str, dict]] = None,
                        ) -> Dict[str, list]:
        """Read one generation back, verifying every checksum.

        Args:
            expected: the meta mapping the referencing checkpoint
                embeds; when given, node set, row counts, and digests
                must all match.

        Raises:
            StoreCorruption: any row whose payload fails its checksum,
                any node whose digest disagrees with ``cold_meta`` or
                with ``expected``, or a node set mismatch.
        """
        try:
            cursor = self._conn.execute(
                "SELECT node, payload, checksum FROM cold_rows "
                "WHERE gen = ? ORDER BY node, payload",
                (gen,),
            )
            raw = cursor.fetchall()
            meta_rows = self._conn.execute(
                "SELECT node, row_count, digest FROM cold_meta "
                "WHERE gen = ?",
                (gen,),
            ).fetchall()
        except self._database_error as exc:
            raise StoreCorruption(
                f"cold tier {self.path} unreadable at generation "
                f"{gen}: {exc}",
                kind="garbled", path=self.path,
            ) from None
        rows: Dict[str, list] = {}
        checksums: Dict[str, List[str]] = {}
        for node, payload, checksum in raw:
            if payload_digest(payload.encode("ascii")) != checksum:
                raise StoreCorruption(
                    f"cold tier {self.path} gen {gen} node {node}: "
                    f"row checksum mismatch (bit flip or edit)",
                    kind="checksum", path=self.path,
                )
            try:
                anchor = json.loads(payload)
            except ValueError:  # pragma: no cover - digest matched
                raise StoreCorruption(
                    f"cold tier {self.path} gen {gen} node {node}: "
                    f"row payload is not JSON",
                    kind="garbled", path=self.path,
                ) from None
            rows.setdefault(node, []).append(anchor)
            checksums.setdefault(node, []).append(checksum)
        stored_meta = {
            node: {"rows": count, "digest": digest}
            for node, count, digest in meta_rows
        }
        # a node may legitimately have zero anchors this generation:
        # it then appears in the meta but contributes no rows
        for node in set(stored_meta) | set(expected or {}):
            rows.setdefault(node, [])
            checksums.setdefault(node, [])
        for reference, source in (
            (stored_meta, "cold_meta"),
            (expected if expected is not None else stored_meta,
             "the referencing checkpoint"),
        ):
            if set(reference) != set(rows) and (reference or rows):
                raise StoreCorruption(
                    f"cold tier {self.path} gen {gen}: node set "
                    f"disagrees with {source} "
                    f"({sorted(reference)} vs {sorted(rows)})",
                    kind="checksum", path=self.path,
                )
            for node, entry in reference.items():
                found = checksums.get(node, [])
                if (entry.get("rows") != len(found)
                        or entry.get("digest") != _node_digest(found)):
                    raise StoreCorruption(
                        f"cold tier {self.path} gen {gen} node "
                        f"{node}: digest disagrees with {source}",
                        kind="checksum", path=self.path,
                    )
        return rows

    def generations(self) -> List[int]:
        """Generations with any metadata, oldest first."""
        try:
            cursor = self._conn.execute(
                "SELECT DISTINCT gen FROM cold_meta ORDER BY gen"
            )
            return [gen for (gen,) in cursor.fetchall()]
        except self._database_error as exc:
            raise StoreCorruption(
                f"cold tier {self.path} unreadable: {exc}",
                kind="garbled", path=self.path,
            ) from None

    def vacuum(self, horizon: int) -> int:
        """Drop generations below ``horizon``; returns rows deleted."""
        with self._conn:
            cursor = self._conn.execute(
                "DELETE FROM cold_rows WHERE gen < ?", (horizon,)
            )
            self._conn.execute(
                "DELETE FROM cold_meta WHERE gen < ?", (horizon,)
            )
        return cursor.rowcount

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self) -> str:
        return f"ColdAnchorStore({self.path})"
