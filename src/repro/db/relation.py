"""Relation instances: immutable sets of rows plus lazy hash indexes.

A :class:`Relation` couples a :class:`~repro.db.schema.RelationSchema`
with a set of rows.  Instances are immutable; an update produces a new
relation that validates only the rows it did not already hold, carries
the hash indexes forward with only the touched buckets rebuilt, and
remembers what really changed (:meth:`Relation.delta_from`).  Because
instances never change, per-attribute hash indexes can be built lazily
and cached forever, which keeps selective lookups (the common case in
constraint checking) constant-time.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.db.algebra import (
    Table,
    build_index,
    effective_change,
    patch_index,
    remembered_delta,
)
from repro.db.schema import RelationSchema
from repro.db.types import Row, Value


class Relation:
    """An immutable relation instance."""

    __slots__ = ("schema", "rows", "_indexes", "_patch")

    def __init__(self, schema: RelationSchema, rows: Iterable[Row] = ()):
        frozen = frozenset(tuple(r) for r in rows)
        for r in frozen:
            schema.validate_row(r)
        self.schema = schema
        self.rows: FrozenSet[Row] = frozen
        self._indexes: Dict[int, Dict[Value, FrozenSet[Row]]] = {}
        #: ``(predecessor rows, added, removed)`` when built by
        #: ``with_changes``
        self._patch: Optional[tuple] = None

    @property
    def name(self) -> str:
        """The relation's name (from its schema)."""
        return self.schema.name

    @property
    def cardinality(self) -> int:
        """Number of rows."""
        return len(self.rows)

    def index_on(self, position: int) -> Dict[Value, FrozenSet[Row]]:
        """Return (building if needed) the hash index on ``position``."""
        cached = self._indexes.get(position)
        if cached is None:
            cached = self._indexes[position] = build_index(
                self.rows, (position,)
            )
        return cached

    def lookup(self, position: int, value: Value) -> FrozenSet[Row]:
        """Rows whose attribute at ``position`` equals ``value``."""
        return self.index_on(position).get(value, frozenset())

    def with_changes(
        self,
        inserts: Iterable[Row] = (),
        deletes: Iterable[Row] = (),
    ) -> "Relation":
        """Return a new relation with ``deletes`` removed, ``inserts`` added.

        Deletes of absent rows and inserts of present rows are silently
        idempotent, matching set semantics: only rows this relation did
        not already hold are validated, and a change that changes
        nothing returns ``self``.
        """
        added, removed = effective_change(
            self.rows,
            (tuple(r) for r in inserts),
            [tuple(r) for r in deletes],
        )
        for r in added:
            self.schema.validate_row(r)
        return self._changed(added, removed)

    def _changed(
        self, added: FrozenSet[Row], removed: FrozenSet[Row]
    ) -> "Relation":
        """The successor by an *effective* change of valid rows:
        ``added`` are not held, ``removed`` are."""
        if not added and not removed:
            return self
        rows = self.rows
        successor = object.__new__(Relation)
        successor.schema = self.schema
        successor.rows = (rows - removed) | added if removed else rows | added
        successor._indexes = {
            position: patch_index(index, (position,), added, removed)
            for position, index in self._indexes.items()
        }
        successor._patch = (rows, added, removed)
        return successor

    def delta_from(
        self, previous: "Relation"
    ) -> Tuple[FrozenSet[Row], FrozenSet[Row]]:
        """``(added, removed)``: the rows really gained and lost since
        ``previous`` (an earlier instance of the same relation).

        O(1) when this is ``previous`` or its direct
        :meth:`with_changes` successor; a set difference otherwise.
        """
        return remembered_delta(self.rows, self._patch, previous.rows)

    def to_table(self) -> Table:
        """View this relation as an algebra table (columns = attributes)."""
        return Table(self.schema.attribute_names, self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self.schema == other.schema
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.rows))

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self.rows)} rows)"
