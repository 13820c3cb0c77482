"""Relation instances: sets of rows plus lazy hash indexes.

A :class:`Relation` couples a :class:`~repro.db.schema.RelationSchema`
with a set of rows.  :meth:`Relation.with_changes` is pure: it leaves
the relation as it is and returns a successor that validates only the
rows it did not already hold, which is what the engines that keep a
history of states build on.  The incremental checker keeps one state
and owns it: a relation made by :meth:`Relation.owned_copy` is changed
in place (:meth:`Relation.patch`), rows and the touched buckets of its
per-attribute hash indexes alike, so selective lookups (the common case
in constraint checking) stay constant-time from step to step.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.db.algebra import Delta, Index, Rows, Table, effective_change
from repro.db.schema import RelationSchema
from repro.db.types import Row, Value


class Relation:
    """A relation instance: immutable unless it is an owned copy."""

    __slots__ = ("schema", "rows", "_table")

    def __init__(self, schema: RelationSchema, rows: Iterable[Row] = ()):
        frozen = frozenset(tuple(r) for r in rows)
        schema.validate_rows(frozen)
        self._hold(schema, Table._trusted(schema.attribute_names, frozen))

    def _hold(self, schema: RelationSchema, table: Table) -> "Relation":
        self.schema = schema
        #: rows (valid ones) and lazily built indexes live in a table
        self._table = table
        self.rows: Rows = table.rows
        return self

    def owned_copy(self) -> "Relation":
        """A copy the caller may :meth:`patch`."""
        return object.__new__(Relation)._hold(
            self.schema, Table.owned(self._table.columns, self.rows)
        )

    @property
    def name(self) -> str:
        """The relation's name (from its schema)."""
        return self.schema.name

    @property
    def cardinality(self) -> int:
        """Number of rows."""
        return len(self.rows)

    def index_on(self, position: int) -> Index:
        """Return (building if needed) the hash index on ``position``."""
        return self._table._index_at((position,))

    def lookup(self, position: int, value: Value) -> Rows:
        """Rows whose attribute at ``position`` equals ``value`` (of an
        owned copy: as they are until its next patch)."""
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
        self.schema.validate_rows(added)
        return self._changed(added, removed)

    def _changed(self, added: Rows, removed: Rows) -> "Relation":
        """The successor by an *effective* change of valid rows:
        ``added`` are not held, ``removed`` are."""
        if not added and not removed:
            return self
        rows = self.rows
        return object.__new__(Relation)._hold(self.schema, Table._trusted(
            self._table.columns,
            (rows - removed) | added if removed else rows | added,
        ))

    def patch(self, inserts: Iterable[Row], deletes: Iterable[Row]) -> Delta:
        """Take ``deletes`` out and put ``inserts`` (valid rows) in, in
        place, indexes included; owned copies only.  Returns the
        effective change ``(rows gained, rows lost)``."""
        return self._table.patch(inserts, deletes)

    def to_table(self) -> Table:
        """View this relation as an algebra table (columns = attributes)."""
        return self._table.snapshot()

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
        return hash((self.schema, frozenset(self.rows)))

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self.rows)} rows)"
