"""Database states.

A :class:`DatabaseState` is one snapshot of the database: every relation
of the schema with its current rows.  :meth:`DatabaseState.apply` is
pure: it yields a new state that shares the relation objects the
:class:`~repro.db.transactions.Transaction` did not touch, so keeping a
window of recent states (as the naive checker does) costs memory only
proportional to the changes between them.  An engine that keeps one
state and nothing before it takes an :meth:`DatabaseState.owned_copy`
and changes that in place (:meth:`DatabaseState.patch`), at the cost of
the rows the transaction really changes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Set

from repro.db.algebra import Delta, effective_change
from repro.db.relation import Relation
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.db.types import Row, Value, sorted_rows
from repro.errors import UnknownRelationError


class DatabaseState:
    """One snapshot of all relations declared by a schema (immutable
    unless it is an owned copy)."""

    __slots__ = ("schema", "_relations")

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Optional[Mapping[str, Relation]] = None,
    ):
        rels: Dict[str, Relation] = {}
        provided = dict(relations or {})
        for rs in schema:
            rel = provided.pop(rs.name, None)
            if rel is None:
                rel = Relation(rs)
            elif rel.schema != rs:
                raise UnknownRelationError(
                    f"relation {rs.name!r} instance does not match schema"
                )
            rels[rs.name] = rel
        if provided:
            raise UnknownRelationError(
                f"relations not in schema: {sorted(provided)}"
            )
        self.schema = schema
        self._relations = rels

    @classmethod
    def empty(cls, schema: DatabaseSchema) -> "DatabaseState":
        """The state in which every relation is empty."""
        return cls(schema)

    @classmethod
    def from_rows(
        cls,
        schema: DatabaseSchema,
        contents: Mapping[str, Iterable[Row]],
    ) -> "DatabaseState":
        """Build a state from ``{relation: rows}``; absent relations empty."""
        rels = {
            name: Relation(schema.relation(name), rows)
            for name, rows in contents.items()
        }
        return cls(schema, rels)

    def relation(self, name: str) -> Relation:
        """Look up a relation instance by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(
                f"state has no relation {name!r}"
            ) from None

    def apply(self, txn: Transaction) -> "DatabaseState":
        """Return the successor state after ``txn``.

        Untouched relations are shared between the two states.
        """
        # every row is validated here, once, before any relation
        # changes; the relations then take the rows as they are
        txn.validate(self.schema)
        if txn.is_noop:
            return self
        new_rels = dict(self._relations)
        for name in txn.touched_relations():
            relation = self._relations[name]
            new_rels[name] = relation._changed(
                *effective_change(
                    relation.rows,
                    txn.inserts.get(name, ()),
                    txn.deletes.get(name, ()),
                )
            )
        return self._of(new_rels)

    def _of(self, relations: Dict[str, Relation]) -> "DatabaseState":
        """A state of the same schema over ``relations`` of it."""
        state = object.__new__(DatabaseState)
        state.schema = self.schema
        state._relations = relations
        return state

    def owned_copy(self) -> "DatabaseState":
        """A copy the caller may :meth:`patch`: nothing of it is shared
        with this state."""
        return self._of(
            {name: r.owned_copy() for name, r in self._relations.items()}
        )

    def patch(self, txn: Transaction) -> Dict[str, Delta]:
        """Apply ``txn`` to this state itself (owned copies only).

        Returns the effective change: for each relation that really
        differs afterwards, the rows ``(added, removed)``.  Every row is
        validated before any relation changes, so a transaction that
        raises leaves the state as it was.
        """
        txn.validate(self.schema)
        changes = {}
        for name in txn.touched_relations():
            change = self._relations[name].patch(
                txn.inserts.get(name, ()), txn.deletes.get(name, ())
            )
            if change[0] or change[1]:
                changes[name] = change
        return changes

    def diff(self, successor: "DatabaseState") -> Transaction:
        """The transaction turning this state into ``successor``."""
        inserts: Dict[str, Set[Row]] = {}
        deletes: Dict[str, Set[Row]] = {}
        for name, rel in self._relations.items():
            other = successor.relation(name)
            if rel.rows is other.rows:
                continue
            added = other.rows - rel.rows
            removed = rel.rows - other.rows
            if added:
                inserts[name] = set(added)
            if removed:
                deletes[name] = set(removed)
        return Transaction(inserts, deletes)

    def active_domain(self) -> FrozenSet[Value]:
        """All values appearing anywhere in the state."""
        values: Set[Value] = set()
        for rel in self._relations.values():
            for row in rel.rows:
                values.update(row)
        return frozenset(values)

    @property
    def total_rows(self) -> int:
        """Total tuple count across all relations."""
        return sum(len(r) for r in self._relations.values())

    def cardinalities(self) -> Dict[str, int]:
        """Per-relation row counts."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def to_dict(self) -> Dict[str, list]:
        """Serialise contents to ``{relation: sorted row lists}``."""
        ordered = sorted_rows({
            name: rel.rows
            for name, rel in self._relations.items()
            if rel.rows
        })
        return {name: list(map(list, rows)) for name, rows in ordered.items()}

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatabaseState)
            and self.schema == other.schema
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash(
            (self.schema, frozenset(self._relations.items()))
        )

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{n}:{len(r)}" for n, r in sorted(self._relations.items())
        )
        return f"DatabaseState({counts})"
