"""Insert/delete transactions over database states.

The paper's history model advances one *state transition* at a time: a
set of tuple insertions and deletions applied atomically, with a fresh
timestamp.  :class:`Transaction` captures one such transition.  A
transaction is validated against a schema at application time, and must
be internally consistent: the same tuple may not be both inserted into
and deleted from the same relation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from repro.db.schema import DatabaseSchema
from repro.db.types import Row, check_row, sorted_rows
from repro.errors import TransactionError


class Transaction:
    """An atomic set of insertions and deletions.

    Instances are immutable; build them with :class:`TransactionBuilder`
    (or :meth:`Transaction.builder`) or from plain dicts via
    :meth:`Transaction.of`.
    """

    __slots__ = ("inserts", "deletes")

    def __init__(
        self,
        inserts: Mapping[str, Iterable[Row]] = (),
        deletes: Mapping[str, Iterable[Row]] = (),
    ):
        ins = {
            rel: frozenset(check_row(tuple(r)) for r in rows)
            for rel, rows in dict(inserts).items()
        }
        dels = {
            rel: frozenset(check_row(tuple(r)) for r in rows)
            for rel, rows in dict(deletes).items()
        }
        for rel in set(ins) & set(dels):
            clash = ins[rel] & dels[rel]
            if clash:
                raise TransactionError(
                    f"tuples both inserted and deleted in {rel!r}: "
                    f"{sorted(clash, key=repr)[:3]}"
                )
        self.inserts: Dict[str, FrozenSet[Row]] = {
            rel: rows for rel, rows in ins.items() if rows
        }
        self.deletes: Dict[str, FrozenSet[Row]] = {
            rel: rows for rel, rows in dels.items() if rows
        }

    @classmethod
    def _trusted(
        cls,
        inserts: Dict[str, FrozenSet[Row]],
        deletes: Dict[str, FrozenSet[Row]],
    ) -> "Transaction":
        """Internal constructor for a part of a transaction already
        built: every row is a checked tuple, no set is empty and no row
        is on both sides, so nothing is re-tupled or re-checked."""
        self = object.__new__(cls)
        self.inserts = inserts
        self.deletes = deletes
        return self

    @classmethod
    def of(
        cls,
        inserts: Optional[Mapping[str, Iterable[Row]]] = None,
        deletes: Optional[Mapping[str, Iterable[Row]]] = None,
    ) -> "Transaction":
        """Build from optional plain dicts."""
        return cls(inserts or {}, deletes or {})

    @classmethod
    def noop(cls) -> "Transaction":
        """The empty transaction (a pure clock tick)."""
        return cls()

    @classmethod
    def builder(cls) -> "TransactionBuilder":
        """Return a fluent builder."""
        return TransactionBuilder()

    @property
    def is_noop(self) -> bool:
        """Whether the transaction changes nothing."""
        return not self.inserts and not self.deletes

    @property
    def size(self) -> int:
        """Total number of inserted plus deleted tuples."""
        return sum(len(r) for r in self.inserts.values()) + sum(
            len(r) for r in self.deletes.values()
        )

    def touched_relations(self) -> FrozenSet[str]:
        """Names of relations this transaction modifies."""
        return frozenset(self.inserts) | frozenset(self.deletes)

    def validate(self, schema: DatabaseSchema) -> None:
        """Check every touched relation and row against ``schema``."""
        for rel, rows in list(self.inserts.items()) + list(
            self.deletes.items()
        ):
            schema.relation(rel).validate_rows(rows)

    def merged(self, later: "Transaction") -> "Transaction":
        """Compose with a ``later`` transaction into a single transition.

        True net-effect semantics, for any base state: after
        insert-then-delete the tuple is absent (so the merge carries the
        *delete* — the tuple may have pre-existed), and after
        delete-then-insert it is present (the merge carries the insert).
        ``base.apply(a.merged(b)) == base.apply(a).apply(b)`` for every
        base state (property-tested), which also makes ``merged``
        associative in effect.
        """
        ins: Dict[str, Set[Row]] = {
            r: set(rows) for r, rows in self.inserts.items()
        }
        dels: Dict[str, Set[Row]] = {
            r: set(rows) for r, rows in self.deletes.items()
        }
        for rel, rows in later.deletes.items():
            for row in rows:
                ins.get(rel, set()).discard(row)
                dels.setdefault(rel, set()).add(row)
        for rel, rows in later.inserts.items():
            for row in rows:
                dels.get(rel, set()).discard(row)
                ins.setdefault(rel, set()).add(row)
        return Transaction(ins, dels)

    def to_dict(self) -> Dict[str, Dict[str, list]]:
        """Serialise to plain JSON-able dicts (rows become lists)."""
        return {
            "insert": {
                rel: list(map(list, rows))
                for rel, rows in sorted_rows(self.inserts).items()
            },
            "delete": {
                rel: list(map(list, rows))
                for rel, rows in sorted_rows(self.deletes).items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Transaction":
        """Inverse of :meth:`to_dict`."""
        return cls(
            {r: [tuple(row) for row in rows]
             for r, rows in data.get("insert", {}).items()},
            {r: [tuple(row) for row in rows]
             for r, rows in data.get("delete", {}).items()},
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Transaction)
            and self.inserts == other.inserts
            and self.deletes == other.deletes
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self.inserts.items()),
                frozenset(self.deletes.items()),
            )
        )

    def __repr__(self) -> str:
        parts = []
        for rel, rows in sorted(self.inserts.items()):
            parts.append(f"+{rel}:{len(rows)}")
        for rel, rows in sorted(self.deletes.items()):
            parts.append(f"-{rel}:{len(rows)}")
        return "Transaction(" + (" ".join(parts) or "noop") + ")"


class TransactionBuilder:
    """Accumulates inserts/deletes, then freezes into a transaction.

    Example::

        txn = (Transaction.builder()
               .insert("borrowed", ("ann", 7))
               .delete("reserved", ("ann", 7))
               .build())
    """

    def __init__(self) -> None:
        self._inserts: Dict[str, Set[Row]] = {}
        self._deletes: Dict[str, Set[Row]] = {}

    def insert(self, relation: str, *rows: Row) -> "TransactionBuilder":
        """Queue tuple insertions into ``relation``."""
        self._inserts.setdefault(relation, set()).update(
            tuple(r) for r in rows
        )
        return self

    def delete(self, relation: str, *rows: Row) -> "TransactionBuilder":
        """Queue tuple deletions from ``relation``."""
        self._deletes.setdefault(relation, set()).update(
            tuple(r) for r in rows
        )
        return self

    def build(self) -> Transaction:
        """Freeze into an immutable :class:`Transaction`."""
        return Transaction(self._inserts, self._deletes)
