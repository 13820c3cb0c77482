"""Relation and database schemas.

A :class:`RelationSchema` declares a relation's name and its attributes
(name + domain).  A :class:`DatabaseSchema` is a catalog of relation
schemas; every database state, transaction, and constraint is validated
against one.  Schemas are immutable after construction; use
:class:`SchemaBuilder` (or :meth:`DatabaseSchema.builder`) for fluent
construction.
"""

from __future__ import annotations

from operator import itemgetter, ne
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

from repro.db.types import Domain, Row
from repro.errors import SchemaError, UnknownRelationError


class Attribute:
    """A named, typed column of a relation."""

    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: Domain = Domain.ANY):
        if not name or not name.replace("_", "a").isalnum():
            raise SchemaError(f"illegal attribute name: {name!r}")
        self.name = name
        self.domain = domain

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Attribute)
            and self.name == other.name
            and self.domain == other.domain
        )

    def __hash__(self) -> int:
        return hash((self.name, self.domain))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.domain.value})"


AttributeSpec = Union[Attribute, str, Tuple[str, Union[Domain, str]]]


def _coerce_attribute(spec: AttributeSpec) -> Attribute:
    """Build an :class:`Attribute` from the accepted shorthand forms."""
    if isinstance(spec, Attribute):
        return spec
    if isinstance(spec, str):
        return Attribute(spec)
    name, domain = spec
    if isinstance(domain, str):
        domain = Domain.parse(domain)
    return Attribute(name, domain)


class RelationSchema:
    """Schema of one relation: a name plus an ordered attribute list."""

    __slots__ = ("name", "attributes", "_positions", "_lengths", "_columns")

    def __init__(self, name: str, attributes: Sequence[AttributeSpec]):
        if not name or not name.replace("_", "a").isalnum():
            raise SchemaError(f"illegal relation name: {name!r}")
        attrs = [_coerce_attribute(a) for a in attributes]
        seen = set()
        for a in attrs:
            if a.name in seen:
                raise SchemaError(
                    f"duplicate attribute {a.name!r} in relation {name!r}"
                )
            seen.add(a.name)
        self.name = name
        self.attributes: Tuple[Attribute, ...] = tuple(attrs)
        self._positions: Dict[str, int] = {
            a.name: i for i, a in enumerate(attrs)
        }
        # what validate_rows applies to a batch: the one row length,
        # and per column its getter, the types accepted on sight and
        # whether NaN can hide among them
        self._lengths = {len(attrs)}
        exact_types = [a.domain.exact_types for a in attrs]
        self._columns = tuple(
            (itemgetter(i), exact, float in exact)
            for i, exact in enumerate(exact_types)
        )

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(a.name for a in self.attributes)

    def position(self, attribute: str) -> int:
        """Return the 0-based position of ``attribute``.

        Raises:
            SchemaError: if the relation has no such attribute.
        """
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def validate_row(self, row: Row) -> Row:
        """Check arity and per-attribute domains of ``row``; return it."""
        if len(row) != self.arity:
            raise SchemaError(
                f"relation {self.name!r} has arity {self.arity}, "
                f"got row of length {len(row)}: {row!r}"
            )
        for attr, value in zip(self.attributes, row):
            if not attr.domain.contains(value):
                # only a failing value pays for naming its attribute
                attr.domain.check(value, context=f"{self.name}.{attr.name}")
        return row

    def validate_rows(self, rows: Collection[Row]) -> None:
        """:meth:`validate_row` for every row of a batch.

        The batch is tested column by column, in C: one row length,
        and in each column only values of exactly a type the domain
        accepts on sight, none of them NaN.  A batch that does not
        pass — a ``bool``, a value of a subclass, a wrong arity or
        domain — is gone through row by row, so what is accepted and
        what is raised are :meth:`validate_row`'s.
        """
        if set(map(len, rows)) == self._lengths:
            for column_of, exact, floats in self._columns:
                column = map(column_of, rows)
                if floats:
                    column = tuple(column)
                if not exact.issuperset(map(type, column)) or (
                    floats and any(map(ne, column, column))
                ):
                    break
            else:
                return
        for row in rows:
            self.validate_row(row)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationSchema)
            and self.name == other.name
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{a.name}:{a.domain.value}" for a in self.attributes
        )
        return f"{self.name}({cols})"


class DatabaseSchema:
    """An immutable catalog of relation schemas.

    Iteration yields relation schemas in declaration order; ``in`` tests
    membership by relation name.
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Iterable[RelationSchema] = ()):
        rels: Dict[str, RelationSchema] = {}
        for r in relations:
            if r.name in rels:
                raise SchemaError(f"duplicate relation {r.name!r} in schema")
            rels[r.name] = r
        self._relations = rels

    @classmethod
    def builder(cls) -> "SchemaBuilder":
        """Return a fluent builder for a new schema."""
        return SchemaBuilder()

    @classmethod
    def from_dict(
        cls, spec: Mapping[str, Sequence[AttributeSpec]]
    ) -> "DatabaseSchema":
        """Build a schema from ``{relation: [attribute, ...]}``.

        Attribute entries may be names (untyped), ``(name, domain)``
        pairs, or :class:`Attribute` objects.
        """
        return cls(RelationSchema(n, attrs) for n, attrs in spec.items())

    def relation(self, name: str) -> RelationSchema:
        """Look up a relation schema by name.

        Raises:
            UnknownRelationError: if the schema has no such relation.
        """
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(
                f"schema has no relation {name!r}; "
                f"known: {sorted(self._relations)}"
            ) from None

    def relation_names(self) -> List[str]:
        """All relation names, in declaration order."""
        return list(self._relations)

    def extended(self, *relations: RelationSchema) -> "DatabaseSchema":
        """Return a copy of this schema with extra relations appended.

        Used by the active-DBMS compiler to register auxiliary tables
        without mutating the user's schema.
        """
        return DatabaseSchema(list(self._relations.values()) + list(relations))

    def to_dict(self) -> Dict[str, List[Tuple[str, str]]]:
        """Serialise to the plain-dict form accepted by :meth:`from_dict`."""
        return {
            r.name: [(a.name, a.domain.value) for a in r.attributes]
            for r in self._relations.values()
        }

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatabaseSchema)
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash(tuple(self._relations.values()))

    def __repr__(self) -> str:
        return "DatabaseSchema(" + "; ".join(
            repr(r) for r in self._relations.values()
        ) + ")"


class SchemaBuilder:
    """Fluent builder for :class:`DatabaseSchema`.

    Example::

        schema = (DatabaseSchema.builder()
                  .relation("borrowed", [("patron", "str"), ("book", "int")])
                  .relation("returned", [("patron", "str"), ("book", "int")])
                  .build())
    """

    def __init__(self) -> None:
        self._relations: List[RelationSchema] = []

    def relation(
        self, name: str, attributes: Sequence[AttributeSpec]
    ) -> "SchemaBuilder":
        """Declare one relation; returns ``self`` for chaining."""
        self._relations.append(RelationSchema(name, attributes))
        return self

    def build(self) -> DatabaseSchema:
        """Finalise the schema."""
        return DatabaseSchema(self._relations)
