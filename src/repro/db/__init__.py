"""Relational database substrate.

Everything the constraint checker needs from a database engine, built
from scratch: typed schemas, relation instances with lazy hash indexes
and database states with copy-on-write transitions (immutable, unless a
single owner took a copy to patch in place), atomic insert/delete
transactions, a pure relational algebra
(:class:`~repro.db.algebra.Table`), and JSON persistence of schemas and
update streams.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.db.algebra import Table
    from repro.db.database import DatabaseState
    from repro.db.relation import Relation
    from repro.db.schema import (
        Attribute,
        DatabaseSchema,
        RelationSchema,
        SchemaBuilder,
    )
    from repro.db.storage import (
        dump_arrivals,
        dump_schema,
        dump_stream,
        load_schema,
        load_stream,
        read_arrivals,
        read_stream,
        write_stream,
    )
    from repro.db.transactions import Transaction, TransactionBuilder
    from repro.db.types import Domain, Row, Value

__all__ = [
    "Attribute",
    "DatabaseSchema",
    "DatabaseState",
    "Domain",
    "Relation",
    "RelationSchema",
    "Row",
    "SchemaBuilder",
    "Table",
    "Transaction",
    "TransactionBuilder",
    "Value",
    "dump_arrivals",
    "dump_schema",
    "dump_stream",
    "load_schema",
    "load_stream",
    "read_arrivals",
    "read_stream",
    "write_stream",
]

lazy_surface(__name__, {
    "repro.db.algebra": ("Table",),
    "repro.db.database": ("DatabaseState",),
    "repro.db.relation": ("Relation",),
    "repro.db.schema": (
        "Attribute", "DatabaseSchema", "RelationSchema", "SchemaBuilder",
    ),
    "repro.db.storage": (
        "dump_arrivals", "dump_schema", "dump_stream", "load_schema",
        "load_stream", "read_arrivals", "read_stream", "write_stream",
    ),
    "repro.db.transactions": ("Transaction", "TransactionBuilder"),
    "repro.db.types": ("Domain", "Row", "Value"),
})
