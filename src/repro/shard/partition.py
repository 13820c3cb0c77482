"""Hash partitioning of updates and constraints by a shard key.

The paper's auxiliary relations partition cleanly by free-variable
valuation: a bounded-history node's state for valuation ``v`` depends
only on the tuples that produced ``v``.  :class:`ShardPlan` exploits
this — it designates every relation carrying the shard-key attribute
as *keyed*, routes each keyed tuple to ``hash(key value) % shards``,
and broadcasts unkeyed relations to every shard, so each worker's
database is exactly the global database restricted to its key values
plus the shared broadcast relations.

A constraint is shardable when its compiled *violation formula* keeps
one free variable at the key position of every keyed atom it uses: the
violating valuations for key value ``v`` are then computable entirely
on the shard owning ``v``.  Explicitly ``FORALL``-closed constraints
fail this test — normalisation strips their free variables — and are
rejected with a rewrite hint (drop the ``FORALL``; constraints are
implicitly universally closed).

Because unkeyed relations are broadcast, a shard can also evaluate a
keyed constraint at valuations it does *not* own (the broadcast atoms
range over every key value) and report spurious witnesses for key
values whose keyed tuples live elsewhere.  :meth:`ShardPlan.
filter_witnesses` repairs this at merge time: a witness row survives
only on the shard that owns its key value, which makes the merged
verdicts exactly the single-process ones.

Hashing is :func:`stable_hash` — a type-tagged BLAKE2 digest, so the
partition is identical across Python runs and ``PYTHONHASHSEED``
values (the builtin ``hash()`` is salted per process and would journal
a different partition every run).
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Tuple

from repro.core.checker import Constraint
from repro.core.formulas import Aggregate, Atom, Exists, Forall, Var
from repro.db.algebra import Table
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import ShardingError

#: Manifest version written to ``shard-plan.json``.
PLAN_VERSION = "repro-shard/1"

UNKEYED_POLICIES = ("reject", "broadcast")


def _encode(value) -> bytes:
    """Canonical type-tagged byte encoding of one key value.

    The tag keeps e.g. ``1``, ``1.0``, ``True``, and ``"1"`` apart —
    they are distinct database values and must not collide into one
    route by accident of textual form.
    """
    if isinstance(value, bool):
        return b"b:" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"i:" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f:" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    if value is None:
        return b"n:"
    return b"r:" + repr(value).encode("utf-8")


#: Value types whose equality implies an identical :func:`_encode`
#: (floats are not: ``0.0 == -0.0`` and their reprs differ), and the
#: bound on a plan's route memo (cleared when full).
_MEMOISED_TYPES = frozenset({int, str, bool, type(None)})
ROUTE_MEMO_LIMIT = 1 << 16


def stable_hash(value) -> int:
    """A 64-bit hash of ``value`` stable across processes and runs."""
    digest = hashlib.blake2s(_encode(value), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardPlan:
    """How a schema, its updates, and its constraints split into shards.

    Args:
        schema: the database schema.
        key: attribute name designating keyed relations (every relation
            with an attribute of this name routes by its value there).
        shards: number of partitions (>= 1).
        on_unkeyed: what to do with a constraint that touches no keyed
            relation — ``"reject"`` (default; raise
            :class:`~repro.errors.ShardingError`) or ``"broadcast"``
            (pin it to shard 0, whose broadcast relations are complete).
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        key: str,
        shards: int,
        on_unkeyed: str = "reject",
    ):
        if not isinstance(shards, int) or shards < 1:
            raise ShardingError(
                f"shard count must be a positive int, got {shards!r}"
            )
        if on_unkeyed not in UNKEYED_POLICIES:
            raise ShardingError(
                f"unknown on_unkeyed policy {on_unkeyed!r}; "
                f"choose from {UNKEYED_POLICIES}"
            )
        self.schema = schema
        self.key = key
        self.shards = shards
        self.on_unkeyed = on_unkeyed
        #: keyed relation -> position of the key attribute
        self.key_positions: Dict[str, int] = {}
        for rel in schema:
            if key in rel.attribute_names:
                self.key_positions[rel.name] = rel.position(key)
        if not self.key_positions:
            raise ShardingError(
                f"no relation in the schema has an attribute named "
                f"{key!r}, so nothing can be partitioned; known "
                f"attributes: "
                f"{sorted({a.name for r in schema for a in r.attributes})}"
            )
        #: constraint name -> ("keyed", key var) | ("pinned", None)
        self._modes: Dict[str, Tuple[str, object]] = {}
        #: (type, key value) -> shard; the type is part of the key
        #: because 1, 1.0 and True are one dict key and route apart
        self._routes: Dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # constraint admission
    # ------------------------------------------------------------------

    def _keyed_atoms(self, formula) -> List[Tuple[Atom, FrozenSet[str]]]:
        """Keyed atoms of ``formula`` with the binders enclosing each."""
        out: List[Tuple[Atom, FrozenSet[str]]] = []

        def visit(node, bound: FrozenSet[str]) -> None:
            if isinstance(node, Atom):
                if node.relation in self.key_positions:
                    out.append((node, bound))
                return
            if isinstance(node, (Exists, Forall)):
                visit(node.operand, bound | frozenset(node.variables))
                return
            if isinstance(node, Aggregate):
                visit(node.body, bound | frozenset(node.over))
                return
            for child in node.children():
                visit(child, bound)

        visit(formula, frozenset())
        return out

    def admit(self, constraint: Constraint) -> Tuple[str, object]:
        """Check that ``constraint`` routes cleanly; record its mode.

        Returns ``("keyed", key_var)`` for a partitionable constraint
        (evaluated on every shard, witnesses filtered by key ownership
        at merge) or ``("pinned", None)`` for an unkeyed constraint
        under the ``broadcast`` policy (evaluated on shard 0 only).

        Raises:
            ShardingError: when the constraint cannot be partitioned,
                with a diagnostic naming the offending atom and — for
                the explicit-``FORALL`` case — a rewrite hint.
        """
        name = constraint.name
        formula = constraint.violation_formula
        keyed = self._keyed_atoms(formula)
        if not keyed:
            if self.on_unkeyed == "reject":
                raise ShardingError(
                    f"constraint {name!r} touches no relation keyed by "
                    f"{self.key!r}, so no shard owns its verdicts; "
                    f"monitor it separately, or construct the plan "
                    f"with on_unkeyed='broadcast' to pin it to shard 0"
                )
            self._modes[name] = ("pinned", None)
            return self._modes[name]
        key_vars = set()
        for atom, bound in keyed:
            term = atom.terms[self.key_positions[atom.relation]]
            if not isinstance(term, Var):
                raise ShardingError(
                    f"constraint {name!r}: atom {atom} fixes the shard "
                    f"key {self.key!r} to the constant {term}; only "
                    f"key positions holding one shared free variable "
                    f"can be routed"
                )
            if term.name in bound:
                raise ShardingError(
                    f"constraint {name!r}: the shard key variable "
                    f"{term.name!r} in {atom} is bound by a quantifier "
                    f"in the compiled violation formula, so its "
                    f"valuations cannot be routed to one shard; "
                    f"constraints are implicitly universally closed — "
                    f"drop the explicit quantifier over {term.name!r} "
                    f"to keep it free"
                )
            key_vars.add(term.name)
        if len(key_vars) > 1:
            raise ShardingError(
                f"constraint {name!r}: keyed atoms disagree on the "
                f"shard key variable ({sorted(key_vars)}); every atom "
                f"over a relation keyed by {self.key!r} must place the "
                f"same free variable at the key position"
            )
        var = key_vars.pop()
        if var not in formula.free_vars:
            raise ShardingError(
                f"constraint {name!r}: the shard key variable {var!r} "
                f"is not free in the compiled violation formula "
                f"({formula}), so witnesses carry no key column to "
                f"route by; constraints are implicitly universally "
                f"closed — drop the explicit quantifier over {var!r}"
            )
        self._modes[name] = ("keyed", var)
        return self._modes[name]

    def mode(self, name: str) -> Tuple[str, object]:
        """The admitted routing mode of constraint ``name``."""
        try:
            return self._modes[name]
        except KeyError:
            raise ShardingError(
                f"constraint {name!r} was never admitted to this plan"
            ) from None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def route(self, value) -> int:
        """The shard owning key value ``value``."""
        kind = type(value)
        if kind not in _MEMOISED_TYPES:
            return stable_hash(value) % self.shards
        routes = self._routes
        shard = routes.get((kind, value))
        if shard is None:
            if len(routes) >= ROUTE_MEMO_LIMIT:
                routes.clear()
            shard = routes[kind, value] = stable_hash(value) % self.shards
        return shard

    def split(self, txn: Transaction) -> List[Transaction]:
        """Partition one transaction into per-shard sub-transactions.

        Keyed rows go to the shard owning their key value; unkeyed
        rows are broadcast to every shard.  Every shard receives a
        transaction (possibly a no-op) — all shards step at every
        timestamp, which keeps state indices aligned with the
        single-process run.
        """
        ins: List[Dict[str, set]] = [{} for _ in range(self.shards)]
        dels: List[Dict[str, set]] = [{} for _ in range(self.shards)]
        for buckets, source in ((ins, txn.inserts), (dels, txn.deletes)):
            for rel, rows in source.items():
                pos = self.key_positions.get(rel)
                if pos is None:
                    for shard in range(self.shards):
                        buckets[shard][rel] = rows
                else:
                    for row in rows:
                        shard = self.route(row[pos])
                        buckets[shard].setdefault(rel, set()).add(row)
        # parts of a transaction already built: its rows are checked,
        # and a row on both sides of a part would be of the whole
        return [
            Transaction._trusted(
                {rel: frozenset(rows) for rel, rows in ins[s].items()},
                {rel: frozenset(rows) for rel, rows in dels[s].items()},
            )
            for s in range(self.shards)
        ]

    def filter_witnesses(self, shard: int, name: str, table: Table) -> Table:
        """Keep only the witness rows ``shard`` actually owns.

        Broadcast relations let a shard evaluate keyed constraints at
        key values it does not own; those spurious rows are exactly the
        ones whose key value routes elsewhere, so ownership filtering
        makes the merged witness set equal to the single-process one.
        """
        mode, var = self.mode(name)
        if mode != "keyed" or var not in table.columns:
            return table
        idx = table.columns.index(var)
        kept = [r for r in table.rows if self.route(r[idx]) == shard]
        if len(kept) == len(table.rows):
            return table
        return Table(table.columns, kept)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form (part of the ``shard-plan.json`` manifest)."""
        return {
            "version": PLAN_VERSION,
            "key": self.key,
            "shards": self.shards,
            "on_unkeyed": self.on_unkeyed,
            "key_positions": dict(sorted(self.key_positions.items())),
            "constraints": {
                name: {"mode": mode, "key_var": var}
                for name, (mode, var) in sorted(self._modes.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"ShardPlan(key={self.key!r}, shards={self.shards}, "
            f"{len(self._modes)} constraint(s))"
        )
