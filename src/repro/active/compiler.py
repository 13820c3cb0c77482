"""Compiling constraints to ECA rules over the active database.

This is the Chomicki–Toman implementation route: the auxiliary
relations of the bounded history encoding are stored as *ordinary
database tables*, maintained by triggers that fire on each commit, and
the constraint check itself is a final lowest-priority trigger.  The
result is a third, independently structured implementation of the same
semantics, used for cross-validation and the E7 experiment.

Layout per temporal subformula ``i``:

* ``ONCE``/``SINCE`` node — table ``aux{i}(v1..vk, ts)`` holding anchor
  timestamps per valuation (pruned/min-collapsed exactly as in
  :mod:`repro.core.auxiliary`);
* ``PREV`` node — tables ``prevv{i}`` (the node's virtual relation at
  the current time) and ``prevop{i}`` (the operand's satisfying
  valuations at the current time, i.e. next step's answer), plus a row
  ``(i, last_time)`` in the shared ``auxmeta`` table.

Rule priorities encode bottom-up maintenance order; the check rule runs
last and records violations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.active.engine import ActiveDatabase
from repro.active.events import EventPattern
from repro.active.rules import Rule
from repro.core.checker import Constraint
from repro.core.engine import Engine
from repro.core.foeval import AtomProvider, evaluate, relation_atom_table
from repro.core.formulas import Atom, Formula, Once, Prev, Since
from repro.core.statespace import (
    constraint_node_names,
    deep_size,
    profile_totals,
)
from repro.core.violations import StepReport
from repro.db.algebra import Table
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema, RelationSchema
from repro.db.transactions import Transaction
from repro.db.types import Domain
from repro.errors import MonitorError
from repro.temporal.clock import Timestamp

CHECK_PRIORITY = 10_000
META_TABLE = "auxmeta"


def _vars_of(node: Formula) -> Tuple[str, ...]:
    return tuple(sorted(node.free_vars))


def _ts_column(variables: Sequence[str]) -> str:
    """A timestamp column name not colliding with the node's variables."""
    name = "ts"
    suffix = 2
    while name in variables:
        name = f"ts_{suffix}"
        suffix += 1
    return name


class _NodePlan:
    """Static layout of one temporal node's tables."""

    __slots__ = ("index", "node", "variables", "ts_col")

    def __init__(self, index: int, node: Formula):
        self.index = index
        self.node = node
        self.variables = _vars_of(node)
        self.ts_col = _ts_column(self.variables)

    @property
    def aux_table(self) -> str:
        return f"aux{self.index}"

    @property
    def prev_virtual_table(self) -> str:
        return f"prevv{self.index}"

    @property
    def prev_operand_table(self) -> str:
        return f"prevop{self.index}"


class _ActiveProvider(AtomProvider):
    """Resolves atoms from the engine state and temporal nodes from the
    auxiliary tables, at the current commit time."""

    def __init__(self, checker: "ActiveChecker"):
        self.checker = checker

    def atom_table(self, atom: Atom) -> Table:
        state = self.checker.engine.state
        return relation_atom_table(state.relation(atom.relation), atom)

    def temporal_table(self, formula: Formula) -> Table:
        return self.checker._virtual_table(formula)


class ActiveChecker(Engine):
    """Constraint checking via ECA rules over the active database.

    Exposes the same stepping API as
    :class:`~repro.core.checker.IncrementalChecker`.
    """

    #: engine label used in telemetry series and by ``space_of``
    engine_label = "active"

    def __init__(
        self,
        schema: DatabaseSchema,
        constraints: Sequence[Constraint],
        initial: Optional[DatabaseState] = None,
        instrumentation=None,
    ):
        super().__init__(schema, constraints, instrumentation)
        self.user_schema = schema

        # assign one plan per structurally distinct temporal node,
        # registered bottom-up (post-order per constraint)
        self._plans: Dict[Formula, _NodePlan] = {}
        for c in self.constraints:
            for node in c.violation_formula.temporal_subformulas():
                if node not in self._plans:
                    self._plans[node] = _NodePlan(len(self._plans), node)

        base = self._base_state(initial)
        self.schema = self._extend_schema(schema)
        self.engine = ActiveDatabase(
            self.schema, initial=self._lift_state(base)
        )
        # rule firings reported under this checker's engine label
        self.engine.instrumentation = instrumentation
        self.engine.instrumentation_label = self.engine_label
        self._register_rules()
        # the report the check rule left during the step's commit
        self._report = StepReport(0, -1, [])
        # telemetry attribution: each constraint's node plans
        self._constraint_plans = {
            c.name: tuple(
                {
                    node: self._plans[node]
                    for node in c.violation_formula.temporal_subformulas()
                }.values()
            )
            for c in self.constraints
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _extend_schema(self, schema: DatabaseSchema) -> DatabaseSchema:
        extra: List[RelationSchema] = []
        for plan in self._plans.values():
            cols = [(v, Domain.ANY) for v in plan.variables]
            if isinstance(plan.node, (Once, Since)):
                extra.append(
                    RelationSchema(
                        plan.aux_table, cols + [(plan.ts_col, Domain.INT)]
                    )
                )
            else:
                extra.append(RelationSchema(plan.prev_virtual_table, cols))
                extra.append(RelationSchema(plan.prev_operand_table, cols))
        extra.append(
            RelationSchema(
                META_TABLE, [("node", Domain.INT), ("lasttime", Domain.INT)]
            )
        )
        for rel in extra:
            if rel.name in schema:
                raise MonitorError(
                    f"user schema clashes with auxiliary table {rel.name!r}"
                )
        return schema.extended(*extra)

    def _lift_state(self, initial: DatabaseState) -> DatabaseState:
        contents = {
            rel.name: rel.rows for rel in initial if rel.rows
        }
        return DatabaseState.from_rows(self.schema, contents)

    def _register_rules(self) -> None:
        for plan in self._plans.values():
            self.engine.register(
                Rule(
                    name=f"maintain-{plan.aux_table}",
                    pattern=EventPattern.on_commit(),
                    action=self._maintenance_action(plan),
                    priority=10 + plan.index,
                )
            )
        self.engine.register(
            Rule(
                name="check-constraints",
                pattern=EventPattern.on_commit(),
                action=self._check_action,
                priority=CHECK_PRIORITY,
            )
        )

    # ------------------------------------------------------------------
    # maintenance actions
    # ------------------------------------------------------------------

    def _maintenance_action(self, plan: _NodePlan):
        if isinstance(plan.node, Prev):
            def action(engine: ActiveDatabase, event) -> None:
                self._maintain_prev(plan, event.time)
        else:
            def action(engine: ActiveDatabase, event) -> None:
                self._maintain_anchors(plan, event.time)
        return action

    def _meta_last_time(self, plan: _NodePlan) -> Optional[Timestamp]:
        rows = self.engine.state.relation(META_TABLE).lookup(0, plan.index)
        for row in rows:
            return row[1]
        return None

    def _set_meta(self, plan: _NodePlan, time: Timestamp) -> None:
        old = self.engine.state.relation(META_TABLE).lookup(0, plan.index)
        self.engine.apply(
            Transaction(
                {META_TABLE: [(plan.index, time)]},
                {META_TABLE: set(old)},
            )
        )

    def _maintain_prev(self, plan: _NodePlan, time: Timestamp) -> None:
        node = plan.node
        assert isinstance(node, Prev)
        state = self.engine.state
        last_time = self._meta_last_time(plan)
        old_operand = state.relation(plan.prev_operand_table).rows
        if last_time is not None and node.interval.contains(time - last_time):
            virtual: frozenset = old_operand
        else:
            virtual = frozenset()
        provider = _ActiveProvider(self)
        now_operand = set(
            evaluate(node.operand, provider)
            .project(plan.variables)
            .rows
        )
        old_virtual = state.relation(plan.prev_virtual_table).rows
        self.engine.apply(
            Transaction(
                {
                    plan.prev_virtual_table: set(virtual) - set(old_virtual),
                    plan.prev_operand_table: now_operand - set(old_operand),
                },
                {
                    plan.prev_virtual_table: set(old_virtual) - set(virtual),
                    plan.prev_operand_table: set(old_operand) - now_operand,
                },
            )
        )
        self._set_meta(plan, time)

    def _maintain_anchors(self, plan: _NodePlan, time: Timestamp) -> None:
        node = plan.node
        assert isinstance(node, (Once, Since))
        interval = node.interval
        state = self.engine.state
        rows = state.relation(plan.aux_table).rows
        k = len(plan.variables)
        deletes: set = set()

        surviving_valuations = None
        if isinstance(node, Since) and rows:
            candidates = Table(
                plan.variables, {r[:k] for r in rows}
            )
            provider = _ActiveProvider(self)
            survivors = evaluate(node.left, provider, candidates)
            surviving_valuations = set(
                survivors.project(plan.variables).rows
            )
            deletes |= {
                r for r in rows if r[:k] not in surviving_valuations
            }

        live = {r for r in rows if r not in deletes}

        # metric pruning (finite upper bound only)
        if interval.is_bounded:
            cutoff = time - interval.high
            expired = {r for r in live if r[k] < cutoff}
            deletes |= expired
            live -= expired

        # new anchors from the operand (ONCE) / right operand (SINCE)
        anchor_formula = (
            node.right if isinstance(node, Since) else node.operand
        )
        provider = _ActiveProvider(self)
        now_rows = (
            evaluate(anchor_formula, provider)
            .project(plan.variables)
            .rows
        )
        present = {r[:k] for r in live}
        inserts: set = set()
        for valuation in now_rows:
            if interval.is_bounded:
                inserts.add(valuation + (time,))
            elif valuation not in present:
                # unbounded: min-timestamp collapse, one row per valuation
                inserts.add(valuation + (time,))
        inserts -= deletes & inserts  # cannot insert and delete same row
        deletes -= inserts & deletes
        self.engine.apply(
            Transaction({plan.aux_table: inserts}, {plan.aux_table: deletes})
        )

    # ------------------------------------------------------------------
    # virtual tables and checking
    # ------------------------------------------------------------------

    def _virtual_table(self, node: Formula) -> Table:
        plan = self._plans.get(node)
        if plan is None:
            raise MonitorError(f"no auxiliary table for {node}")
        state = self.engine.state
        now = self.engine.now
        assert now is not None
        if isinstance(plan.node, Prev):
            return Table(
                plan.variables,
                state.relation(plan.prev_virtual_table).rows,
            )
        threshold = now - plan.node.interval.low
        k = len(plan.variables)
        rows = state.relation(plan.aux_table).rows
        return Table(
            plan.variables,
            {r[:k] for r in rows if r[k] <= threshold},
        )

    def _check_action(self, engine: ActiveDatabase, event) -> None:
        # the rule fires inside the commit, before the step is counted
        self._report = self._check_constraints(event.time, self._index + 1)

    def _witnesses(self, position: int, constraint: Constraint) -> Table:
        return evaluate(constraint.violation_formula, _ActiveProvider(self))

    def _constraint_tuples(self, constraint: Constraint) -> int:
        return self._plan_tuples(self._constraint_plans[constraint.name])

    # ------------------------------------------------------------------
    # the step (template: repro.core.engine.Engine)
    # ------------------------------------------------------------------

    def _apply(
        self,
        time: Timestamp,
        txn: Optional[Transaction],
        state: Optional[DatabaseState],
    ) -> bool:
        assert txn is not None  # step_state derives a transaction
        txn.validate(self.user_schema)  # users may not touch aux tables
        # rules maintain the aux tables and check, all inside the
        # commit: there is no separate apply phase to report
        self.engine.commit(time, txn)
        return False

    def _verdict(self, time: Timestamp) -> StepReport:
        return self._report

    def step_state(self, time: Timestamp, state: DatabaseState) -> StepReport:
        """Like :meth:`step` with the successor user state given directly."""
        if state.schema != self.user_schema:
            raise MonitorError("state does not match user schema")
        current = {
            rel.name: self.engine.state.relation(rel.name).rows
            for rel in self.user_schema
        }
        target = DatabaseState.from_rows(
            self.user_schema,
            {rel.name: rel.rows for rel in state},
        )
        base = DatabaseState.from_rows(self.user_schema, current)
        return self.step(time, base.diff(target))

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def _plan_tuples(self, plans: Iterable[_NodePlan]) -> int:
        return sum(len(self._plan_rows(plan)) for plan in plans)

    def aux_tuple_count(self) -> int:
        """Stored auxiliary rows (anchors + PREV carry-over tables)."""
        return self._plan_tuples(self._plans.values())

    def _plan_rows(self, plan: _NodePlan) -> frozenset:
        """Stored rows of a plan's space-bearing table.

        For ``PREV`` that is the operand carry-over table (the same
        store :class:`~repro.core.auxiliary.PrevState` keeps); anchors
        live in ``aux{i}`` with the timestamp in the last column.
        """
        state = self.engine.state
        if isinstance(plan.node, Prev):
            return state.relation(plan.prev_operand_table).rows
        return state.relation(plan.aux_table).rows

    def _plan_valuations(self, plan: _NodePlan, rows: frozenset) -> int:
        """Distinct valuations among a plan's stored ``rows``."""
        if isinstance(plan.node, Prev):
            return len(rows)
        k = len(plan.variables)
        return len({r[:k] for r in rows})

    def aux_valuation_count(self) -> int:
        """Total distinct valuations across all auxiliary tables."""
        return sum(
            self._plan_valuations(plan, self._plan_rows(plan))
            for plan in self._plans.values()
        )

    def aux_profile(self) -> Dict[str, int]:
        """Per-temporal-subformula stored-row counts (stable keys)."""
        return {
            str(plan.node): len(self._plan_rows(plan))
            for plan in self._plans.values()
        }

    def aux_nodes(self) -> List[Formula]:
        """Temporal subformulas with attributable auxiliary tables."""
        return list(self._plans.keys())

    def _aux_labels(self) -> Dict[Formula, str]:
        """Cached ``node -> str(node)`` map (labels are per-step keys;
        re-rendering formulas every step would dominate the sampler)."""
        labels = getattr(self, "_aux_label_cache", None)
        if labels is None or len(labels) != len(self._plans):
            labels = {node: str(node) for node in self._plans}
            self._aux_label_cache = labels
        return labels

    def aux_counts(self) -> Dict[str, Tuple[int, int]]:
        """Per-node ``(tuples, valuations)`` — the cheap per-step sample."""
        labels = self._aux_labels()
        counts: Dict[str, Tuple[int, int]] = {}
        for node, plan in self._plans.items():
            rows = self._plan_rows(plan)
            counts[labels[node]] = (
                len(rows), self._plan_valuations(plan, rows)
            )
        return counts

    def iter_state_valuations(self):
        """Yield ``(node label, valuation, stored rows)`` triples."""
        for plan in self._plans.values():
            label = str(plan.node)
            rows = self._plan_rows(plan)
            if isinstance(plan.node, Prev):
                for row in rows:
                    yield label, row, 1
            else:
                k = len(plan.variables)
                counts: Dict[tuple, int] = {}
                for row in rows:
                    valuation = row[:k]
                    counts[valuation] = counts.get(valuation, 0) + 1
                for valuation, weight in counts.items():
                    yield label, valuation, weight

    def state_profile(self, deep: bool = True) -> Dict[str, object]:
        """Uniform accounting snapshot (see repro.core.statespace).

        Reconstructed from the auxiliary *tables*: anchors are rows of
        ``aux{i}`` with the timestamp in the last column, the ``PREV``
        carry-over is ``prevop{i}``, and its timestamp comes from the
        shared meta table.
        """
        shared = constraint_node_names(self.constraints)
        nodes: Dict[str, Dict] = {}
        for plan in self._plans.values():
            rows = self._plan_rows(plan)
            if isinstance(plan.node, Prev):
                oldest = self._meta_last_time(plan) if rows else None
            else:
                k = len(plan.variables)
                oldest = min((r[k] for r in rows), default=None)
            nodes[str(plan.node)] = {
                "kind": type(plan.node).__name__,
                "tuples": len(rows),
                "valuations": self._plan_valuations(plan, rows),
                "bytes": deep_size(rows) if deep else None,
                "oldest": oldest,
                "constraints": sorted(shared.get(plan.node, [])),
            }
        return {
            "engine": self.engine_label,
            "nodes": nodes,
            "total": profile_totals(nodes),
            "space_tuples": self.space_tuples(),
        }

    @property
    def temporal_node_count(self) -> int:
        """Number of distinct temporal subformulas being tracked."""
        return len(self._plans)
