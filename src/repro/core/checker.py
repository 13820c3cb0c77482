"""The incremental constraint checker (the paper's algorithm).

:class:`IncrementalChecker` monitors a set of real-time integrity
constraints over an evolving database *without ever storing the
history*.  Its per-step work is:

1. apply the transaction to obtain the new current state;
2. walk all temporal subformulas bottom-up (one auxiliary state per
   class of subformulas equal up to variable names, across
   constraints), letting each auxiliary state
   (:mod:`repro.core.auxiliary`) fold the new state into its bounded
   history encoding and emit its *virtual table* — the subformula's
   satisfying valuations at the new time, fanned out to the class's
   nodes by renaming columns;
3. evaluate every constraint's violation formula over the new state
   plus the virtual tables, reporting witnesses for non-empty answers.

The paper makes this incremental in the *history*; the implementation
is incremental in the *state* as well.  Every formula evaluated in
steps 2 and 3 is a maintained view (:mod:`repro.core.views`): it keeps
last step's result and re-evaluates only the keys that the rows really
added or removed — in the relations, and in the virtual tables below
it — can have touched.  Per-step cost is a function of the delta, the
expirations and the valuations changing status, not of the resident
state.

A constraint with free variables is implicitly universally closed; its
*violation formula* is ``normalize(NOT f)``, whose answers at a state
are exactly the violating valuations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.auxiliary import AuxiliaryState, make_auxiliary
from repro.core.engine import Engine
from repro.core.formulas import Atom, Formula, Not, Since
from repro.core.normalize import canonicalize_variant, normalize
from repro.core.parser import parse
from repro.core.safety import check_node_conditions, check_safe
from repro.core.views import StateProvider, View
from repro.db.algebra import Delta, Table
from repro.db.database import DatabaseState
from repro.db.schema import DatabaseSchema
from repro.db.transactions import Transaction
from repro.errors import SchemaError
from repro.temporal.clock import Timestamp


class Constraint:
    """A named integrity constraint.

    Args:
        name: report label.
        formula: the constraint formula (text in the concrete syntax or
            a :class:`~repro.core.formulas.Formula`); free variables are
            implicitly universally quantified.
    """

    __slots__ = ("name", "formula", "violation_formula")

    def __init__(
        self,
        name: str,
        formula: Union[str, Formula],
        require_safe: bool = True,
    ):
        """Args:
            name: report label.
            formula: constraint formula (text or AST).
            require_safe: verify the safe-range conditions (default).
                The active-domain engine (:mod:`repro.core.adom`) sets
                this to False — it evaluates outside the safe fragment.
        """
        if isinstance(formula, str):
            formula = parse(formula)
        self.name = name
        self.formula = formula
        from repro.core.optimize import optimize

        kernel = normalize(Not(formula))
        if require_safe:
            # node well-formedness is checked before optimisation so
            # constant folding cannot hide mistakes in dead branches;
            # overall evaluability is checked after, so folding may
            # legitimately rescue e.g. a constant-FALSE disjunct
            check_node_conditions(kernel)
        self.violation_formula = optimize(kernel)
        if require_safe:
            check_safe(self.violation_formula)

    def validate_schema(self, schema: DatabaseSchema) -> None:
        """Check that every atom matches the schema's relations/arities."""
        for sub in self.formula.walk():
            if isinstance(sub, Atom):
                rel = schema.relation(sub.relation)
                if rel.arity != len(sub.terms):
                    raise SchemaError(
                        f"constraint {self.name!r}: atom {sub} has "
                        f"{len(sub.terms)} argument(s) but relation "
                        f"{sub.relation!r} has arity {rel.arity}"
                    )

    def __repr__(self) -> str:
        return f"Constraint({self.name!r}: {self.formula})"


class _NodeEvaluator:
    """The ``evaluate_now`` one auxiliary state is advanced with: the
    state's operand comes from that operand's view.  Which operand is
    meant follows from the call — ``SINCE`` evaluates its left operand
    over a context (its stored candidates), and every state its anchor
    operand without one — so the formula passed is not looked at."""

    __slots__ = ("provider", "plain", "contextual")

    def __init__(
        self,
        provider: StateProvider,
        plain: View,
        contextual: Optional[View] = None,
    ):
        self.provider = provider
        #: view of the operand evaluated on its own
        self.plain = plain
        #: view of ``SINCE``'s left operand, evaluated over a context
        self.contextual = contextual

    def __call__(
        self, formula: Formula, context: Optional[Table] = None
    ) -> Table:
        view = self.plain if context is None else self.contextual
        return view.refresh(self.provider, context)


class IncrementalChecker(Engine):
    """Checks constraints over an update stream in bounded space."""

    #: engine label used in telemetry series and by ``space_of``
    engine_label = "incremental"

    def __init__(
        self,
        schema: DatabaseSchema,
        constraints: Sequence[Constraint],
        initial: Optional[DatabaseState] = None,
        collapse_unbounded: bool = True,
        instrumentation=None,
        strict: bool = False,
    ):
        """Args:
            schema: the database schema.
            constraints: compiled constraints to monitor.
            initial: base state the first transaction applies to.
            collapse_unbounded: use the min-timestamp encoding for
                unbounded intervals (default; ``False`` is an ablation
                that stores every anchor — see benchmark E9).
            instrumentation: optional
                :class:`repro.obs.instrument.Instrumentation` receiving
                step/aux/constraint telemetry; ``None`` (default) keeps
                the hot path hook-free.
            strict: lint the constraint set at construction and raise
                :class:`~repro.errors.LintError` on error-severity
                diagnostics (see :mod:`repro.lint`).
        """
        constraints = list(constraints)
        if strict:
            from repro.lint.linter import reject_lint_errors

            reject_lint_errors(
                schema, [(c.name, c.formula) for c in constraints]
            )
        super().__init__(schema, constraints, instrumentation)
        #: the current state: the checker's own copy, patched in place
        #: step by step (``initial`` stays the caller's)
        self.state = self._base_state(initial).owned_copy()
        self.collapse_unbounded = collapse_unbounded
        # one auxiliary state per *rename-equivalence class* of temporal
        # nodes, shared across constraints; insertion order is bottom-up.
        # The first-seen node represents its class; _node_class maps
        # every node to its representative and the column renaming that
        # turns the representative's virtual table into the node's own
        # (empty: none needed).
        self._node_class: Dict[
            Formula, Tuple[Formula, Dict[str, str]]
        ] = {}
        class_of: Dict[str, Formula] = {}
        rep_mapping: Dict[Formula, Dict[str, str]] = {}
        for c in self.constraints:
            for node in c.violation_formula.temporal_subformulas():
                if node in self._node_class:
                    continue
                canonical, mapping = canonicalize_variant(node)
                key = str(canonical)
                representative = class_of.get(key)
                if representative is None:
                    class_of[key] = node
                    rep_mapping[node] = mapping
                    self._aux[node] = make_auxiliary(
                        node, collapse_unbounded
                    )
                    self._node_class[node] = (node, {})
                    continue
                # rep column -> member column, through the canonical
                # names (both mappings are injective and free
                # variables map to free variables)
                inverse = {canon: var for var, canon in mapping.items()}
                columns = {
                    var: inverse[canon]
                    for var, canon in rep_mapping[representative].items()
                    if var in representative.free_vars
                }
                if all(k == v for k, v in columns.items()):
                    columns = {}  # identity: fan out unrenamed
                self._node_class[node] = (representative, columns)
        # every formula evaluated per step is a maintained view
        # (repro.core.views), compiled here once: each temporal node's
        # operand (shared by the nodes that have it), SINCE's left
        # operand over its stored candidates, each violation formula.
        # Views are derived state: a restored checker starts them over.
        self._provider = StateProvider(
            list(
                dict.fromkeys(
                    sub
                    for c in self.constraints
                    for sub in c.violation_formula.walk()
                    if isinstance(sub, Atom)
                )
            ),
            self.state,
        )
        operand_views: Dict[Formula, View] = {}

        def operand_view(operand: Formula) -> View:
            view = operand_views.get(operand)
            if view is None:
                view = operand_views[operand] = View(
                    operand, tuple(sorted(operand.free_vars))
                )
            return view

        self._node_labels = {node: str(node) for node in self._aux}
        # what a step does per auxiliary state (Engine._schedule); the
        # target handed to _publish is the node's cell and the cells of
        # the nodes sharing its state, with their column renamings
        members: Dict[Formula, list] = {node: [] for node in self._aux}
        for node, (representative, columns) in self._node_class.items():
            if node is not representative:
                members[representative].append(
                    (self._provider.cell(node), columns)
                )
        contextual_views: List[View] = []
        for node, aux in self._aux.items():
            if isinstance(node, Since):
                left = View(node.left, tuple(sorted(node.free_vars)))
                contextual_views.append(left)
                evaluator = _NodeEvaluator(
                    self._provider, operand_view(node.right), left
                )
            else:
                evaluator = _NodeEvaluator(
                    self._provider, operand_view(node.operand)
                )
            self._schedule.append((
                aux,
                evaluator,
                self._node_labels[node],
                (self._provider.cell(node), members[node]),
            ))
        self._constraint_views = [
            View(c.violation_formula) for c in self.constraints
        ]
        self._views: List[View] = (
            list(operand_views.values())
            + contextual_views
            + self._constraint_views
        )
        #: constraint evaluations actually performed; a step in which
        #: no key of a constraint is affected reuses its witnesses
        self.evaluations = 0
        #: what the step's transaction really changed, per relation
        #: (``None`` when the state was installed as a whole: no delta
        #: for the views to follow)
        self._changes: Optional[Dict[str, Delta]] = None
        # telemetry attribution: a node attributes to its class's state
        self._attribute_aux({
            node: self._aux[representative]
            for node, (representative, _) in self._node_class.items()
        })

    def auxiliary_of(
        self, node: Formula
    ) -> Optional[Tuple[AuxiliaryState, Dict[str, str]]]:
        """The auxiliary state serving ``node`` — its own when it
        represents its rename-equivalence class, the representative's
        otherwise — and the renaming from that state's valuation columns
        to ``node``'s (empty when they coincide); ``None`` for a node
        no constraint of this checker has."""
        found = self._node_class.get(node)
        if found is None:
            return None
        representative, columns = found
        return self._aux[representative], columns

    # ------------------------------------------------------------------
    # the step (template: repro.core.engine.Engine)
    # ------------------------------------------------------------------

    def _apply(
        self,
        time: Timestamp,
        txn: Optional[Transaction],
        state: Optional[DatabaseState],
    ) -> bool:
        if txn is not None:
            self._changes = self.state.patch(txn)
            return True
        assert state is not None
        # no transaction, so no delta: every view evaluates in full
        self.state = state.owned_copy()
        self._changes = None
        return False

    def _advance_auxiliary(self, time: Timestamp) -> None:
        self._provider.advance(self.state, self._changes)
        super()._advance_auxiliary(time)

    def _publish(self, target, table: Table) -> None:
        # with sharing, each class representative advances once and its
        # virtual table is fanned out to the member nodes by renaming
        # columns — a member's class was registered no later than any
        # node containing it, so fan-out preserves bottom-up resolution
        cell, members = target
        provider = self._provider
        provider.publish(cell, table)
        for member, columns in members:
            renamed, last = table, member.mark
            if columns:
                # a renamed view shares rows, indexes and patch log with
                # the table it was made of: good for as long as that is
                # the table published
                if last is not None and last[0].rows is table.rows:
                    renamed = last[0]
                else:
                    renamed = table.rename(columns)
            provider.publish(member, renamed)

    def _witnesses(self, position: int, constraint: Constraint) -> Table:
        # a view whose evaluation the budget shed misses that step's
        # delta, so it re-evaluates in full (is not served stale) the
        # next time it runs
        view = self._constraint_views[position]
        before = view.evaluations
        witnesses = view.refresh(self._provider)
        self.evaluations += view.evaluations - before
        return witnesses

    def work_counters(self) -> Dict[str, int]:
        """Cumulative counts of the work the hot path has done.

        ``view_evaluations`` is how often any maintained view ran the
        evaluator (the rest of its refreshes reused last step's table),
        ``view_keys`` how many affected keys its restricted runs
        re-evaluated, ``bound_visits`` how many stored runs the
        auxiliary states touched because a window bound passed them and
        ``survival_checks`` how many stored candidates ``SINCE`` tested
        for survival.
        ``plans_compiled`` is how many evaluation plans were built
        (:func:`repro.core.foeval.compile_plan`): one per formula and
        context header, all within the first steps.  At fixed traffic
        none of them depends on the resident state, which is what the
        cost-model tests assert.
        """
        return {
            "view_evaluations": sum(v.evaluations for v in self._views),
            "view_keys": sum(v.keys_evaluated for v in self._views),
            "bound_visits": sum(
                aux.bound_visits for aux in self._aux.values()
            ),
            "survival_checks": sum(
                aux.survival_checks for aux in self._aux.values()
            ),
            "plans_compiled": self._provider.plans.cache_info().misses,
        }

    def sharing_stats(self) -> Dict[str, float]:
        """Dedup accounting of auxiliary maintenance.

        ``classes`` is the number of auxiliary states maintained (one
        per rename-equivalence class); ``shared_nodes`` counts the
        structurally distinct temporal nodes served by another class
        member's state; ``dedup_ratio`` is maintained states over
        distinct nodes (1.0 = nothing shared).
        """
        classes = len(self._aux)
        distinct = len(self._node_class)
        return {
            "classes": float(classes),
            "shared_nodes": float(distinct - classes),
            "distinct_nodes": float(distinct),
            "dedup_ratio": (classes / distinct) if distinct else 1.0,
        }

    # instrumentation: the uniform accounting protocol
    # (aux_tuple_count / aux_profile / state_profile / ...) is
    # inherited, through Engine, from repro.core.statespace.AuxAccounting
