"""Cross-constraint planner: sharing, subsumption, and state bounds.

A constraint *set* is more analyzable than its constraints one by one:

* **Shared subformulas** — the bounded-history encoding maintains one
  auxiliary relation per temporal subformula, so two constraints whose
  temporal subtrees coincide *up to variable renaming* can share a
  single auxiliary state.  :func:`build_plan` hash-conses every
  temporal subformula of every constraint's violation kernel into
  rename-equivalence classes (:func:`canonical_key` generalises the
  linter's whole-constraint canonicalisation to arbitrary subtrees)
  and reports the sharing map the incremental checker realises: it
  keeps one auxiliary state per class.

* **Static cost/memory bounds** — every class carries the
  :class:`~repro.core.bounds.NodeCost` model (estimated valuations ×
  window bound), so the plan predicts per-constraint auxiliary state
  before a single event is processed, and can be gated with a state
  budget.

* **Subsumption** — a constraint whose violation condition is a
  θ-instance-superset of another's is redundant (every violation it
  reports, the other reports too), in the spirit of simplified
  integrity checking à la Martinenghi.  :func:`find_subsumptions`
  detects such pairs syntactically (sound, incomplete).

The result is a deterministic, versioned ``repro-plan/1`` document
(:class:`Plan`), surfaced by lint codes RTC013–RTC016
(:mod:`repro.lint.sharing`) and the ``repro plan`` CLI subcommand.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.bounds import (
    DEFAULT_RELATION_SIZE,
    NodeCost,
    clock_horizon,
    has_unbounded_operator,
    node_cost,
)
from repro.core.checker import Constraint
from repro.core.formulas import (
    Aggregate,
    And,
    Atom,
    Comparison,
    Const,
    Formula,
    Not,
    Or,
    Since,
    Term,
    Var,
    _Quantifier,
)
from repro.core.normalize import canonical_variables, canonicalize_variant
from repro.core.paths import FormulaPath, walk_with_paths
from repro.errors import ReproError

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "canonical_variables",
    "canonicalize_subformula",
    "canonical_key",
    "ClassMember",
    "SharingClass",
    "build_classes",
    "theta_subsumes",
    "Subsumption",
    "find_subsumptions",
    "ConstraintPlan",
    "Plan",
    "build_plan",
]

#: Version tag of the plan JSON document.
PLAN_SCHEMA_VERSION = "repro-plan/1"

#: Conjunct-count cap above which the θ-subsumption search is skipped
#: (the backtracking matcher is exponential in the worst case).
MAX_SUBSUMPTION_CONJUNCTS = 8


# ----------------------------------------------------------------------
# canonicalisation (rename-equivalence of subformulas)
# ----------------------------------------------------------------------

#: Re-exported for planner users; the implementation lives in
#: :mod:`repro.core.normalize` so the incremental checker can share it
#: without a circular import.
canonicalize_subformula = canonicalize_variant


def canonical_key(formula: Formula) -> str:
    """The rename-equivalence class key of ``formula`` (its canonical
    string).  Hash-consing on this key groups subformulas that differ
    only in variable names."""
    return str(canonicalize_subformula(formula)[0])


# ----------------------------------------------------------------------
# sharing classes
# ----------------------------------------------------------------------

class ClassMember:
    """One occurrence of an equivalence class inside one constraint."""

    __slots__ = ("constraint", "path", "node", "mapping")

    def __init__(
        self,
        constraint: str,
        path: FormulaPath,
        node: Formula,
        mapping: Dict[str, str],
    ):
        self.constraint = constraint
        self.path = path
        self.node = node
        #: original variable (free or bound) -> canonical ``vN`` name
        self.mapping = mapping

    def location(self, root: Formula) -> str:
        """Human-readable breadcrumb of this occurrence."""
        return self.path.render(root)

    def __repr__(self) -> str:
        return f"ClassMember({self.constraint!r}, {self.node})"


class SharingClass:
    """One rename-equivalence class of temporal subformulas."""

    __slots__ = ("key", "representative", "members", "cost")

    def __init__(
        self,
        key: str,
        representative: Formula,
        members: List[ClassMember],
        cost: NodeCost,
    ):
        self.key = key
        #: the canonical alpha-variant all members rename into
        self.representative = representative
        self.members = members
        self.cost = cost

    @property
    def constraints(self) -> List[str]:
        """Sorted distinct owning constraint names."""
        return sorted({m.constraint for m in self.members})

    @property
    def distinct_nodes(self) -> int:
        """Structurally distinct member nodes (the checker's natural
        dedup unit; > 1 means sharing needs the rename fan-out)."""
        return len({m.node for m in self.members})

    @property
    def shared(self) -> bool:
        """Whether more than one constraint owns this class."""
        return len({m.constraint for m in self.members}) > 1

    @property
    def needs_rename(self) -> bool:
        """Whether members are rename-variants rather than structurally
        identical (one state then serves them through a column
        renaming)."""
        return self.distinct_nodes > 1

    @property
    def saved_evaluations_per_step(self) -> int:
        """Operand evaluations per step that shared maintenance saves:
        every structurally distinct node beyond the first."""
        return (self.distinct_nodes - 1) * self.cost.evals_per_step

    @property
    def saved_tuples(self) -> int:
        """Predicted auxiliary tuples saved by maintaining the class
        once instead of once per structurally distinct node."""
        return (self.distinct_nodes - 1) * self.cost.tuple_bound

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able, deterministic description of the class."""
        return {
            "canonical": self.key,
            "operator": type(self.representative).__name__.upper(),
            "members": [
                {"constraint": m.constraint,
                 "node": str(m.node),
                 "path": list(m.path.steps)}
                for m in sorted(
                    self.members,
                    key=lambda m: (m.constraint, m.path.steps),
                )
            ],
            "constraints": self.constraints,
            "distinct_nodes": self.distinct_nodes,
            "shared": self.shared,
            "needs_rename": self.needs_rename,
            "cost": {
                "valuations": self.cost.valuations,
                "tuple_bound": self.cost.tuple_bound,
                "evals_per_step": self.cost.evals_per_step,
                "bounded": self.cost.bounded,
            },
            "saved_evaluations_per_step": self.saved_evaluations_per_step,
            "saved_tuples": self.saved_tuples,
        }

    def __repr__(self) -> str:
        return (
            f"SharingClass({self.key!r}, members={len(self.members)}, "
            f"constraints={len(self.constraints)})"
        )


def build_classes(
    constraints: Sequence[Constraint],
    relation_sizes: Optional[Mapping[str, int]] = None,
    default_relation_size: int = DEFAULT_RELATION_SIZE,
) -> List[SharingClass]:
    """Hash-cons all temporal subformulas into rename-equivalence
    classes, sorted by canonical key (deterministic)."""
    classes: Dict[str, SharingClass] = {}
    for constraint in constraints:
        kernel = constraint.violation_formula
        for path, node in walk_with_paths(kernel):
            if not node.is_temporal:
                continue
            representative, mapping = canonicalize_subformula(node)
            key = str(representative)
            entry = classes.get(key)
            if entry is None:
                entry = SharingClass(
                    key,
                    representative,
                    [],
                    node_cost(
                        representative, relation_sizes,
                        default_relation_size,
                    ),
                )
                classes[key] = entry
            entry.members.append(
                ClassMember(constraint.name, path, node, mapping)
            )
    return [classes[key] for key in sorted(classes)]


# ----------------------------------------------------------------------
# θ-subsumption (Martinenghi-style redundancy detection)
# ----------------------------------------------------------------------

#: substitution image: a variable or a constant, keyed structurally
_TermKey = Tuple[str, Any]
_Subst = Dict[str, _TermKey]


def _term_key(term: Term) -> _TermKey:
    if isinstance(term, Var):
        return ("var", term.name)
    if isinstance(term, Const):
        return ("const", term.value)
    raise TypeError(f"unknown term: {type(term).__name__}")


def _match_term(
    general: Term, specific: Term, subst: _Subst
) -> Optional[_Subst]:
    """Extend ``subst`` so that ``general``σ = ``specific``; None if
    impossible.  Constants only match equal constants; variables bind
    consistently across the whole conjunct set."""
    if isinstance(general, Const):
        if isinstance(specific, Const) and general.value == specific.value:
            return subst
        return None
    if not isinstance(general, Var):
        return None
    target = _term_key(specific)
    bound = subst.get(general.name)
    if bound is not None:
        return subst if bound == target else None
    extended = dict(subst)
    extended[general.name] = target
    return extended


def _match_binders(
    general: Sequence[str], specific: Sequence[str], subst: _Subst
) -> Optional[_Subst]:
    """Pair bound-variable lists positionally (variable-to-variable)."""
    if len(general) != len(specific):
        return None
    current: Optional[_Subst] = subst
    for g, s in zip(general, specific):
        if current is None:
            return None
        current = _match_term(Var(g), Var(s), current)
    return current


def _match(
    general: Formula, specific: Formula, subst: _Subst
) -> Iterator[_Subst]:
    """All substitutions σ extending ``subst`` with ``general``σ
    structurally equal to ``specific`` (syntactic θ-matching)."""
    if type(general) is not type(specific):
        return
    if isinstance(general, Atom):
        assert isinstance(specific, Atom)
        if (general.relation != specific.relation
                or len(general.terms) != len(specific.terms)):
            return
        current: Optional[_Subst] = subst
        for g, s in zip(general.terms, specific.terms):
            current = _match_term(g, s, current) if current is not None \
                else None
            if current is None:
                return
        yield current
        return
    if isinstance(general, Comparison):
        assert isinstance(specific, Comparison)
        if general.op != specific.op:
            return
        left = _match_term(general.left, specific.left, subst)
        if left is None:
            return
        full = _match_term(general.right, specific.right, left)
        if full is not None:
            yield full
        return
    if isinstance(general, Not):
        assert isinstance(specific, Not)
        yield from _match(general.operand, specific.operand, subst)
        return
    if isinstance(general, (And, Or)):
        assert isinstance(specific, (And, Or))
        if len(general.operands) != len(specific.operands):
            return
        states = [subst]
        for g, s in zip(general.operands, specific.operands):
            states = [
                extended
                for state in states
                for extended in _match(g, s, state)
            ]
            if not states:
                return
        yield from states
        return
    if isinstance(general, _Quantifier):
        assert isinstance(specific, _Quantifier)
        paired = _match_binders(
            general.variables, specific.variables, subst
        )
        if paired is None:
            return
        yield from _match(general.operand, specific.operand, paired)
        return
    if isinstance(general, Aggregate):
        assert isinstance(specific, Aggregate)
        if general.op != specific.op:
            return
        paired = _match_term(
            Var(general.result), Var(specific.result), subst
        )
        if paired is None:
            return
        paired = _match_binders(general.over, specific.over, paired)
        if paired is None:
            return
        yield from _match(general.body, specific.body, paired)
        return
    # temporal operators: intervals must agree exactly
    interval = getattr(general, "interval", None)
    if interval is not None and interval != getattr(specific, "interval",
                                                   None):
        return
    if isinstance(general, Since):
        assert isinstance(specific, Since)
        for state in _match(general.left, specific.left, subst):
            yield from _match(general.right, specific.right, state)
        return
    children_g = general.children()
    children_s = specific.children()
    if len(children_g) != len(children_s):
        return
    states = [subst]
    for g, s in zip(children_g, children_s):
        states = [
            extended
            for state in states
            for extended in _match(g, s, state)
        ]
        if not states:
            return
    yield from states


def _conjuncts(kernel: Formula) -> List[Formula]:
    if isinstance(kernel, And):
        return list(kernel.operands)
    return [kernel]


def theta_subsumes(general: Formula, specific: Formula) -> bool:
    """Whether ``general``'s conjuncts θ-match into ``specific``'s.

    Both arguments are violation kernels.  If true, every violation of
    the *specific* kernel is (a projection of) a violation of the
    *general* one, so the constraint owning ``specific`` is redundant
    next to the one owning ``general``.  Syntactic and therefore
    incomplete, but sound.
    """
    general_parts = _conjuncts(general)
    specific_parts = _conjuncts(specific)
    if (len(general_parts) > MAX_SUBSUMPTION_CONJUNCTS
            or len(specific_parts) > MAX_SUBSUMPTION_CONJUNCTS):
        return False

    def search(index: int, subst: _Subst) -> bool:
        if index == len(general_parts):
            return True
        for candidate in specific_parts:
            for extended in _match(
                general_parts[index], candidate, subst
            ):
                if search(index + 1, extended):
                    return True
        return False

    return search(0, {})


class Subsumption:
    """One detected redundancy: ``subsumed`` is implied by ``by``."""

    __slots__ = ("subsumed", "by")

    def __init__(self, subsumed: str, by: str):
        self.subsumed = subsumed
        self.by = by

    def to_dict(self) -> Dict[str, str]:
        """JSON-able ``{"subsumed": ..., "by": ...}`` pair."""
        return {"subsumed": self.subsumed, "by": self.by}

    def __repr__(self) -> str:
        return f"Subsumption({self.subsumed!r} by {self.by!r})"


def find_subsumptions(
    constraints: Sequence[Constraint],
) -> List[Subsumption]:
    """All ordered pairs where one constraint makes another redundant.

    Exact rename-duplicates (equal canonical kernels) are *not*
    reported — they are the linter's RTC009 business; this reports
    proper subsumptions only.
    """
    out: List[Subsumption] = []
    keys = {c.name: canonical_key(c.violation_formula)
            for c in constraints}
    for specific in constraints:
        for general in constraints:
            if general.name == specific.name:
                continue
            if keys[general.name] == keys[specific.name]:
                continue  # exact duplicate: RTC009 territory
            if theta_subsumes(
                general.violation_formula, specific.violation_formula
            ):
                out.append(Subsumption(specific.name, general.name))
    return out


# ----------------------------------------------------------------------
# the plan document
# ----------------------------------------------------------------------

class ConstraintPlan:
    """Per-constraint static summary inside a plan."""

    __slots__ = (
        "name", "temporal_nodes", "horizon", "unbounded", "tuple_bound",
    )

    def __init__(
        self,
        name: str,
        temporal_nodes: int,
        horizon: Optional[int],
        unbounded: bool,
        tuple_bound: int,
    ):
        self.name = name
        self.temporal_nodes = temporal_nodes
        #: clock lookback in clock units (None = unbounded)
        self.horizon = horizon
        #: whether any ONCE/SINCE window is infinite
        self.unbounded = unbounded
        #: predicted auxiliary tuples across the constraint's own nodes
        self.tuple_bound = tuple_bound

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able per-constraint summary."""
        return {
            "name": self.name,
            "temporal_nodes": self.temporal_nodes,
            "horizon": self.horizon,
            "unbounded": self.unbounded,
            "tuple_bound": self.tuple_bound,
        }


class Plan:
    """The full ``repro-plan/1`` analysis of one constraint set."""

    def __init__(
        self,
        constraints: List[ConstraintPlan],
        classes: List[SharingClass],
        subsumptions: List[Subsumption],
        skipped: List[Tuple[str, str]],
    ):
        self.constraints = constraints
        self.classes = classes
        self.subsumptions = subsumptions
        #: ``(name, reason)`` for constraints the planner cannot
        #: analyze (e.g. unsafe formulas rejected by compilation)
        self.skipped = skipped

    # -- sharing summary ----------------------------------------------

    @property
    def total_nodes(self) -> int:
        """Temporal subformula occurrences across all constraints."""
        return sum(len(c.members) for c in self.classes)

    @property
    def distinct_nodes(self) -> int:
        """Structurally distinct temporal nodes (pre-rename dedup)."""
        return sum(c.distinct_nodes for c in self.classes)

    @property
    def shared_nodes(self) -> int:
        """Structurally distinct nodes beyond one per class — the
        auxiliary states rename-sharing eliminates."""
        return sum(c.distinct_nodes - 1 for c in self.classes)

    @property
    def dedup_ratio(self) -> float:
        """Distinct auxiliary states with sharing over without
        (1.0 = nothing shared, smaller is better)."""
        if not self.distinct_nodes:
            return 1.0
        return len(self.classes) / self.distinct_nodes

    @property
    def saved_evaluations_per_step(self) -> int:
        """Total operand evaluations per step sharing saves."""
        return sum(c.saved_evaluations_per_step for c in self.classes)

    @property
    def saved_tuples(self) -> int:
        """Total predicted auxiliary tuples sharing saves."""
        return sum(c.saved_tuples for c in self.classes)

    def sharing_map(self) -> Dict[str, List[str]]:
        """Canonical key -> sorted owning constraints, shared classes
        only (the map the checker realises)."""
        return {
            c.key: c.constraints for c in self.classes if c.shared
        }

    def to_dict(self) -> Dict[str, Any]:
        """The deterministic ``repro-plan/1`` document."""
        return {
            "version": PLAN_SCHEMA_VERSION,
            "constraints": [c.to_dict() for c in self.constraints],
            "skipped": [
                {"name": name, "reason": reason}
                for name, reason in self.skipped
            ],
            "classes": [c.to_dict() for c in self.classes],
            "sharing": {
                "classes": len(self.classes),
                "total_nodes": self.total_nodes,
                "distinct_nodes": self.distinct_nodes,
                "shared_nodes": self.shared_nodes,
                "dedup_ratio": round(self.dedup_ratio, 4),
                "saved_evaluations_per_step":
                    self.saved_evaluations_per_step,
                "saved_tuples": self.saved_tuples,
                "map": self.sharing_map(),
            },
            "subsumptions": [s.to_dict() for s in self.subsumptions],
        }

    def render_text(self) -> str:
        """Human-readable plan summary (deterministic)."""
        lines: List[str] = []
        lines.append(
            f"plan: {len(self.constraints)} constraint(s), "
            f"{self.total_nodes} temporal node(s), "
            f"{len(self.classes)} equivalence class(es)"
        )
        for entry in self.constraints:
            horizon = ("unbounded" if entry.horizon is None
                       else str(entry.horizon))
            lines.append(
                f"  constraint {entry.name}: "
                f"{entry.temporal_nodes} temporal node(s), "
                f"horizon {horizon}, "
                f"predicted tuples <= {entry.tuple_bound}"
                + (" (unbounded window)" if entry.unbounded else "")
            )
        for name, reason in self.skipped:
            lines.append(f"  skipped {name}: {reason}")
        shared = [c for c in self.classes if c.shared]
        if shared:
            lines.append(f"shared classes ({len(shared)}):")
            for cls in shared:
                lines.append(
                    f"  {cls.key}  owners={','.join(cls.constraints)} "
                    f"nodes={cls.distinct_nodes} "
                    f"tuple_bound={cls.cost.tuple_bound} "
                    f"saves {cls.saved_evaluations_per_step} eval(s)/step"
                )
        else:
            lines.append("shared classes: none")
        lines.append(
            f"sharing: {self.shared_nodes} auxiliary state(s) saved, "
            f"dedup ratio {self.dedup_ratio:.2f}, "
            f"~{self.saved_evaluations_per_step} operand eval(s)/step and "
            f"~{self.saved_tuples} tuple(s) saved"
        )
        if self.subsumptions:
            for sub in self.subsumptions:
                lines.append(
                    f"subsumption: {sub.subsumed!r} is implied by "
                    f"{sub.by!r} — monitoring both is redundant"
                )
        else:
            lines.append("subsumptions: none")
        return "\n".join(lines)


def _compile(
    name: str, formula: Union[str, Formula]
) -> Tuple[Optional[Constraint], str]:
    try:
        return Constraint(name, formula), ""
    except ReproError as exc:
        return None, str(exc)


def build_plan(
    constraints: Sequence[Tuple[str, Union[str, Formula]]],
    relation_sizes: Optional[Mapping[str, int]] = None,
    default_relation_size: int = DEFAULT_RELATION_SIZE,
) -> Plan:
    """Analyze a constraint set into a :class:`Plan`.

    Args:
        constraints: ``(name, formula)`` pairs (text or AST).
        relation_sizes: optional per-relation cardinality hints for the
            valuation estimates (active-domain sizes).
        default_relation_size: hint for relations not listed.

    Constraints that fail compilation (unsafe formulas, parse-level
    defects) are excluded from the analysis and listed under
    ``skipped`` with the reason — the linter proper reports them.
    """
    compiled: List[Constraint] = []
    skipped: List[Tuple[str, str]] = []
    for name, formula in constraints:
        constraint, reason = _compile(name, formula)
        if constraint is None:
            skipped.append((name, reason))
        else:
            compiled.append(constraint)
    classes = build_classes(
        compiled, relation_sizes, default_relation_size
    )
    entries: List[ConstraintPlan] = []
    for constraint in compiled:
        kernel = constraint.violation_formula
        nodes = list(kernel.temporal_subformulas())
        bound = sum(
            node_cost(
                node, relation_sizes, default_relation_size
            ).tuple_bound
            for node in nodes
        )
        entries.append(ConstraintPlan(
            constraint.name,
            temporal_nodes=len(nodes),
            horizon=clock_horizon(kernel),
            unbounded=has_unbounded_operator(kernel),
            tuple_bound=bound,
        ))
    return Plan(
        entries, classes, find_subsumptions(compiled), skipped
    )
