"""The analysis rules behind the constraint linter.

Each ``check_*`` function implements one rule family from the registry
(:mod:`repro.lint.registry`) and returns a list of
:class:`~repro.lint.diagnostics.Diagnostic` values.  The rules walk the
*source* formula (as parsed), its normalized violation kernel, the
database schema, and — for program-level rules — the whole constraint
set, the active-rule program, and the monitor configuration.

The functions are pure and individually callable; most users go
through :class:`repro.lint.Linter`, which runs them in registry order
and assembles a report.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.core.bounds import clock_horizon
from repro.core.checker import type_conflicts
from repro.core.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Comparison,
    Const,
    Formula,
    Hist,
    Not,
    Once,
    Prev,
    Since,
    Var,
)
from repro.core.normalize import (
    canonical_variables,
    normalize,
    rename_all_variables,
    rename_apart,
)
from repro.core.optimize import _truth_of, optimize
from repro.core.paths import FormulaPath, walk_with_paths
from repro.core.safety import collect_unsafe
from repro.db.schema import DatabaseSchema
from repro.errors import SchemaError
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintConfig

if TYPE_CHECKING:
    from repro.active.rules import Rule

#: Past operators whose windows bound the auxiliary state.
_PAST_OPERATORS = (Prev, Once, Hist, Since)


def _diag(
    config: LintConfig,
    code: str,
    message: str,
    constraint: Optional[str] = None,
    path: Optional[FormulaPath] = None,
    root: Optional[Formula] = None,
    hint: Optional[str] = None,
    severity: Optional[Severity] = None,
) -> Optional[Diagnostic]:
    """Build one diagnostic, or ``None`` if the rule is disabled.

    ``severity`` lets a rule deviate from the registry default for one
    finding; an explicit config override still wins.
    """
    if not config.enabled(code):
        return None
    if code in config.severity_overrides:
        effective = config.severity_overrides[code]
    elif severity is not None:
        effective = severity
    else:
        effective = config.severity(code)
    location = None
    if path is not None and root is not None and not path.is_root:
        location = path.render(root)
    return Diagnostic(code=code, severity=effective, message=message,
                      constraint=constraint, location=location, path=path,
                      hint=hint)


def check_schema(
    name: str,
    formula: Formula,
    schema: DatabaseSchema,
    config: LintConfig,
) -> List[Diagnostic]:
    """RTC001/RTC002: unknown relations and arity mismatches."""
    out: List[Diagnostic] = []
    for path, node in walk_with_paths(formula):
        if not isinstance(node, Atom):
            continue
        try:
            declared = schema.relation(node.relation).arity
        except SchemaError:
            out.append(_diag(
                config, "RTC001",
                f"atom {node} references unknown relation "
                f"{node.relation!r}",
                name, path, formula,
                hint=f"declared relations: "
                     f"{', '.join(sorted(schema.relation_names()))}",
            ))
            continue
        if len(node.terms) != declared:
            out.append(_diag(
                config, "RTC002",
                f"atom {node} has {len(node.terms)} argument(s) but "
                f"relation {node.relation!r} is declared with arity "
                f"{declared}",
                name, path, formula,
            ))
    return [d for d in out if d is not None]


def check_types(
    name: str,
    formula: Formula,
    schema: Optional[DatabaseSchema],
    config: LintConfig,
) -> List[Diagnostic]:
    """RTC003: constants and comparisons vs. the declared domains.

    The inference is the one :meth:`Constraint.validate_schema
    <repro.core.checker.Constraint.validate_schema>` refuses a
    constraint by (:func:`repro.core.checker.type_conflicts`); here
    every finding is reported, with its location.
    """
    if not config.enabled("RTC003"):
        return []
    out = [
        _diag(config, "RTC003", message, name, path, root)
        for message, path, root in type_conflicts(formula, schema)
    ]
    return [d for d in out if d is not None]


def check_safety(
    name: str, formula: Formula, config: LintConfig
) -> List[Diagnostic]:
    """RTC004: safe-range (monitorability) analysis on the violation form.

    Mirrors :class:`repro.core.checker.Constraint`: the per-node
    temporal/aggregate conditions are checked on the normalized kernel
    of ``NOT formula``; if those hold, overall evaluability is checked
    on the optimized violation formula.
    """
    if not config.enabled("RTC004"):
        return []
    kernel = normalize(Not(formula))
    problems = collect_unsafe(kernel)
    root: Formula = kernel
    if not problems:
        root = optimize(kernel)
        problems = collect_unsafe(root)
    out = []
    for path, _node, reason in problems:
        out.append(_diag(
            config, "RTC004",
            f"violation form {root} is not safely evaluable: {reason}",
            name, path, root,
            hint="every variable must be bound by a positive atom "
                 "before negations or comparisons use it",
        ))
    return [d for d in out if d is not None]


def check_intervals(
    name: str, formula: Formula, config: LintConfig
) -> List[Diagnostic]:
    """RTC006: zero-width and granularity-unreachable metric windows.

    Empty intervals (``[a,b]`` with ``a > b``) never reach this rule —
    the parser rejects them, which the linter reports as RTC005.
    """
    out: List[Diagnostic] = []
    granularity = config.clock_granularity
    for path, node in walk_with_paths(formula):
        interval = getattr(node, "interval", None)
        if interval is None or interval.is_trivial:
            continue
        # [0,0] is the present instant — deliberate, not a typo
        if (interval.high is not None and interval.low == interval.high
                and interval.low != 0):
            out.append(_diag(
                config, "RTC006",
                f"operator {node} has a zero-width window {interval}: "
                f"it only observes states at clock distance exactly "
                f"{interval.low}",
                name, path, formula,
                hint="zero-width metric windows usually mean the bound "
                     "was meant as [0,k] or [k,*]",
            ))
        elif (granularity > 1 and interval.high is not None
              and (interval.high // granularity) * granularity
              < interval.low):
            out.append(_diag(
                config, "RTC006",
                f"window {interval} of {node} contains no multiple of "
                f"the clock granularity {granularity}, so it can never "
                f"match a sampled state",
                name, path, formula,
            ))
    return [d for d in out if d is not None]


def check_bounded_history(
    name: str, formula: Formula, config: LintConfig
) -> List[Diagnostic]:
    """RTC007: past operators whose windows are unbounded.

    Unbounded past is expressible (and sometimes intended), but the
    bounded-history encoding cannot bound auxiliary state for it; the
    default severity is advisory and escalates to error under
    ``require_bounded``.
    """
    out: List[Diagnostic] = []
    horizon = clock_horizon(formula)
    for path, node in walk_with_paths(formula):
        if isinstance(node, _PAST_OPERATORS) and not node.interval.is_bounded:
            out.append(_diag(
                config, "RTC007",
                f"past operator {node} has an unbounded window, so the "
                f"constraint's history horizon is "
                f"{'unbounded' if horizon is None else horizon} and "
                f"auxiliary state can grow without bound",
                name, path, formula,
                hint="bound the window ([0,k]) if the property only "
                     "needs a finite lookback",
            ))
    return [d for d in out if d is not None]


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)


def _single_var_constraints(
    conjuncts: Sequence[Formula],
) -> Dict[str, List[Tuple[str, object, Formula]]]:
    """Group var-vs-constant comparisons of a conjunction by variable."""
    grouped: Dict[str, List[Tuple[str, object, Formula]]] = {}
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison):
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, Var) and isinstance(right, Const):
            grouped.setdefault(left.name, []).append(
                (conjunct.op, right.value, conjunct))
        elif isinstance(left, Const) and isinstance(right, Var):
            grouped.setdefault(right.name, []).append(
                (_flip(conjunct.op), left.value, conjunct))
    return grouped


def _unsatisfiable(constraints: List[Tuple[str, object, Formula]]) -> bool:
    """Whether ``var op const`` constraints are jointly unsatisfiable.

    Sound under dense order (never flags a satisfiable set); mixes of
    string and numeric constants are left to the type rule.
    """
    values = [value for _op, value, _node in constraints]
    if len({isinstance(v, str) for v in values}) > 1:
        return False
    equalities = [v for op, v, _n in constraints if op == "="]
    if equalities:
        if len(set(equalities)) > 1:
            return True
        pinned = equalities[0]
        return not all(
            Comparison(Const(0), op, Const(0)).evaluate(pinned, value)
            for op, value, _node in constraints
        )
    low: Optional[Tuple[object, bool]] = None   # (value, strict)
    high: Optional[Tuple[object, bool]] = None
    excluded = {v for op, v, _n in constraints if op == "!="}
    for op, value, _node in constraints:
        if op in (">", ">="):
            strict = op == ">"
            if low is None or value > low[0] or (
                    value == low[0] and strict):
                low = (value, strict)
        elif op in ("<", "<="):
            strict = op == "<"
            if high is None or value < high[0] or (
                    value == high[0] and strict):
                high = (value, strict)
    if low is not None and high is not None:
        if low[0] > high[0]:
            return True
        if low[0] == high[0]:
            if low[1] or high[1]:
                return True
            return low[0] in excluded
    return False


def check_vacuity(
    name: str, formula: Formula, config: LintConfig
) -> List[Diagnostic]:
    """RTC008: constraints and subformulas with constant truth values.

    Three detectors on the normalized violation kernel: (a) the whole
    violation formula optimizes to a constant (the constraint can never
    be violated, or is violated at every state); (b) a maximal proper
    subformula optimizes to a constant the optimizer will fold away;
    (c) a conjunction pins one variable with jointly unsatisfiable
    comparisons.
    """
    if not config.enabled("RTC008"):
        return []
    out: List[Diagnostic] = []
    kernel = normalize(Not(formula))
    violation = optimize(kernel)
    truth = _truth_of(violation)
    if truth is False:
        out.append(_diag(
            config, "RTC008",
            f"constraint is a tautology: its violation form reduces to "
            f"FALSE, so it can never be violated",
            name,
            hint="a constraint that can never fire usually has a "
                 "contradictory antecedent or an always-true consequent",
        ))
    elif truth is True:
        out.append(_diag(
            config, "RTC008",
            f"constraint is unsatisfiable: its violation form reduces "
            f"to TRUE, so it is violated at every state",
            name,
        ))
    else:
        def scan(path: FormulaPath, node: Formula) -> None:
            if node == TRUE or node == FALSE:
                return
            node_truth = _truth_of(optimize(node))
            if node_truth is not None:
                out.append(_diag(
                    config, "RTC008",
                    f"subformula {node} is always "
                    f"{'true' if node_truth else 'false'} and will be "
                    f"folded away before evaluation",
                    name, path, kernel,
                ))
                return  # maximal: skip descendants
            for index, child in enumerate(node.children()):
                scan(path.child(index), child)

        for index, child in enumerate(kernel.children()):
            scan(FormulaPath((index,)), child)
        for path, node in walk_with_paths(kernel):
            if not isinstance(node, And):
                continue
            for var, constraints in sorted(
                    _single_var_constraints(node.operands).items()):
                if len(constraints) > 1 and _unsatisfiable(constraints):
                    shown = ", ".join(str(n) for _o, _v, n in constraints)
                    out.append(_diag(
                        config, "RTC008",
                        f"comparisons on variable {var!r} are jointly "
                        f"unsatisfiable: {shown}",
                        name, path, kernel,
                    ))
    return [d for d in out if d is not None]


def canonical_form(formula: Formula) -> str:
    """A canonical string for duplicate detection (RTC009).

    The violation form is normalized, optimized, renamed apart, and its
    variables are renumbered ``v1, v2, ...`` in first-occurrence order,
    so two constraints that differ only in variable names (or in
    sugar the normalizer removes) collapse to the same string.

    Renumbering covers *all* variable positions, including quantifier
    binders and aggregate result/grouping variables, so two aggregates
    that differ only in bound-variable names also collapse.
    """
    kernel = rename_apart(optimize(normalize(Not(formula))))
    return str(rename_all_variables(kernel, canonical_variables(kernel)))


def _canonical_subformula(formula: Formula) -> str:
    """The rename-equivalence key of one subformula in isolation."""
    return str(rename_all_variables(formula, canonical_variables(formula)))


def _first_divergence(
    a: Formula, b: Formula, _path: FormulaPath = FormulaPath()
) -> Optional[FormulaPath]:
    """The path where two (canonicalized) formulas first differ.

    ``None`` when the trees are identical; the current path when the
    node types, child counts, or — with structurally equal children —
    local attributes (relation, interval, comparison operator) differ.
    """
    if str(a) == str(b):
        return None
    children_a, children_b = a.children(), b.children()
    if type(a) is not type(b) or len(children_a) != len(children_b):
        return _path
    for index, (x, y) in enumerate(zip(children_a, children_b)):
        found = _first_divergence(x, y, _path.child(index))
        if found is not None:
            return found
    return _path


def check_duplicates(
    constraints: Sequence[Tuple[str, Formula]], config: LintConfig
) -> List[Diagnostic]:
    """RTC009: constraints equal up to variable renaming.

    Also reports *near*-duplicates as advisories: two constraints
    whose violation kernels share a top-level temporal conjunct (up to
    renaming) but diverge elsewhere, with the formula path of the
    first divergence — usually a copy-paste family that the planner
    can maintain shared state for.
    """
    if not config.enabled("RTC009"):
        return []
    seen: Dict[str, str] = {}
    out: List[Diagnostic] = []
    kernels: List[Tuple[str, str, Formula]] = []
    for name, formula in constraints:
        kernel = rename_apart(optimize(normalize(Not(formula))))
        canonical = str(rename_all_variables(
            kernel, canonical_variables(kernel)))
        if canonical in seen:
            out.append(_diag(
                config, "RTC009",
                f"constraint duplicates {seen[canonical]!r} up to "
                f"variable renaming; both monitor the same property",
                name,
                hint=f"drop one of {seen[canonical]!r} and {name!r}",
            ))
        else:
            seen[canonical] = name
            kernels.append((name, canonical, kernel))

    # near-duplicates: distinct kernels sharing a top-level temporal
    # conjunct class; report the later constraint once, pointing at
    # the first divergence from the earlier one.
    conjunct_owners: Dict[str, Tuple[str, Formula]] = {}
    reported: Set[str] = set()
    for name, canonical, kernel in kernels:
        conjuncts = (kernel.children() if isinstance(kernel, And)
                     else (kernel,))
        hit: Optional[Tuple[str, Formula]] = None
        for conjunct in conjuncts:
            if not any(n.is_temporal for n in conjunct.walk()):
                continue
            key = _canonical_subformula(conjunct)
            earlier = conjunct_owners.get(key)
            if earlier is not None and earlier[0] != name:
                hit = earlier
            else:
                conjunct_owners.setdefault(key, (name, kernel))
        if hit is None or name in reported:
            continue
        reported.add(name)
        earlier_name, earlier_kernel = hit
        canon_kernel = rename_all_variables(
            kernel, canonical_variables(kernel))
        canon_earlier = rename_all_variables(
            earlier_kernel, canonical_variables(earlier_kernel))
        divergence = _first_divergence(canon_kernel, canon_earlier)
        where = (divergence.render(canon_kernel)
                 if divergence is not None else "<root>")
        out.append(_diag(
            config, "RTC009",
            f"constraint is a near-duplicate of {earlier_name!r}: the "
            f"violation kernels share a temporal conjunct up to "
            f"renaming but first diverge at {where}",
            name,
            severity=Severity.INFO,
            hint="run `repro plan` to see the sharing classes and "
                 "maintain the common state once",
        ))
    return [d for d in out if d is not None]


def check_interference(
    rules: Sequence[Rule],
    constraints: Sequence[Tuple[str, Formula]],
    config: LintConfig,
) -> List[Diagnostic]:
    """RTC010: retrigger cycles and dead writes in an ECA program.

    Operates on the *declared* ``reads``/``writes`` metadata of each
    rule (actions are opaque callables); rules that declare no writes
    are skipped.  An edge ``a -> b`` exists when ``a`` writes a
    relation whose insert/delete events trigger ``b``; every cycle —
    including self-loops — is reported once.
    """
    if not config.enabled("RTC010") or not rules:
        return []
    from repro.active.events import Event  # loaded: the caller has rules

    out: List[Diagnostic] = []
    declared = [r for r in rules if r.writes is not None]
    triggers: Dict[str, List[Rule]] = {}
    for rule in rules:
        relation = rule.pattern.relation
        if relation is not None and (
            rule.pattern.kind in (Event.INSERT, Event.DELETE)
        ):
            triggers.setdefault(relation, []).append(rule)
    edges: Dict[str, List[str]] = {r.name: [] for r in declared}
    for rule in declared:
        for written in rule.writes or ():
            for target in triggers.get(written, ()):
                # only declared-writes rules can continue a cycle
                if target.name in edges:
                    edges[rule.name].append(target.name)

    # cycle detection: DFS with an explicit stack, report each cycle
    # once (canonicalized by its lexicographically smallest rotation)
    reported: Set[Tuple[str, ...]] = set()

    def dfs(node: str, stack: List[str], on_stack: Set[str]) -> None:
        for successor in edges.get(node, ()):
            if successor in on_stack:
                cycle = stack[stack.index(successor):]
                pivot = cycle.index(min(cycle))
                canonical = tuple(cycle[pivot:] + cycle[:pivot])
                if canonical not in reported:
                    reported.add(canonical)
                    shown = " -> ".join(canonical + (canonical[0],))
                    out.append(_diag(
                        config, "RTC010",
                        f"active rules can retrigger each other "
                        f"without bound: {shown}",
                        hint="break the cycle by narrowing a rule's "
                             "event pattern or guarding its condition",
                    ))
            elif successor in edges:
                stack.append(successor)
                on_stack.add(successor)
                dfs(successor, stack, on_stack)
                on_stack.discard(successor)
                stack.pop()

    for rule in declared:
        dfs(rule.name, [rule.name], {rule.name})

    # dead writes: relations nothing reads and nothing is triggered by
    constraint_reads: Set[str] = set()
    for _name, formula in constraints:
        constraint_reads |= formula.relations_used()
    declared_reads: Set[str] = set()
    for rule in rules:
        if rule.reads is not None:
            declared_reads |= set(rule.reads)
    for rule in declared:
        for written in sorted(set(rule.writes or ())):
            if (written not in constraint_reads
                    and written not in triggers
                    and written not in declared_reads):
                out.append(_diag(
                    config, "RTC010",
                    f"rule {rule.name!r} writes relation {written!r} "
                    f"that no constraint reads and no rule observes",
                    hint="dead writes cost auxiliary space on every "
                         "commit; drop the write or the relation",
                ))
    return [d for d in out if d is not None]


def check_monitor_config(
    constraint_names: Sequence[str],
    config: LintConfig,
    urgent: Sequence[str] = (),
    journal: bool = False,
    checkpoint_every: Optional[int] = None,
) -> List[Diagnostic]:
    """RTC011: monitor configuration vs. the constraint set.

    Unknown names in the urgent set are errors (the monitor would
    silently never prioritise them); a checkpoint cadence with
    journaling off is a warning (checkpoints without a journal cannot
    replay the tail after a crash).
    """
    if not config.enabled("RTC011"):
        return []
    out: List[Diagnostic] = []
    known = set(constraint_names)
    for name in urgent:
        if name not in known:
            out.append(_diag(
                config, "RTC011",
                f"urgent set names unknown constraint {name!r}",
                severity=Severity.ERROR,
                hint=f"known constraints: "
                     f"{', '.join(sorted(known)) or '(none)'}",
            ))
    if checkpoint_every is not None and not journal:
        out.append(_diag(
            config, "RTC011",
            f"checkpoint cadence ({checkpoint_every}) is set but "
            f"journaling is off; a crash loses everything since the "
            f"last checkpoint",
            hint="enable the journal or drop the checkpoint cadence",
        ))
    return [d for d in out if d is not None]
