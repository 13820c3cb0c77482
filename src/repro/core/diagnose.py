"""Violation forensics: *why* did this constraint fail here?

``diagnose(checker, violation)`` re-examines a violation against the
checker's state right after the step that produced it, and explains,
per witness:

* which conjunct of the violation formula each witness satisfies (the
  violation formula is the *negation* of the constraint, so these are
  the constraint's failing obligations);
* for each temporal subformula, the auxiliary evidence for the
  witness's valuation — the stored anchor timestamps and how far the
  nearest one is from the window.

All five monitor engines are supported.  The evidence source differs
by engine but the report format does not:

* ``incremental`` / ``adom`` — the in-memory auxiliary states and the
  retained virtual tables of the reported step;
* ``active`` — the auxiliary *tables* (``aux{i}`` anchor rows, the
  ``PREV`` carry-over relations);
* ``naive`` / ``naive-memo`` — no auxiliary state exists, so anchor
  times are recomputed by scanning the stored history (the evidence
  line is prefixed ``history scan:``).

:func:`anchor_evidence` is public: the flight recorder
(:mod:`repro.obs.flight`) embeds the same evidence strings in its
crash snapshots, so a flight artifact joins against a later
``diagnose()`` of the same violation verbatim.

Must be called before the next ``step`` (the virtual tables and
auxiliary relations it reads are those of the reported state).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.checker import IncrementalChecker
from repro.core.foeval import StateTablesProvider, evaluate
from repro.core.formulas import And, Formula, Not, Once, Prev, Since
from repro.core.violations import Violation
from repro.db.algebra import Table
from repro.db.types import Value
from repro.errors import MonitorError


def _witness_context(
    witness: Dict[str, Value], needed: "frozenset[str]"
) -> Table:
    binding = {k: v for k, v in witness.items() if k in needed}
    if not binding:
        return Table.nullary(True)
    return Table.unit(binding)


def _witness_in(
    table: Table, witness: Dict[str, Value], formula: Formula
) -> bool:
    """Whether the witness's binding appears in a full answer table."""
    columns = tuple(sorted(formula.free_vars))
    bound = tuple(c for c in columns if c in witness)
    if not bound:
        return not table.is_empty
    key = tuple(witness[c] for c in bound)
    return key in set(table.project(bound)._aligned_rows(bound))


def _conjunct_verdict(checker, part, witness) -> Optional[bool]:
    """Evaluate one conjunct under the witness; None = undecidable."""
    context = _witness_context(witness, part.free_vars)
    try:
        if isinstance(checker, IncrementalChecker):
            return not evaluate(part, checker._provider, context).is_empty
        from repro.core.adom import ActiveDomainChecker, evaluate_adom

        if isinstance(checker, ActiveDomainChecker):
            provider = StateTablesProvider(
                checker.state, checker._last_virtual
            )
            table = evaluate_adom(
                part, provider, frozenset(checker.domain)
            )
            return _witness_in(table, witness, part)
        from repro.active.compiler import ActiveChecker, _ActiveProvider

        if isinstance(checker, ActiveChecker):
            provider = _ActiveProvider(checker)
            return not evaluate(part, provider, context).is_empty
        from repro.core.naive import NaiveChecker
        from repro.core.semantics import HistoryEvaluator

        if isinstance(checker, NaiveChecker):
            evaluator = (
                checker._evaluator
                if checker._evaluator is not None
                else HistoryEvaluator(checker.history)
            )
            index = checker.history.length - 1
            if isinstance(part, Not):
                # negation alone is not range-restricted over the
                # history evaluator; decide it from the operand when
                # the witness binds it fully
                inner = part.operand
                if not all(v in witness for v in inner.free_vars):
                    return None
                table = evaluator.table_at(inner, index)
                return not _witness_in(table, witness, inner)
            table = evaluator.table_at(part, index)
            return _witness_in(table, witness, part)
    except Exception:
        return None
    raise MonitorError(
        f"diagnose() does not support engine "
        f"{type(checker).__name__!r}"
    )


def _describe_anchors(times, now, interval) -> str:
    """The shared ONCE/SINCE evidence formatter (all engines)."""
    if not times:
        return "no anchors stored for this valuation"
    ages = [now - t for t in times]
    in_window = [a for a in ages if interval.contains(a)]
    if in_window:
        return (
            f"anchor(s) at distance {sorted(in_window)} inside "
            f"{interval}"
        )
    nearest = min(ages, key=lambda a: abs(a - interval.low))
    return (
        f"{len(times)} anchor(s) stored but none inside {interval}; "
        f"nearest is {nearest} units old"
    )


def _describe_prev(held: bool) -> str:
    return (
        "operand holds at the current state (visible next step)"
        if held
        else "operand does not hold at the current state"
    )


def anchor_evidence(
    checker, node: Formula, witness: Dict[str, Value]
) -> str:
    """Describe the stored auxiliary evidence for one witness.

    Works across all five engines; see the module docstring for where
    each engine's evidence comes from.
    """
    now = checker.now
    if now is None:
        return "no auxiliary state"
    columns = tuple(sorted(node.free_vars))
    if not all(c in witness for c in columns):
        return "witness does not bind this subformula"
    key = tuple(witness[c] for c in columns)

    lookup = getattr(checker, "auxiliary_of", None)
    found = lookup(node) if lookup is not None else None
    if found is not None:
        aux, renaming = found
        if renaming:
            # the state keeps its representative's valuations: read the
            # witness through the class's column renaming
            key = tuple(
                witness[renaming[c]] for c in sorted(renaming)
            )
        anchors = aux.anchors_of(key)
        if isinstance(node, Prev):
            return _describe_prev(anchors is not None)
        return _describe_anchors(anchors, now, node.interval)  # type: ignore[attr-defined]

    plans = getattr(checker, "_plans", None)
    if plans is not None:
        plan = plans.get(node)
        if plan is None:
            return "no auxiliary state"
        state = checker.engine.state
        if isinstance(node, Prev):
            rows = state.relation(plan.prev_operand_table).rows
            held = key in rows if columns else bool(rows)
            return _describe_prev(held)
        rows = state.relation(plan.aux_table).rows
        k = len(plan.variables)
        times = sorted(r[k] for r in rows if r[:k] == key)
        return _describe_anchors(times, now, node.interval)  # type: ignore[attr-defined]

    history = getattr(checker, "history", None)
    if history is not None:
        from repro.core.semantics import HistoryEvaluator

        evaluator = getattr(checker, "_evaluator", None)
        if evaluator is None:
            evaluator = HistoryEvaluator(history)
        if isinstance(node, Prev):
            table = evaluator.table_at(
                node.operand, history.length - 1
            )
            return "history scan: " + _describe_prev(
                _witness_in(table, witness, node.operand)
            )
        assert isinstance(node, (Once, Since))
        anchor = node.right if isinstance(node, Since) else node.operand
        times = []
        for index, snap in enumerate(history):
            table = evaluator.table_at(anchor, index)
            if _witness_in(table, witness, anchor):
                times.append(snap.time)
        return "history scan: " + _describe_anchors(
            times, now, node.interval
        )

    return "no auxiliary state"


def witness_evidence(
    checker, violation: Violation, max_witnesses: int = 3
) -> List[Dict]:
    """Structured per-witness anchor evidence for a violation.

    The machine-readable core of :func:`diagnose` — one entry per
    examined witness, mapping each temporal subformula's label to its
    evidence string.  The flight recorder embeds exactly this, so its
    snapshots join against ``diagnose()`` output.
    """
    constraint = _find_constraint(checker, violation)
    entries: List[Dict] = []
    for witness in violation.witness_dicts()[:max_witnesses]:
        evidence = {
            str(node): anchor_evidence(checker, node, witness)
            for node in constraint.violation_formula.temporal_subformulas()
        }
        entries.append({"witness": witness, "evidence": evidence})
    return entries


def _find_constraint(checker, violation: Violation):
    constraint = next(
        (c for c in checker.constraints if c.name == violation.constraint),
        None,
    )
    if constraint is None:
        raise MonitorError(
            f"checker has no constraint named {violation.constraint!r}"
        )
    return constraint


def diagnose(
    checker,
    violation: Violation,
    max_witnesses: int = 3,
) -> str:
    """A multi-line report explaining a violation's witnesses.

    Args:
        checker: the engine that produced the violation (any of the
            five monitor engines), *not yet stepped further*.
        violation: one entry of the step report's ``violations``.
        max_witnesses: cap on witnesses examined.

    Returns:
        The report text.
    """
    if checker.now != violation.time:
        raise MonitorError(
            "diagnose() must run before the checker steps past the "
            f"violating state (checker at t={checker.now}, violation "
            f"at t={violation.time})"
        )
    constraint = _find_constraint(checker, violation)
    formula = constraint.violation_formula
    conjuncts = (
        list(formula.operands) if isinstance(formula, And) else [formula]
    )

    lines: List[str] = [
        f"violation of {violation.constraint!r} at t={violation.time} "
        f"(state {violation.index})",
        f"  constraint: {constraint.formula}",
    ]
    witnesses = violation.witness_dicts()[:max_witnesses]
    for witness in witnesses:
        shown = (
            ", ".join(f"{k}={v!r}" for k, v in witness.items())
            or "(closed constraint)"
        )
        lines.append(f"  witness {shown}:")
        for part in conjuncts:
            satisfied = _conjunct_verdict(checker, part, witness)
            if satisfied is None:
                verdict = "needs other bindings"
            else:
                verdict = "holds" if satisfied else "fails"
            lines.append(f"    {verdict:<6} {part}")
            inner = part.operand if isinstance(part, Not) else part
            for node in inner.temporal_subformulas():
                lines.append(
                    f"             {type(node).__name__.upper()}"
                    f"{node.interval}: "
                    + anchor_evidence(checker, node, witness)
                )
    hidden = violation.witness_count - len(witnesses)
    if hidden > 0:
        lines.append(f"  ... and {hidden} more witness(es)")
    return "\n".join(lines)
