"""Cross-constraint lint rules backed by the planner (RTC013-RTC016).

These rules run the :mod:`repro.analysis.plan` analysis over the whole
constraint set and surface its findings as diagnostics:

* **RTC013** — several constraints have temporal subformulas that
  only differ in variable names; the incremental checker serves them
  from one auxiliary state (the finding says which constraints share).
* **RTC014** — a constraint is θ-subsumed by a more general one, so
  every violation it reports is already reported.
* **RTC015** — with a configured ``state_budget``, the statically
  predicted auxiliary state of a constraint exceeds the budget or
  cannot be bounded at all.
* **RTC016** — with a configured ``shard_key``, a constraint cannot be
  admitted to a shard plan, obstructing sharded deployment.

All four are individually callable; :class:`repro.lint.Linter` runs
them through :func:`check_plan`, which builds the plan once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.plan import Plan, build_plan
from repro.core.checker import Constraint
from repro.core.formulas import Formula
from repro.db.schema import DatabaseSchema
from repro.errors import ReproError, ShardingError
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import LintConfig
from repro.lint.rules import _diag

__all__ = [
    "check_plan",
    "check_sharing",
    "check_subsumption",
    "check_state_budget",
    "check_shardability",
]


def _build(
    constraints: Sequence[Tuple[str, Formula]],
    plan: Optional[Plan],
) -> Plan:
    return plan if plan is not None else build_plan(list(constraints))


def check_sharing(
    constraints: Sequence[Tuple[str, Formula]],
    config: LintConfig,
    plan: Optional[Plan] = None,
) -> List[Diagnostic]:
    """RTC013: rename-equivalent temporal subformulas across constraints.

    Fires once per equivalence class that spans several constraints
    *and* whose members are rename-variants rather than structurally
    identical: the constraints it names read one auxiliary state
    through different column names.
    """
    if not config.enabled("RTC013"):
        return []
    plan = _build(constraints, plan)
    out: List[Diagnostic] = []
    for cls in plan.classes:
        if not (cls.shared and cls.needs_rename):
            continue
        owners = ", ".join(cls.constraints)
        out.append(_diag(
            config, "RTC013",
            f"constraints {owners} share one auxiliary state for "
            f"{cls.key} ({cls.distinct_nodes} rename-variant nodes, "
            f"predicted <= {cls.cost.tuple_bound} tuples)",
            hint="`repro plan` shows the full sharing map",
        ))
    return [d for d in out if d is not None]


def check_subsumption(
    constraints: Sequence[Tuple[str, Formula]],
    config: LintConfig,
    plan: Optional[Plan] = None,
) -> List[Diagnostic]:
    """RTC014: constraints made redundant by a more general one."""
    if not config.enabled("RTC014"):
        return []
    plan = _build(constraints, plan)
    out: List[Diagnostic] = []
    for sub in plan.subsumptions:
        out.append(_diag(
            config, "RTC014",
            f"constraint is implied by {sub.by!r}: every violation it "
            f"reports is already a violation of {sub.by!r}",
            sub.subsumed,
            hint=f"drop {sub.subsumed!r}, or tighten it if the overlap "
                 f"is unintended",
        ))
    return [d for d in out if d is not None]


def check_state_budget(
    constraints: Sequence[Tuple[str, Formula]],
    config: LintConfig,
    plan: Optional[Plan] = None,
) -> List[Diagnostic]:
    """RTC015: predicted auxiliary state versus the configured budget.

    Inactive unless ``config.state_budget`` is set.  A constraint with
    an unbounded past window can never satisfy a budget; a bounded one
    is flagged when its static tuple bound exceeds it.
    """
    budget = config.state_budget
    if budget is None or not config.enabled("RTC015"):
        return []
    plan = _build(constraints, plan)
    out: List[Diagnostic] = []
    for entry in plan.constraints:
        if entry.unbounded:
            out.append(_diag(
                config, "RTC015",
                f"auxiliary state cannot be statically bounded (an "
                f"unbounded past window) under the configured state "
                f"budget of {budget} tuple(s)",
                entry.name,
                hint="bound the window, e.g. ONCE[0,b], or raise the "
                     "budget",
            ))
        elif entry.tuple_bound > budget:
            out.append(_diag(
                config, "RTC015",
                f"predicted auxiliary state of {entry.tuple_bound} "
                f"tuple(s) exceeds the configured budget of {budget}",
                entry.name,
                hint="narrow the windows, shrink relation-size hints "
                     "if they overestimate, or raise the budget",
            ))
    return [d for d in out if d is not None]


def check_shardability(
    constraints: Sequence[Tuple[str, Formula]],
    schema: Optional[DatabaseSchema],
    config: LintConfig,
) -> List[Diagnostic]:
    """RTC016: shard-admission obstructions under the configured key.

    Inactive unless ``config.shard_key`` is set; requires a schema.
    Reuses the shard planner's own admission diagnostics
    (:meth:`repro.shard.partition.ShardPlan.admit`).
    """
    key = config.shard_key
    if key is None or schema is None or not config.enabled("RTC016"):
        return []
    from repro.shard.partition import ShardPlan

    try:
        shard_plan = ShardPlan(schema, key, shards=2)
    except ShardingError as exc:
        diagnostic = _diag(
            config, "RTC016",
            f"no shard plan is possible for key {key!r}: {exc}",
        )
        return [diagnostic] if diagnostic is not None else []
    out: List[Diagnostic] = []
    for name, formula in constraints:
        try:
            constraint = Constraint(name, formula)
        except ReproError:
            continue  # unsafe/ill-formed: the core rules report it
        try:
            shard_plan.admit(constraint)
        except ShardingError as exc:
            out.append(_diag(
                config, "RTC016",
                f"cannot be admitted under shard key {key!r}: {exc}",
                name,
                hint="make the key a shared free variable of every "
                     "keyed atom, or monitor this constraint "
                     "unsharded",
            ))
    return [d for d in out if d is not None]


def check_plan(
    constraints: Sequence[Tuple[str, Formula]],
    schema: Optional[DatabaseSchema],
    config: LintConfig,
) -> List[Diagnostic]:
    """Run all planner-backed rules, building the plan once."""
    if not constraints:
        return []
    plan = build_plan(list(constraints))
    out: List[Diagnostic] = []
    out.extend(check_sharing(constraints, config, plan))
    out.extend(check_subsumption(constraints, config, plan))
    out.extend(check_state_budget(constraints, config, plan))
    out.extend(check_shardability(constraints, schema, config))
    return out
