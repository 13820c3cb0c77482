"""Static analysis (linting) for real-time integrity constraints.

The bounded-history result pays off only when every deployed
constraint is *statically known* to be safe, well-typed, and
window-bounded before the monitor sees a state.  This package turns
the analyses the checker runs piecemeal at registration time into a
first-class lint pass with stable diagnostic codes:

======= ===================== ========= =============================
Code    Name                  Severity  Checks
======= ===================== ========= =============================
RTC001  unknown-relation      error     atoms vs. schema relations
RTC002  arity-mismatch        error     atom arity vs. declaration
RTC003  type-conflict         error     constants/comparisons vs. domains
RTC004  unsafe-formula        error     safe-range analysis
RTC005  ill-formed-interval   error     empty/negative intervals
RTC006  suspicious-interval   warning   zero-width, granularity gaps
RTC007  unbounded-history     info      unbounded past windows
RTC008  vacuous-constraint    warning   constant/contradictory parts
RTC009  duplicate-constraint  warning   duplicates up to renaming
RTC010  rule-interference     warning   ECA retrigger cycles, dead writes
RTC011  config-mismatch       warning   urgent set, checkpoint cadence
RTC012  parse-error           error     unparseable constraint text
RTC013  shared-subformula     info      rename-equivalent aux state
RTC014  subsumed-constraint   warning   θ-subsumption redundancy
RTC015  state-over-budget     error     predicted state vs. budget
RTC016  shard-admission       warning   shard-key admission obstruction
======= ===================== ========= =============================

RTC013–RTC016 are cross-constraint rules backed by the planner
(:mod:`repro.analysis.plan`); RTC015 and RTC016 only run when a state
budget or shard key is configured.  ``repro plan`` renders the full
underlying ``repro-plan/1`` document.

Entry points: :class:`Linter` (the facade), ``repro lint`` on the
command line, and ``Monitor(..., strict=True)`` which rejects
constraints carrying error diagnostics at registration.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.lint.diagnostics import (
        JSON_SCHEMA_VERSION,
        Diagnostic,
        LintReport,
        Severity,
    )
    from repro.lint.linter import (
        Linter,
        lint_paths,
        reject_lint_errors,
        split_constraint_chunks,
    )
    from repro.lint.registry import (
        DEFAULT_CONFIG,
        RULES,
        LintConfig,
        LintRule,
        resolve_rule,
    )
    from repro.lint.rules import (
        canonical_form,
        check_bounded_history,
        check_duplicates,
        check_interference,
        check_intervals,
        check_monitor_config,
        check_safety,
        check_schema,
        check_types,
        check_vacuity,
    )
    from repro.lint.sharing import (
        check_shardability,
        check_sharing,
        check_state_budget,
        check_subsumption,
    )

__all__ = [
    "Severity",
    "Diagnostic",
    "LintReport",
    "JSON_SCHEMA_VERSION",
    "LintRule",
    "LintConfig",
    "RULES",
    "DEFAULT_CONFIG",
    "resolve_rule",
    "Linter",
    "lint_paths",
    "reject_lint_errors",
    "split_constraint_chunks",
    "canonical_form",
    "check_schema",
    "check_types",
    "check_safety",
    "check_intervals",
    "check_bounded_history",
    "check_vacuity",
    "check_duplicates",
    "check_interference",
    "check_monitor_config",
    "check_sharing",
    "check_subsumption",
    "check_state_budget",
    "check_shardability",
]

lazy_surface(__name__, {
    "repro.lint.diagnostics": (
        "JSON_SCHEMA_VERSION", "Diagnostic", "LintReport", "Severity",
    ),
    "repro.lint.linter": (
        "Linter", "lint_paths", "reject_lint_errors", "split_constraint_chunks",
    ),
    "repro.lint.registry": (
        "DEFAULT_CONFIG", "RULES", "LintConfig", "LintRule", "resolve_rule",
    ),
    "repro.lint.rules": (
        "canonical_form", "check_bounded_history", "check_duplicates",
        "check_interference", "check_intervals", "check_monitor_config",
        "check_safety", "check_schema", "check_types", "check_vacuity",
    ),
    "repro.lint.sharing": (
        "check_shardability", "check_sharing", "check_state_budget",
        "check_subsumption",
    ),
})
