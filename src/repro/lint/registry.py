"""The lint rule registry and linter configuration.

Each analysis rule has a stable code (``RTC001`` ...), a short
kebab-case name, a default :class:`~repro.lint.diagnostics.Severity`,
and a one-line description — the table rendered in ``docs/linting.md``.
:class:`LintConfig` carries the per-run knobs: rules can be disabled by
code or name, severities overridden, and the analyses parameterised
(clock granularity, bounded-history strictness).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional

from repro.lint.diagnostics import Record, Severity


class LintRule(Record):
    """Metadata for one analysis rule.

    Attributes:
        code: stable code, e.g. ``"RTC003"``.
        name: short kebab-case name, e.g. ``"type-conflict"``.
        default_severity: severity used unless overridden in config.
        description: one-line summary used in docs and ``--list-rules``.
    """

    __slots__ = ("code", "name", "default_severity", "description")

    def __init__(self, code: str, name: str, default_severity: Severity,
                 description: str):
        self._init(code, name, default_severity, description)


#: Every registered rule, in code order.
RULES: List[LintRule] = [
    LintRule("RTC001", "unknown-relation", Severity.ERROR,
             "An atom references a relation the schema does not declare."),
    LintRule("RTC002", "arity-mismatch", Severity.ERROR,
             "An atom's argument count differs from the relation's "
             "declared arity."),
    LintRule("RTC003", "type-conflict", Severity.ERROR,
             "A constant or comparison conflicts with the attribute "
             "domains the schema declares."),
    LintRule("RTC004", "unsafe-formula", Severity.ERROR,
             "The constraint falls outside the safe-range "
             "(monitorable) fragment."),
    LintRule("RTC005", "ill-formed-interval", Severity.ERROR,
             "A metric interval is ill-formed (empty [a,b] with a > b, "
             "or negative bounds)."),
    LintRule("RTC006", "suspicious-interval", Severity.WARNING,
             "A metric interval is suspicious: zero-width window, or "
             "unreachable at the configured clock granularity."),
    LintRule("RTC007", "unbounded-history", Severity.INFO,
             "A past operator has an unbounded window, so auxiliary "
             "state cannot be bounded (error when bounded encoding is "
             "required)."),
    LintRule("RTC008", "vacuous-constraint", Severity.WARNING,
             "The constraint (or a subformula) is vacuous: it can "
             "never be violated, is violated everywhere, or contains "
             "contradictory comparisons."),
    LintRule("RTC009", "duplicate-constraint", Severity.WARNING,
             "Two constraints are duplicates up to variable renaming."),
    LintRule("RTC010", "rule-interference", Severity.WARNING,
             "Active rules can retrigger each other cyclically, or "
             "write relations nothing reads."),
    LintRule("RTC011", "config-mismatch", Severity.WARNING,
             "The monitor configuration is inconsistent (unknown "
             "urgent constraint, checkpoint cadence without a "
             "journal)."),
    LintRule("RTC012", "parse-error", Severity.ERROR,
             "The constraint text could not be parsed."),
    LintRule("RTC013", "shared-subformula", Severity.INFO,
             "Several constraints have rename-equivalent temporal "
             "subformulas; the incremental checker serves them from "
             "one auxiliary state."),
    LintRule("RTC014", "subsumed-constraint", Severity.WARNING,
             "A constraint is implied by another (theta-subsumption of "
             "the violation kernels): every violation it reports is "
             "already reported by the more general constraint."),
    LintRule("RTC015", "state-over-budget", Severity.ERROR,
             "The statically predicted auxiliary state exceeds the "
             "configured tuple budget, or cannot be bounded at all."),
    LintRule("RTC016", "shard-admission", Severity.WARNING,
             "The constraint set cannot be admitted under the "
             "configured shard key, so sharded deployment is "
             "obstructed."),
]

#: Rules indexed by code and by name.
RULES_BY_CODE: Dict[str, LintRule] = {r.code: r for r in RULES}
RULES_BY_NAME: Dict[str, LintRule] = {r.name: r for r in RULES}


def resolve_rule(key: str) -> LintRule:
    """Look a rule up by code (``RTC004``) or name (``unsafe-formula``).

    Raises:
        ValueError: if no rule matches ``key``.
    """
    rule = RULES_BY_CODE.get(key.upper()) or RULES_BY_NAME.get(key.lower())
    if rule is None:
        raise ValueError(
            f"unknown lint rule {key!r}; known rules: "
            f"{', '.join(r.code for r in RULES)}"
        )
    return rule


class LintConfig(Record):
    """Per-run linter configuration.

    Attributes:
        disabled: rule codes to skip entirely.
        severity_overrides: code -> severity replacing the default.
        clock_granularity: smallest clock increment of the deployment;
            intervals that no multiple of it can land in are flagged
            (RTC006).  1 disables the granularity check.
        require_bounded: when true, unbounded past operators are
            errors (RTC007) instead of advisories — set this when the
            target engine needs the bounded-history encoding.
        state_budget: maximum predicted auxiliary-state tuples the
            deployment can afford; when set, the planner's static
            bound is checked against it (RTC015).  ``None`` disables
            the check.
        shard_key: attribute name the deployment shards on; when set,
            shard-admission obstructions are reported (RTC016).
            ``None`` disables the check.
    """

    __slots__ = (
        "disabled", "severity_overrides", "clock_granularity",
        "require_bounded", "state_budget", "shard_key",
    )

    def __init__(
        self,
        disabled: FrozenSet[str] = frozenset(),
        severity_overrides: Optional[Mapping[str, Severity]] = None,
        clock_granularity: int = 1,
        require_bounded: bool = False,
        state_budget: Optional[int] = None,
        shard_key: Optional[str] = None,
    ):
        self._init(
            disabled,
            {} if severity_overrides is None else severity_overrides,
            clock_granularity, require_bounded, state_budget, shard_key,
        )

    @classmethod
    def build(
        cls,
        disable: Iterable[str] = (),
        severity_overrides: Optional[Mapping[str, str]] = None,
        clock_granularity: int = 1,
        require_bounded: bool = False,
        state_budget: Optional[int] = None,
        shard_key: Optional[str] = None,
    ) -> "LintConfig":
        """Build a config from user-facing strings.

        ``disable`` entries and override keys may be codes or names;
        override values are severity words (``"error"`` etc.).
        """
        overrides: Dict[str, Severity] = {}
        for key, value in (severity_overrides or {}).items():
            overrides[resolve_rule(key).code] = (
                value if isinstance(value, Severity)
                else Severity.parse(value)
            )
        if clock_granularity < 1:
            raise ValueError(
                f"clock granularity must be >= 1, got {clock_granularity}"
            )
        if state_budget is not None and state_budget < 1:
            raise ValueError(
                f"state budget must be >= 1, got {state_budget}"
            )
        return cls(
            disabled=frozenset(resolve_rule(k).code for k in disable),
            severity_overrides=overrides,
            clock_granularity=clock_granularity,
            require_bounded=require_bounded,
            state_budget=state_budget,
            shard_key=shard_key,
        )

    def enabled(self, code: str) -> bool:
        """Whether the rule with ``code`` should run."""
        return code not in self.disabled

    def severity(self, code: str) -> Severity:
        """The effective severity for ``code`` under this config."""
        if code in self.severity_overrides:
            return self.severity_overrides[code]
        if code == "RTC007" and self.require_bounded:
            return Severity.ERROR
        return RULES_BY_CODE[code].default_severity


#: The all-defaults configuration.
DEFAULT_CONFIG = LintConfig()
