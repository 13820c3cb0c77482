"""Unit tests for the planner-backed lint rules (RTC013-RTC016) and
the RTC009 near-duplicate advisory."""

import pytest

from repro.core.parser import parse
from repro.db.schema import DatabaseSchema
from repro.lint import (
    Linter,
    Severity,
    check_shardability,
    check_sharing,
    check_state_budget,
    check_subsumption,
)
from repro.lint.registry import LintConfig
from repro.lint.rules import check_duplicates

SCHEMA = DatabaseSchema.from_dict({
    "req": [("user", "str"), ("res", "str")],
    "grant": [("user", "str"), ("res", "str")],
    "auth": [("user", "str")],
    "priv": [("res", "str")],
})


def parsed(*specs):
    return [(name, parse(text)) for name, text in specs]


AUDIT_A = ("audit-a", "req(u, r) -> ONCE[0,9] auth(u)")
AUDIT_B = ("audit-b", "grant(u2, r2) -> ONCE[0,9] auth(u2)")
BROAD = ("broad", "req(u, r) AND priv(r) -> ONCE[0,9] auth(u)")
EVER = ("ever", "req(u, r) -> ONCE auth(u)")
PINHOLE = ("pinhole", "req('root', r) -> ONCE[0,9] auth('root')")

DEFAULT = LintConfig()


class TestSharedSubformulaRule:
    def test_rename_variants_fire_once_per_class(self):
        (diag,) = check_sharing(parsed(AUDIT_A, AUDIT_B), DEFAULT)
        assert diag.code == "RTC013"
        assert diag.severity is Severity.INFO
        assert diag.constraint is None  # program-level finding
        assert "audit-a, audit-b" in diag.message
        assert "share one auxiliary state" in diag.message
        assert "repro plan" in diag.hint

    def test_structural_duplicates_do_not_fire(self):
        quiet = parsed(
            AUDIT_A, ("twin", "grant(u, r) -> ONCE[0,9] auth(u)"),
        )
        assert check_sharing(quiet, DEFAULT) == []

    def test_unrelated_constraints_do_not_fire(self):
        quiet = parsed(AUDIT_A, ("other", "grant(u, r) -> priv(r)"))
        assert check_sharing(quiet, DEFAULT) == []

    def test_disabled_rule_is_silent(self):
        config = LintConfig.build(disable=["RTC013"])
        assert check_sharing(parsed(AUDIT_A, AUDIT_B), config) == []


class TestSubsumptionRule:
    def test_subsumed_constraint_is_flagged(self):
        (diag,) = check_subsumption(parsed(AUDIT_A, BROAD), DEFAULT)
        assert diag.code == "RTC014"
        assert diag.severity is Severity.WARNING
        assert diag.constraint == "broad"
        assert "'audit-a'" in diag.message

    def test_exact_duplicates_are_left_to_rtc009(self):
        # mutual θ-subsumption via equal canonical kernels is excluded
        twins = parsed(
            AUDIT_A, ("twin", "req(a, b) -> ONCE[0,9] auth(a)"),
        )
        assert check_subsumption(twins, DEFAULT) == []


class TestStateBudgetRule:
    def test_inactive_without_a_budget(self):
        assert check_state_budget(parsed(EVER), DEFAULT) == []

    def test_unbounded_window_can_never_fit(self):
        config = LintConfig.build(state_budget=10**6)
        (diag,) = check_state_budget(parsed(AUDIT_A, EVER), config)
        assert diag.code == "RTC015"
        assert diag.severity is Severity.ERROR
        assert diag.constraint == "ever"
        assert "cannot be statically bounded" in diag.message

    def test_bounded_state_over_budget(self):
        config = LintConfig.build(state_budget=100)
        diags = check_state_budget(parsed(AUDIT_A), config)
        (diag,) = diags
        assert diag.constraint == "audit-a"
        assert "640" in diag.message and "100" in diag.message

    def test_bounded_state_within_budget_is_clean(self):
        config = LintConfig.build(state_budget=1000)
        assert check_state_budget(parsed(AUDIT_A), config) == []

    def test_non_positive_budget_is_rejected(self):
        with pytest.raises(ValueError):
            LintConfig.build(state_budget=0)


class TestShardabilityRule:
    def test_inactive_without_a_key(self):
        assert check_shardability(parsed(PINHOLE), SCHEMA, DEFAULT) == []

    def test_constant_key_blocks_admission(self):
        config = LintConfig.build(shard_key="user")
        (diag,) = check_shardability(parsed(AUDIT_A, PINHOLE), SCHEMA,
                                     config)
        assert diag.code == "RTC016"
        assert diag.severity is Severity.WARNING
        assert diag.constraint == "pinhole"
        assert "'user'" in diag.message

    def test_unknown_key_is_one_program_diagnostic(self):
        config = LintConfig.build(shard_key="nonexistent")
        (diag,) = check_shardability(parsed(AUDIT_A), SCHEMA, config)
        assert diag.constraint is None
        assert "no shard plan" in diag.message

    def test_inactive_without_a_schema(self):
        config = LintConfig.build(shard_key="user")
        assert check_shardability(parsed(PINHOLE), None, config) == []


class TestLinterIntegration:
    def test_full_corpus_through_the_linter(self):
        config = LintConfig.build(state_budget=1000, shard_key="user")
        report = Linter(SCHEMA, config).lint_constraints(
            parsed(AUDIT_A, AUDIT_B, BROAD, EVER, PINHOLE)
        )
        codes = {d.code for d in report}
        assert {"RTC013", "RTC014", "RTC015", "RTC016"} <= codes
        assert report.exit_code == 2

    def test_clean_set_stays_clean(self):
        report = Linter(SCHEMA).lint_constraints(parsed(AUDIT_A))
        assert not any(
            d.code in {"RTC013", "RTC014", "RTC015", "RTC016"}
            for d in report
        )


class TestNearDuplicates:
    def test_shared_temporal_conjunct_is_an_advisory(self):
        diags = check_duplicates(parsed(AUDIT_A, BROAD), DEFAULT)
        (diag,) = diags
        assert diag.code == "RTC009"
        assert diag.severity is Severity.INFO
        assert diag.constraint == "broad"
        assert "near-duplicate of 'audit-a'" in diag.message
        assert "diverge at" in diag.message
        assert "repro plan" in diag.hint

    def test_exact_duplicates_stay_warnings(self):
        diags = check_duplicates(parsed(
            AUDIT_A, ("twin", "req(a, b) -> ONCE[0,9] auth(a)"),
        ), DEFAULT)
        (diag,) = diags
        assert diag.severity is Severity.WARNING
        assert "duplicates 'audit-a'" in diag.message

    def test_non_temporal_overlap_does_not_fire(self):
        quiet = check_duplicates(parsed(
            ("a", "req(u, r) -> auth(u)"),
            ("b", "req(u, r) AND priv(r) -> auth(u)"),
        ), DEFAULT)
        assert quiet == []

    def test_each_near_duplicate_reported_once(self):
        diags = check_duplicates(
            parsed(AUDIT_A, BROAD,
                   ("wide", "grant(u, r) AND priv(r) -> "
                            "ONCE[0,9] auth(u)")),
            DEFAULT,
        )
        assert [d.constraint for d in diags] == ["broad", "wide"]


class TestBinderCanonicalization:
    """RTC009 must see through binder renaming (the canonical_form
    regression: Exists/Aggregate binders were not renumbered)."""

    def test_exists_binder_renaming_is_a_duplicate(self):
        diags = check_duplicates(parsed(
            ("a", "req(u, r) -> EXISTS v. auth(v)"),
            ("b", "req(u2, r2) -> EXISTS w. auth(w)"),
        ), DEFAULT)
        (diag,) = diags
        assert diag.severity is Severity.WARNING
        assert "duplicates 'a'" in diag.message

    def test_aggregate_binder_renaming_is_a_duplicate(self):
        diags = check_duplicates(parsed(
            ("a", "priv(r) -> EXISTS n. n = CNT(u; req(u, r)) "
                  "AND n <= 3"),
            ("b", "priv(s) -> EXISTS m. m = CNT(w; req(w, s)) "
                  "AND m <= 3"),
        ), DEFAULT)
        (diag,) = diags
        assert diag.severity is Severity.WARNING
        assert "duplicates 'a'" in diag.message

    def test_different_aggregate_thresholds_are_distinct(self):
        diags = check_duplicates(parsed(
            ("a", "priv(r) -> EXISTS n. n = CNT(u; req(u, r)) "
                  "AND n <= 3"),
            ("b", "priv(s) -> EXISTS m. m = CNT(w; req(w, s)) "
                  "AND m <= 4"),
        ), DEFAULT)
        assert all("near-duplicate" in d.message or
                   d.severity is not Severity.WARNING
                   for d in diags)
        assert not any("duplicates 'a'" in d.message for d in diags)
