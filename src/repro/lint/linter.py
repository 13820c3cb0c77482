"""The linter facade: run every analysis over constraint sets.

:class:`Linter` binds a schema and a :class:`~repro.lint.registry.LintConfig`
and exposes one entry point per input shape: raw constraint text
(lenient, per-constraint error recovery), parsed ``(name, formula)``
pairs, active-rule programs, and monitor configurations.  The CLI
``repro lint`` subcommand, ``repro check --no-lint`` opt-out, and
``Monitor(strict=True)`` registration all share these code paths.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.formulas import Formula, FormulaError
from repro.core.parser import Parser, _try_label, tokenize
from repro.core.intervals import IntervalError
from repro.db.schema import DatabaseSchema
from repro.errors import ParseError
from repro.lint import rules as _rules
from repro.lint import sharing as _sharing
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.registry import DEFAULT_CONFIG, LintConfig

if TYPE_CHECKING:
    from repro.active.rules import Rule

_LABEL_RE = re.compile(r"^\s*([A-Za-z_][\w-]*)\s*:")


def _fallback_label(chunk: str) -> Optional[str]:
    """The chunk's label, if any, for naming unparseable constraints.

    Mirrors the parser's labelling but tolerates broken formula text:
    scans past blank and comment lines to the first contentful line
    and matches ``name:`` there.
    """
    for line in chunk.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "--")):
            continue
        match = _LABEL_RE.match(stripped)
        return match.group(1) if match else None
    return None


def split_constraint_chunks(text: str) -> List[Tuple[str, int]]:
    """Split constraint text on top-level ``;`` separators.

    Tracks single-quoted strings (with backslash escapes), ``#`` /
    ``--`` line comments, and parenthesis depth — aggregates use ``;``
    *inside* parentheses (``SUM(m, k; body)``), which must not split.
    Returns ``(chunk, start_line)`` pairs, 1-based start lines.
    """
    chunks: List[Tuple[str, int]] = []
    buffer: List[str] = []
    line = 1
    start = 1
    depth = 0
    in_string = False
    in_comment = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            in_comment = False
            buffer.append(ch)
            line += 1
        elif in_comment:
            buffer.append(ch)
        elif in_string:
            buffer.append(ch)
            if ch == "\\" and i + 1 < len(text):
                buffer.append(text[i + 1])
                i += 1
            elif ch == "'":
                in_string = False
        elif ch == "'":
            in_string = True
            buffer.append(ch)
        elif ch == "#" or (ch == "-" and text[i + 1:i + 2] == "-"):
            in_comment = True
            buffer.append(ch)
        elif ch == "(":
            depth += 1
            buffer.append(ch)
        elif ch == ")":
            depth = max(0, depth - 1)
            buffer.append(ch)
        elif ch == ";" and depth == 0:
            chunks.append(("".join(buffer), start))
            buffer = []
            start = line
        else:
            buffer.append(ch)
        i += 1
    chunks.append(("".join(buffer), start))
    return chunks


def _chunk_is_blank(chunk: str) -> bool:
    """Whether a chunk holds no tokens (whitespace/comments only)."""
    try:
        return len(tokenize(chunk)) == 1  # just EOF
    except ParseError:
        return False


class Linter:
    """Run the registered analyses over constraints, rules, and config.

    Attributes:
        schema: the :class:`~repro.db.schema.DatabaseSchema` to check
            atoms against, or ``None`` to skip schema-dependent rules.
        config: the :class:`~repro.lint.registry.LintConfig` in effect.
    """

    def __init__(
        self,
        schema: Optional[DatabaseSchema] = None,
        config: Optional[LintConfig] = None,
    ):
        self.schema = schema
        self.config = config if config is not None else DEFAULT_CONFIG

    def lint_formula(self, name: str, formula: Formula) -> List[Diagnostic]:
        """All single-constraint diagnostics for one named formula."""
        out: List[Diagnostic] = []
        if self.schema is not None:
            out.extend(_rules.check_schema(name, formula, self.schema,
                                           self.config))
        out.extend(_rules.check_types(name, formula, self.schema,
                                      self.config))
        out.extend(_rules.check_safety(name, formula, self.config))
        out.extend(_rules.check_intervals(name, formula, self.config))
        out.extend(_rules.check_bounded_history(name, formula, self.config))
        out.extend(_rules.check_vacuity(name, formula, self.config))
        return _dedupe(out)

    def lint_constraints(
        self, constraints: Sequence[Tuple[str, Formula]]
    ) -> LintReport:
        """Lint parsed ``(name, formula)`` pairs, including duplicates."""
        out: List[Diagnostic] = []
        for name, formula in constraints:
            out.extend(self.lint_formula(name, formula))
        out.extend(_rules.check_duplicates(constraints, self.config))
        out.extend(_sharing.check_plan(constraints, self.schema,
                                       self.config))
        return LintReport(_dedupe(out))

    def lint_text(
        self, text: str
    ) -> Tuple[LintReport, List[Tuple[str, Formula]]]:
        """Lint raw constraint text with per-constraint error recovery.

        Unlike :func:`repro.core.parser.parse_constraints`, a parse
        failure in one constraint becomes a diagnostic (RTC012, or
        RTC005 for ill-formed intervals) instead of aborting the file;
        the rest of the set is still parsed and analysed.  Constraint
        naming matches ``parse_constraints`` (``c1``, ``c2``, ... for
        unlabelled entries).

        Returns:
            ``(report, parsed)`` — the parsed pairs are the subset
            that survived parsing, suitable for monitoring.
        """
        diagnostics: List[Diagnostic] = []
        parsed: List[Tuple[str, Formula]] = []
        index = 0
        for chunk, start_line in split_constraint_chunks(text):
            if _chunk_is_blank(chunk):
                continue
            index += 1
            fallback = _fallback_label(chunk) or f"c{index}"
            try:
                parser = Parser(tokenize(chunk))
                name = _try_label(parser) or f"c{index}"
                formula = parser.parse_formula()
                if not parser.at_end():
                    raise parser._error("unexpected trailing input")
            except IntervalError as exc:
                diagnostics.append(_parse_diag(
                    self.config, "RTC005", fallback, start_line, str(exc)))
            except ParseError as exc:
                diagnostics.append(_parse_diag(
                    self.config, "RTC012", fallback, start_line, str(exc)))
            except FormulaError as exc:
                diagnostics.append(_parse_diag(
                    self.config, "RTC012", fallback, start_line, str(exc)))
            else:
                parsed.append((name, formula))
        report = self.lint_constraints(parsed).extend(
            [d for d in diagnostics if d is not None])
        return report, parsed

    def lint_rules(
        self,
        rules: Sequence[Rule],
        constraints: Sequence[Tuple[str, Formula]] = (),
    ) -> LintReport:
        """Lint an active-rule program for interference (RTC010)."""
        return LintReport(
            _rules.check_interference(rules, constraints, self.config))

    def lint_monitor_config(
        self,
        constraint_names: Sequence[str],
        urgent: Sequence[str] = (),
        journal: bool = False,
        checkpoint_every: Optional[int] = None,
    ) -> LintReport:
        """Lint a monitor configuration (RTC011)."""
        return LintReport(_rules.check_monitor_config(
            list(constraint_names), self.config, urgent=urgent,
            journal=journal, checkpoint_every=checkpoint_every))


def _parse_diag(
    config: LintConfig, code: str, name: str, start_line: int, message: str
) -> Optional[Diagnostic]:
    prefix = f"starting at line {start_line}: " if start_line > 1 else ""
    return _rules._diag(config, code, prefix + message, name)


def _dedupe(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    seen = set()
    out: List[Diagnostic] = []
    for diagnostic in diagnostics:
        key = (diagnostic.code, diagnostic.constraint, diagnostic.message,
               diagnostic.location)
        if key not in seen:
            seen.add(key)
            out.append(diagnostic)
    return out


def reject_lint_errors(
    schema: Optional[DatabaseSchema],
    constraints: Sequence[Tuple[str, Formula]],
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint ``constraints`` and raise on error-severity findings.

    The shared strict-registration path behind
    ``Monitor(strict=True)`` and ``IncrementalChecker(strict=True)``.

    Returns:
        The full report (so callers can surface warnings) when no
        diagnostic reaches error severity.

    Raises:
        LintError: carrying the offending diagnostics in its
            ``diagnostics`` attribute.
    """
    from repro.errors import LintError

    report = Linter(schema, config).lint_constraints(list(constraints))
    errors = report.errors
    if errors:
        raise LintError(
            f"{len(errors)} lint error(s) in constraint set "
            f"(first: {errors[0].format()})",
            diagnostics=report.diagnostics,
        )
    return report


def lint_paths(
    constraints_path: str,
    schema: Optional[DatabaseSchema] = None,
    config: Optional[LintConfig] = None,
) -> Tuple[LintReport, List[Tuple[str, Formula]]]:
    """Lint a constraint file on disk; convenience for CLI and CI."""
    with open(constraints_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return Linter(schema, config).lint_text(text)
