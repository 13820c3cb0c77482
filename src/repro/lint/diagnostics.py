"""Diagnostic values produced by the constraint linter.

A :class:`Diagnostic` is one finding: a stable rule code (``RTC001``,
``RTC002``, ...), a :class:`Severity`, a message, the constraint it
concerns, an optional formula-path location, and an optional fix hint.
A :class:`LintReport` is an ordered collection of diagnostics with the
aggregate queries tools need (max severity, exit code, text and JSON
rendering).

Severities follow the usual linter convention: *error* means the
constraint cannot be monitored correctly (strict registration rejects
it), *warning* means it is almost certainly not what the author meant,
*info* is advisory.
"""

from __future__ import annotations

import json
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.paths import FormulaPath

#: Version tag embedded in JSON output so consumers can detect format
#: changes.
JSON_SCHEMA_VERSION = "repro-lint/1"


class Severity(IntEnum):
    """Severity of a diagnostic; comparable (ERROR > WARNING > INFO)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        """Parse ``"error"``/``"warning"``/``"info"`` (case-insensitive)."""
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.name.lower() for s in cls]}"
            ) from None


class Record:
    """An immutable value: fields in ``__slots__``, equal by value.

    What ``@dataclass(frozen=True)`` provides, written out.  Importing
    ``dataclasses`` brings ``inspect``, ``ast``, ``dis`` and
    ``tokenize`` with it — several milliseconds that every strict-mode
    start-up paid for the linter's three small value classes.  A
    subclass lists its fields in ``__slots__`` and takes them, in that
    order, in ``__init__`` (handing them to :meth:`_init`).
    """

    __slots__ = ()
    #: fields that take no part in ``==`` and ``hash``
    _uncompared: Tuple[str, ...] = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(
            getattr(self, name) for name in self.__slots__
            if name not in self._uncompared
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record) or (
            other.__class__ is not self.__class__
        ):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(
            getattr(self, name) for name in self.__slots__
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"


class Diagnostic(Record):
    """One linter finding.

    Attributes:
        code: stable rule code, e.g. ``"RTC004"``.
        severity: the :class:`Severity` of this finding.
        message: human-readable explanation.
        constraint: name of the constraint concerned, or ``None`` for
            program-level findings (rule interference, config checks).
        location: rendered formula-path breadcrumb such as
            ``"AND[1] > NOT"``, or ``None`` when no subformula is to
            blame.
        path: the structural :class:`~repro.core.paths.FormulaPath`
            behind ``location`` (not serialised; ``None`` when absent).
        hint: optional suggestion for fixing the finding.
    """

    __slots__ = (
        "code", "severity", "message", "constraint", "location", "path",
        "hint",
    )
    _uncompared = ("path",)

    def __init__(
        self,
        code: str,
        severity: Severity,
        message: str,
        constraint: Optional[str] = None,
        location: Optional[str] = None,
        path: Optional[FormulaPath] = None,
        hint: Optional[str] = None,
    ):
        self._init(
            code, severity, message, constraint, location, path, hint
        )

    def format(self) -> str:
        """One-line text rendering: ``code severity [constraint] message``."""
        where = f" [{self.constraint}]" if self.constraint else ""
        at = f" (at {self.location})" if self.location else ""
        tail = f"\n      hint: {self.hint}" if self.hint else ""
        return f"{self.code} {self.severity}{where}: {self.message}{at}{tail}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (stable key order, no ``path`` object)."""
        out: Dict[str, object] = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.constraint is not None:
            out["constraint"] = self.constraint
        if self.location is not None:
            out["location"] = self.location
        if self.hint is not None:
            out["hint"] = self.hint
        return out


class LintReport:
    """An ordered collection of diagnostics plus aggregate views.

    Diagnostics are kept in deterministic order: by constraint name
    (program-level findings last), then code, then message.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic] = ()):
        self.diagnostics: List[Diagnostic] = sorted(
            diagnostics,
            key=lambda d: (d.constraint is None, d.constraint or "",
                           d.code, d.message),
        )

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    def extend(self, diagnostics: Sequence[Diagnostic]) -> "LintReport":
        """A new report containing this one's diagnostics plus more."""
        return LintReport(self.diagnostics + list(diagnostics))

    @property
    def errors(self) -> List[Diagnostic]:
        """The error-severity diagnostics."""
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """The warning-severity diagnostics."""
        return [d for d in self.diagnostics
                if d.severity == Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        """The info-severity diagnostics."""
        return [d for d in self.diagnostics if d.severity == Severity.INFO]

    @property
    def max_severity(self) -> Optional[Severity]:
        """The highest severity present, or ``None`` if the report is clean."""
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    @property
    def exit_code(self) -> int:
        """Process exit code convention: 2 on errors, 1 on warnings, else 0."""
        worst = self.max_severity
        if worst is None or worst == Severity.INFO:
            return 0
        return 2 if worst == Severity.ERROR else 1

    def codes(self) -> List[str]:
        """The distinct rule codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def for_constraint(self, name: str) -> List[Diagnostic]:
        """The diagnostics attached to constraint ``name``."""
        return [d for d in self.diagnostics if d.constraint == name]

    def render_text(self) -> str:
        """Multi-line text rendering ending in a one-line summary."""
        lines = [d.format() for d in self.diagnostics]
        summary = (
            f"{len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s), {len(self.infos)} info(s)"
        )
        if not self.diagnostics:
            return "clean: no diagnostics"
        return "\n".join(lines + [summary])

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict with a version tag and severity counts."""
        return {
            "version": JSON_SCHEMA_VERSION,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialise :meth:`to_dict` as JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self) -> str:
        return (
            f"LintReport({len(self.errors)}E/{len(self.warnings)}W/"
            f"{len(self.infos)}I)"
        )
