"""Core: the paper's contribution.

Metric past temporal logic constraints, their reference semantics over
database histories, and the incremental bounded-history checker —
plus the naive baseline, safety analysis, space-bound analysis, and
the :class:`~repro.core.monitor.Monitor` façade.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

#: Engine names :class:`~repro.core.monitor.Monitor` accepts.  Kept
#: here, not beside the façade, so that the command line can offer
#: them without importing an engine.
ENGINES = ("incremental", "naive", "naive-memo", "active", "adom")

if TYPE_CHECKING:
    from repro.core import builder
    from repro.core.adom import (
        ActiveDomainChecker,
        AdomHistoryEvaluator,
        evaluate_adom,
    )
    from repro.core.bounds import (
        FormulaProfile,
        clock_horizon,
        future_horizon,
        has_unbounded_operator,
        max_anchor_window,
        predicted_tuple_bound,
        profile,
    )
    from repro.core.checker import Constraint, IncrementalChecker
    from repro.core.diagnose import diagnose
    from repro.core.engine import Engine
    from repro.core.explain import describe_encoding, explain
    from repro.core.future import DelayedChecker
    from repro.core.formulas import (
        Aggregate,
        Always,
        And,
        Atom,
        Comparison,
        Const,
        Eventually,
        Exists,
        Forall,
        Formula,
        Hist,
        Iff,
        Implies,
        Next,
        Not,
        Once,
        Or,
        Prev,
        Since,
        Term,
        Until,
        Var,
    )
    from repro.core.intervals import Interval
    from repro.core.monitor import Monitor, MonitorFacade
    from repro.core.naive import NaiveChecker
    from repro.core.normalize import normalize, rename_apart
    from repro.core.optimize import optimize
    from repro.core.parser import parse, parse_constraints
    from repro.core.persist import load_checker, restore_checker, save_checker
    from repro.core.safety import check_safe, is_safe
    from repro.core.semantics import HistoryEvaluator
    from repro.core.violations import RunReport, StepReport, Violation

__all__ = [
    "ActiveDomainChecker",
    "AdomHistoryEvaluator",
    "Aggregate",
    "Always",
    "And",
    "Atom",
    "Comparison",
    "Const",
    "Constraint",
    "DelayedChecker",
    "Engine",
    "Eventually",
    "Exists",
    "Forall",
    "Formula",
    "FormulaProfile",
    "Hist",
    "HistoryEvaluator",
    "Iff",
    "Implies",
    "IncrementalChecker",
    "Interval",
    "Monitor",
    "MonitorFacade",
    "NaiveChecker",
    "Next",
    "Not",
    "Once",
    "Or",
    "Prev",
    "RunReport",
    "Since",
    "StepReport",
    "Term",
    "Until",
    "Var",
    "Violation",
    "builder",
    "check_safe",
    "clock_horizon",
    "describe_encoding",
    "diagnose",
    "evaluate_adom",
    "explain",
    "future_horizon",
    "has_unbounded_operator",
    "is_safe",
    "load_checker",
    "max_anchor_window",
    "normalize",
    "optimize",
    "parse",
    "parse_constraints",
    "predicted_tuple_bound",
    "profile",
    "rename_apart",
    "restore_checker",
    "save_checker",
]

lazy_surface(__name__, {
    "repro.core.adom": (
        "ActiveDomainChecker", "AdomHistoryEvaluator", "evaluate_adom",
    ),
    "repro.core.bounds": (
        "FormulaProfile", "clock_horizon", "future_horizon",
        "has_unbounded_operator", "max_anchor_window", "predicted_tuple_bound",
        "profile",
    ),
    "repro.core.checker": ("Constraint", "IncrementalChecker"),
    "repro.core.diagnose": ("diagnose",),
    "repro.core.engine": ("Engine",),
    "repro.core.explain": ("describe_encoding", "explain"),
    "repro.core.future": ("DelayedChecker",),
    "repro.core.formulas": (
        "Aggregate", "Always", "And", "Atom", "Comparison", "Const",
        "Eventually", "Exists", "Forall", "Formula", "Hist", "Iff", "Implies",
        "Next", "Not", "Once", "Or", "Prev", "Since", "Term", "Until", "Var",
    ),
    "repro.core.intervals": ("Interval",),
    "repro.core.monitor": ("Monitor", "MonitorFacade"),
    "repro.core.naive": ("NaiveChecker",),
    "repro.core.normalize": ("normalize", "rename_apart"),
    "repro.core.optimize": ("optimize",),
    "repro.core.parser": ("parse", "parse_constraints"),
    "repro.core.persist": ("load_checker", "restore_checker", "save_checker"),
    "repro.core.safety": ("check_safe", "is_safe"),
    "repro.core.semantics": ("HistoryEvaluator",),
    "repro.core.violations": ("RunReport", "StepReport", "Violation"),
}, submodules=("builder",))
