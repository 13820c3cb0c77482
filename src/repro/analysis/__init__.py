"""Experiment instrumentation, report formatting, and static planning."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.analysis.ascii_plot import bar_chart, series_chart
    from repro.analysis.metrics import RunMetrics, measure_run, space_of
    from repro.analysis.plan import (
        PLAN_SCHEMA_VERSION,
        ClassMember,
        ConstraintPlan,
        Plan,
        SharingClass,
        Subsumption,
        build_classes,
        build_plan,
        canonical_key,
        canonicalize_subformula,
        find_subsumptions,
        theta_subsumes,
    )
    from repro.analysis.report import format_table, print_table, ratio
    from repro.analysis.shapes import (
        crossover_index,
        growth_order,
        is_flat,
        linear_fit,
    )

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "ClassMember",
    "ConstraintPlan",
    "Plan",
    "RunMetrics",
    "SharingClass",
    "Subsumption",
    "bar_chart",
    "build_classes",
    "build_plan",
    "canonical_key",
    "canonicalize_subformula",
    "crossover_index",
    "find_subsumptions",
    "format_table",
    "growth_order",
    "is_flat",
    "linear_fit",
    "measure_run",
    "print_table",
    "ratio",
    "series_chart",
    "space_of",
    "theta_subsumes",
]

lazy_surface(__name__, {
    "repro.analysis.ascii_plot": ("bar_chart", "series_chart"),
    "repro.analysis.metrics": ("RunMetrics", "measure_run", "space_of"),
    "repro.analysis.plan": (
        "PLAN_SCHEMA_VERSION", "ClassMember", "ConstraintPlan", "Plan",
        "SharingClass", "Subsumption", "build_classes", "build_plan",
        "canonical_key", "canonicalize_subformula", "find_subsumptions",
        "theta_subsumes",
    ),
    "repro.analysis.report": ("format_table", "print_table", "ratio"),
    "repro.analysis.shapes": (
        "crossover_index", "growth_order", "is_flat", "linear_fit",
    ),
})
