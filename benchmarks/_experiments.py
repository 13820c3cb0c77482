"""The experiment runner: each experiment's table, charts and verdict.

Each ``bench_eN_*.py`` module exposes ``run(recorder, profile)`` — a
plain function that sweeps its parameter, records table rows into a
:class:`Recorder`, and *declares* the paper-shape expectations its
experiment must uphold.  The recorder renders the human-readable
table + ASCII charts (``benchmarks/results/eN.txt``) and evaluates the
declared shapes with :mod:`repro.analysis.shapes` over the very rows
it rendered.

Two sweep profiles ship: ``full`` (the EXPERIMENTS.md sweeps) and
``short`` (a trimmed sweep for CI's perf-smoke job).

There is one way to run them: ``pytest benchmarks/`` — each module's
``test_eN`` wrapper calls :func:`run_for_pytest`, which runs the
experiment, regenerates its results file, and asserts every declared
shape (``REPRO_BENCH_PROFILE=short`` trims the sweeps).  The E-series
asserts *shapes*; a timing claim between two commits is made with
``python3 -m perfbench`` and ``tools/pair_bench.py`` instead.
"""

from __future__ import annotations

import importlib
import math
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.ascii_plot import bar_chart
from repro.analysis.report import format_table
from repro.analysis.shapes import growth_order, is_flat

RESULTS_DIR = Path(__file__).parent / "results"

#: experiment id -> module implementing ``run(recorder, profile)``
EXPERIMENTS: Dict[str, str] = {
    "e1": "bench_e1_space",
    "e2": "bench_e2_step_time",
    "e3": "bench_e3_crossover",
    "e4": "bench_e4_state_size",
    "e5": "bench_e5_formula_depth",
    "e6": "bench_e6_window",
    "e7": "bench_e7_active",
    "e8": "bench_e8_unbounded",
    "e9": "bench_e9_ablation",
    "e10": "bench_e10_future",
    "e11": "bench_e11_planner",
    "e12": "bench_e12_aggregates",
    "e13": "bench_e13_shards",
    "e14": "bench_e14_sharing",
    "e15": "bench_e15_durability",
}

PROFILES = ("short", "full")

_WORKLOADS_LINTED = False


def ensure_workloads_lint_clean() -> None:
    """Pre-flight gate: every shipped workload must be lint-clean.

    Benchmarks draw constraint sets from :mod:`repro.workloads`; a
    workload carrying lint errors or warnings would silently skew the
    measured shapes (e.g. a vacuous constraint is free to monitor).
    Runs once per process.
    """
    global _WORKLOADS_LINTED
    if _WORKLOADS_LINTED:
        return
    from repro.resilience import assert_lint_clean
    from repro.workloads import (
        library_workload,
        orders_workload,
        payments_workload,
        random_workload,
        sensors_workload,
    )

    for factory in (library_workload, orders_workload, payments_workload,
                    sensors_workload, random_workload):
        assert_lint_clean(factory())
    _WORKLOADS_LINTED = True


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Recorder:
    """Accumulates one experiment's rows and expectations."""

    def __init__(self, experiment: str, profile: str = "full"):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        self.experiment = experiment
        self.profile = profile
        self.title = ""
        self.headers: Optional[List[str]] = None
        self.rows: List[List[Any]] = []
        #: (name, series, judge); judge(xs, ys) -> (ok, what was measured)
        self._expectations: List[Tuple[str, str, Callable]] = []
        self._checks: List[Tuple[str, bool, str]] = []

    # -- recording -----------------------------------------------------

    def row(self, headers: Sequence[str], row: Sequence[Any],
            title: str = "") -> None:
        """Append one table row (headers are fixed by the first call)."""
        if self.headers is None:
            self.headers = list(headers)
        elif list(headers) != self.headers:
            raise ValueError(
                f"{self.experiment}: headers changed mid-experiment"
            )
        if title:
            self.title = title
        self.rows.append(list(row))

    # -- shape expectations (evaluated over the recorded table) --------

    def expect_flat(self, name: str, series: str,
                    tolerance_ratio: float = 3.0) -> None:
        """The column must stay within a max/min ratio (no trend)."""
        def judge(xs, ys):
            positive = [y for y in ys if y > 0]
            ratio = max(positive) / min(positive) if positive else 1.0
            return is_flat(ys, tolerance_ratio), (
                f"max/min ratio {ratio:.2f} vs tolerance {tolerance_ratio}"
            )
        self._expectations.append((name, series, judge))

    def expect_growth(self, name: str, series: str,
                      min_order: Optional[float] = None,
                      max_order: Optional[float] = None) -> None:
        """The column's log-log slope must lie within the bounds."""
        low = -math.inf if min_order is None else min_order
        high = math.inf if max_order is None else max_order

        def judge(xs, ys):
            try:
                order = growth_order(xs, ys)
            except ValueError:  # fewer than two points, or one x value
                return False, f"fitted order n/a vs [{low}, {high}]"
            return low <= order <= high, (
                f"fitted order {order:.2f} vs [{low}, {high}]"
            )
        self._expectations.append((name, series, judge))

    def expect_max(self, name: str, series: str, limit: float) -> None:
        """Every value of the column must stay <= limit."""
        def judge(xs, ys):
            return max(ys) <= limit, f"peak {max(ys):g} vs limit {limit:g}"
        self._expectations.append((name, series, judge))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record an ad-hoc verdict (verdict equality, lag bounds, ...)
        that is not a property of one table column."""
        self._checks.append((name, bool(ok), detail))

    # -- evaluation / output -------------------------------------------

    def _column(self, series: str) -> Tuple[List[float], List[float]]:
        """``(xs, ys)`` of a named column; x is the sweep (first) column.

        Non-numeric cells are dropped pairwise; a non-numeric x (an
        engine name, ``"*"`` for an unbounded window) falls back to the
        row index so a growth fit still has a monotone axis.
        """
        col = (self.headers or []).index(series)
        pairs = [
            (row[0] if _is_number(row[0]) else index, row[col])
            for index, row in enumerate(self.rows)
            if _is_number(row[col])
        ]
        return [float(x) for x, _ in pairs], [float(y) for _, y in pairs]

    def failures(self) -> List[str]:
        """One ``name (measured)`` line per expectation that failed."""
        verdicts = []
        for name, series, judge in self._expectations:
            try:
                xs, ys = self._column(series)
            except ValueError:
                ok, detail = False, f"no column {series!r} in table"
            else:
                ok, detail = (
                    judge(xs, ys) if ys else (False, "series has no data")
                )
            verdicts.append((name, ok, detail))
        return [
            f"{name} ({detail})"
            for name, ok, detail in verdicts + self._checks
            if not ok
        ]

    def assert_shapes(self) -> None:
        """Raise AssertionError naming every failed expectation."""
        failures = self.failures()
        if failures:
            raise AssertionError(
                f"{self.experiment}: shape expectation(s) failed: "
                + "; ".join(failures)
            )

    def table_text(self) -> str:
        """The results file content: aligned table + ASCII charts."""
        headers = self.headers or []
        text = format_table(
            headers, self.rows,
            title=f"[{self.experiment}] {self.title}",
        )
        charts = self._charts(headers)
        return text + ("\n\n" + charts if charts else "") + "\n"

    def _charts(self, headers: Sequence[str]) -> str:
        """Every numeric column charted against the sweep column."""
        if len(self.rows) < 2:
            return ""
        labels = [row[0] for row in self.rows]
        charts = []
        for col in range(1, len(headers)):
            values = [row[col] for row in self.rows]
            if not all(_is_number(v) and v >= 0 for v in values):
                continue
            charts.append(bar_chart(labels, values, title=headers[col]))
        return "\n\n".join(charts)

    def write(self, out_dir: Path) -> None:
        """Write ``<exp>.txt`` — the table and its charts."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{self.experiment}.txt").write_text(self.table_text())


def run_experiment(
    experiment: str,
    profile: str = "full",
    out_dir: Optional[Path] = None,
) -> Recorder:
    """Run one experiment and write its table; returns the recorder.

    Args:
        experiment: id from :data:`EXPERIMENTS`.
        profile: sweep profile (``short`` / ``full``).
        out_dir: results directory (default ``benchmarks/results``).
    """
    ensure_workloads_lint_clean()
    module = importlib.import_module(EXPERIMENTS[experiment])
    recorder = Recorder(experiment, profile)
    module.run(recorder, profile)
    recorder.write(out_dir or RESULTS_DIR)
    return recorder


def run_for_pytest(experiment: str) -> Recorder:
    """Pytest entry: run, regenerate the results file, assert shapes."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "full")
    recorder = run_experiment(experiment, profile)
    recorder.assert_shapes()
    return recorder
