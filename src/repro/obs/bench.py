"""Machine-readable benchmark artifacts (``BENCH_<exp>.json``).

Every experiment run produces, next to its human-readable table, one
JSON artifact carrying the same data in analyzable form:

* the **table** exactly as rendered (headers + rows, one code path);
* derived **series** — every numeric column against the sweep column —
  with summary stats (mean, p50/p90/p99, tail mean) and a fitted
  log-log **slope** (the growth order the paper's shape claims are
  about);
* optional raw per-step **samples** (step seconds, space samples);
* the **shape expectations** the experiment declares (flat / growth /
  bound checks) together with their measured values and verdicts —
  :mod:`repro.obs.regress` re-evaluates these against a fresh run;
* an **environment fingerprint** (interpreter, platform, CPU count) so
  artifacts from different machines are never silently compared as
  equals;
* optionally the run's full :class:`~repro.obs.metrics.MetricsRegistry`
  dump in the exact :func:`~repro.obs.export.render_json` layout, so
  benchmark artifacts and live-telemetry dumps share one schema.

The artifact is versioned (``"schema": "repro-bench/1"``) and
validated on read, so a truncated or hand-built file fails loudly.
"""

from __future__ import annotations

import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.shapes import growth_order, is_flat

PathLike = Union[str, Path]

#: artifact schema identifier; bump on incompatible layout changes
BENCH_SCHEMA = "repro-bench/1"

#: keys every artifact must carry (validated on read)
_REQUIRED_KEYS = (
    "schema",
    "experiment",
    "title",
    "profile",
    "table",
    "series",
    "samples",
    "shapes",
    "environment",
)

#: shape kinds :func:`evaluate_shape` can recompute from a table
RECOMPUTABLE_SHAPES = ("flat", "growth", "max")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches the common "linear" definition (numpy's default) without
    requiring numpy; returns 0.0 for an empty input.
    """
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be within [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def series_stats(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics of one series (all keys always present)."""
    if not values:
        return {
            "n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "tail_mean": 0.0,
        }
    tail = list(values)[-max(1, len(values) // 4):]
    return {
        "n": len(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "tail_mean": sum(tail) / len(tail),
    }


def fit_slope(
    xs: Sequence[float], ys: Sequence[float]
) -> Optional[float]:
    """Log-log growth order of ``ys`` over ``xs`` (None when unfittable)."""
    if len(xs) < 2 or len(xs) != len(ys):
        return None
    try:
        return growth_order(xs, ys)
    except ValueError:
        return None


def environment_fingerprint() -> Dict[str, Any]:
    """Where this artifact was measured (never compared as equal runs
    across differing fingerprints without a warning)."""
    import platform  # for this one function; not cheap to import

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def table_column(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], name: str
) -> Tuple[List[float], List[float]]:
    """``(xs, ys)`` for a named column; x is the first (sweep) column.

    Non-numeric cells are dropped pairwise; non-numeric x values (an
    engine name, ``"*"`` for an unbounded window) fall back to the row
    index so shape fits still have a monotone axis.
    """
    try:
        col = list(headers).index(name)
    except ValueError:
        raise KeyError(f"no column {name!r} in table") from None
    xs: List[float] = []
    ys: List[float] = []
    for index, row in enumerate(rows):
        if col >= len(row) or not _is_number(row[col]):
            continue
        x = row[0] if row and _is_number(row[0]) else index
        xs.append(float(x))
        ys.append(float(row[col]))
    return xs, ys


def derive_series(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> Dict[str, Dict[str, Any]]:
    """Every numeric column of a table as a series with stats + slope."""
    series: Dict[str, Dict[str, Any]] = {}
    for name in list(headers)[1:]:
        xs, ys = table_column(headers, rows, name)
        if not ys:
            continue
        series[name] = {
            "x": xs,
            "y": ys,
            "stats": series_stats(ys),
            "slope": fit_slope(xs, ys),
        }
    return series


def evaluate_shape(
    spec: Dict[str, Any],
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> Optional[Dict[str, Any]]:
    """Evaluate one shape expectation against a table.

    Returns the spec extended with ``value`` / ``ok`` / ``detail``, or
    ``None`` for kinds that cannot be recomputed from a table (ad-hoc
    ``check`` entries record their verdict at run time).

    Kinds:

    * ``flat`` — max/min ratio of the series stays within
      ``tolerance_ratio`` (:func:`repro.analysis.shapes.is_flat`);
    * ``growth`` — the log-log slope lies within
      ``[min_order, max_order]`` (either bound optional);
    * ``max`` — every value stays ``<= limit``.
    """
    kind = spec.get("kind")
    if kind not in RECOMPUTABLE_SHAPES:
        return None
    out = dict(spec)
    try:
        xs, ys = table_column(headers, rows, spec["series"])
    except KeyError as exc:
        out.update(value=None, ok=False, detail=str(exc))
        return out
    if not ys:
        out.update(value=None, ok=False, detail="series has no data")
        return out
    if kind == "flat":
        tolerance = float(spec.get("tolerance_ratio", 3.0))
        positive = [y for y in ys if y > 0]
        ratio = (max(positive) / min(positive)) if positive else 1.0
        out.update(
            value=ratio,
            ok=is_flat(ys, tolerance_ratio=tolerance),
            detail=f"max/min ratio {ratio:.2f} vs tolerance {tolerance}",
        )
    elif kind == "growth":
        slope = fit_slope(xs, ys)
        minimum = spec.get("min_order")
        maximum = spec.get("max_order")
        ok = slope is not None
        if ok and minimum is not None:
            ok = slope >= minimum
        if ok and maximum is not None:
            ok = slope <= maximum
        bounds = (
            f"[{'-inf' if minimum is None else minimum}, "
            f"{'inf' if maximum is None else maximum}]"
        )
        out.update(
            value=slope,
            ok=ok,
            detail=f"fitted order "
                   f"{'n/a' if slope is None else format(slope, '.2f')} "
                   f"vs {bounds}",
        )
    else:  # max
        limit = float(spec["limit"])
        peak = max(ys)
        out.update(
            value=peak,
            ok=peak <= limit,
            detail=f"peak {peak:g} vs limit {limit:g}",
        )
    return out


def build_artifact(
    experiment: str,
    title: str,
    profile: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    shapes: Sequence[Dict[str, Any]] = (),
    samples: Optional[Dict[str, Sequence[float]]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    environment: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one validated artifact document.

    ``shapes`` entries are expected to already carry their ``ok`` /
    ``value`` verdicts (the benchmark runner evaluates them via
    :func:`evaluate_shape` before building); ``metrics`` is a
    :func:`~repro.obs.export.render_json` document or ``None``.
    """
    doc: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "experiment": experiment,
        "title": title,
        "profile": profile,
        "table": {"headers": list(headers), "rows": [list(r) for r in rows]},
        "series": derive_series(headers, rows),
        "samples": {
            name: {
                "values": [round(float(v), 9) for v in values],
                "stats": series_stats([float(v) for v in values]),
            }
            for name, values in (samples or {}).items()
        },
        "shapes": [dict(s) for s in shapes],
        "environment": environment or environment_fingerprint(),
        "metrics": metrics,
    }
    validate_artifact(doc)
    return doc


def validate_artifact(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed artifact."""
    if not isinstance(doc, dict):
        raise ValueError("artifact is not a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise ValueError(f"artifact missing key(s): {', '.join(missing)}")
    if doc["schema"] != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported artifact schema {doc['schema']!r} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    table = doc["table"]
    if (
        not isinstance(table, dict)
        or not isinstance(table.get("headers"), list)
        or not isinstance(table.get("rows"), list)
    ):
        raise ValueError("artifact table must have headers and rows lists")
    for row in table["rows"]:
        if not isinstance(row, list) or len(row) != len(table["headers"]):
            raise ValueError("artifact table rows must match the headers")
    if not isinstance(doc["series"], dict):
        raise ValueError("artifact series must be an object")
    if not isinstance(doc["shapes"], list):
        raise ValueError("artifact shapes must be a list")


def artifact_path(directory: PathLike, experiment: str) -> Path:
    """Canonical artifact file name: ``<dir>/BENCH_<exp>.json``."""
    return Path(directory) / f"BENCH_{experiment}.json"


def write_artifact(doc: Dict[str, Any], path: PathLike) -> Path:
    """Validate and write one artifact; returns the path written."""
    validate_artifact(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return path


def read_artifact(path: PathLike) -> Dict[str, Any]:
    """Read and validate one artifact file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    validate_artifact(doc)
    return doc


def read_artifact_dir(directory: PathLike) -> Dict[str, Dict[str, Any]]:
    """All ``BENCH_*.json`` artifacts in a directory, keyed by
    experiment id (taken from the document, not the file name)."""
    directory = Path(directory)
    artifacts: Dict[str, Dict[str, Any]] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        doc = read_artifact(path)
        artifacts[doc["experiment"]] = doc
    return artifacts
