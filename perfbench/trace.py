"""In-memory spans for the traced pass, and the layer metrics read off them.

``perfbench`` records a span around every call it makes into a layer
(``monitor.step``, ``reorder.push``, ``queue.offer`` ...).  Stages with
no call boundary reachable from outside — apply, per-node auxiliary
advance and per-constraint evaluation all happen inside
``checker.step`` — come from the program's public hook protocol:
:class:`Recorder` is an :class:`repro.obs.instrument.Instrumentation`
attached through ``Monitor.instrument()``.  A hook reports a stage when
it ends, with its duration, so the span's start is the hook's clock
reading minus that duration.

Spans live in memory until :func:`write_trace` dumps them; a layer's
self time is its span minus the spans it caused.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.instrument import Instrumentation

ROOT_SPAN = "monitor.step"


class Span:
    """One timed interval: what ran, for which step, caused by what."""

    __slots__ = ("id", "parent", "step", "name", "start", "end", "attrs")

    def __init__(self, id, parent, step, name, start, end, attrs):
        self.id = id
        self.parent = parent
        self.step = step
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder(Instrumentation):
    """Collects spans: from ``perfbench``'s own calls and from the hooks."""

    __slots__ = ("spans", "step", "parent", "_checker")

    def __init__(self):
        self.spans: List[Span] = []
        #: id of the stream step being processed (shared by its spans)
        self.step = -1
        #: span that causes whatever is recorded next
        self.parent: Optional[int] = None
        self._checker: Optional[Span] = None

    def add(self, name, start, end, parent=None, **attrs) -> Span:
        span = Span(len(self.spans), parent, self.step, name, start, end,
                    attrs)
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span caused by the current parent;
        return its result and the span."""
        span = self.add(name, 0.0, 0.0, self.parent)
        span.start = perf_counter()
        result = fn(*args)
        span.end = perf_counter()
        return result, span

    def stepper(self, step: Callable, first: int, after: Callable) -> Callable:
        """Wrap a ``step(time, txn)`` callable in one root span per call.

        Calls are numbered from ``first``; whatever the hooks report
        during a call becomes a descendant of its span.  ``after()``
        runs once the call is back and returns attributes read from
        outside the program (state size), stored on the span.
        """
        self.step = first - 1

        def spanned(time, txn):
            self.step += 1
            span = self.add(ROOT_SPAN, 0.0, 0.0)
            self.parent = span.id
            span.start = perf_counter()
            report = step(time, txn)
            span.end = perf_counter()
            self.parent = None
            span.attrs.update(after())
            return report

        return spanned

    # -- the hook protocol ---------------------------------------------

    def step_begin(self, engine, time, txn_rows) -> None:
        self._checker = self.add(
            "checker.step", 0.0, 0.0, self.parent, delta_rows=txn_rows or 0
        )

    def apply_done(self, engine, time, seconds) -> None:
        now = perf_counter()
        self.add("db.apply", now - seconds, now, self._checker.id)

    def aux_advanced(self, engine, node, seconds, tuples) -> None:
        now = perf_counter()
        self.add("auxiliary.advance", now - seconds, now, self._checker.id,
                 node=node, tuples=tuples)

    def constraint_checked(
        self, engine, constraint, seconds, violations, aux_tuples
    ) -> None:
        now = perf_counter()
        self.add("foeval.evaluate", now - seconds, now, self._checker.id,
                 constraint=constraint, violations=violations)

    def step_end(self, engine, time, seconds, violations, aux_tuples) -> None:
        now = perf_counter()
        span = self._checker
        span.start, span.end = now - seconds, now
        span.attrs.update(violations=violations, aux_tuples=aux_tuples)


def write_trace(spans: Iterable[Span], path: Path, origin: float) -> None:
    """One JSON object per span; times in microseconds since ``origin``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            record = {
                "id": span.id,
                "parent": span.parent,
                "step": span.step,
                "name": span.name,
                "start_us": round(1e6 * (span.start - origin), 3),
                "end_us": round(1e6 * (span.end - origin), 3),
            }
            record.update(span.attrs)
            fh.write(json.dumps(record))
            fh.write("\n")


def read_trace(path: Path) -> List[dict]:
    """The records :func:`write_trace` wrote."""
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(records: List[dict]) -> Dict[int, float]:
    """Self time per span id: its duration minus its children's."""
    out = {r["id"]: r["end_us"] - r["start_us"] for r in records}
    for r in records:
        if r["parent"] is not None:
            out[r["parent"]] -= r["end_us"] - r["start_us"]
    return out


def seconds_in(spans: Iterable[Span], name: str) -> float:
    """Total duration of the spans called ``name``."""
    return sum(s.seconds for s in spans if s.name == name)


def core_metrics(spans: List[Span], evaluations: int) -> Dict[str, float]:
    """Where the time of the traced ``monitor.step`` calls went.

    ``evaluations`` is how far ``checker.evaluations`` moved during the
    pass: the hooks fire for reused verdicts too, so counting
    ``foeval.evaluate`` spans would not show reuse.
    """
    roots = [s for s in spans if s.name == ROOT_SPAN]
    checkers = [s for s in spans if s.name == "checker.step"]
    steps = len(roots)
    wall = sum(s.seconds for s in roots)
    inside = sum(s.seconds for s in checkers)
    apply = seconds_in(spans, "db.apply")
    advance = seconds_in(spans, "auxiliary.advance")
    evaluate = seconds_in(spans, "foeval.evaluate")
    checks = sum(s.name == "foeval.evaluate" for s in spans)
    state_rows = sum(s.attrs["state_rows"] for s in roots)
    # a sharded step has one checker.step per shard: add them up
    tuples_by_step: Dict[int, int] = defaultdict(int)
    for s in checkers:
        tuples_by_step[s.step] += s.attrs["aux_tuples"]
    stored = sum(tuples_by_step.values())
    us = 1e6 / steps
    return {
        "db.apply_us_per_step": apply * us,
        "db.apply_share": apply / wall,
        "db.delta_rows_per_step":
            sum(s.attrs["delta_rows"] for s in checkers) / steps,
        "db.state_rows_mean": state_rows / steps,
        "db.apply_us_per_state_row": 1e6 * apply / state_rows,
        "auxiliary.advance_us_per_step": advance * us,
        "auxiliary.advance_share": advance / wall,
        "auxiliary.nodes": len({
            s.attrs["node"] for s in spans if s.name == "auxiliary.advance"
        }),
        "auxiliary.tuples_mean": stored / steps,
        "auxiliary.tuples_peak": max(tuples_by_step.values()),
        "auxiliary.advance_us_per_stored_tuple": 1e6 * advance / stored,
        "foeval.evaluate_us_per_step": evaluate * us,
        "foeval.evaluate_share": evaluate / wall,
        "foeval.evaluations_per_step": evaluations / steps,
        "foeval.reuse_ratio": 1.0 - evaluations / checks,
        "checker.step_self_us": (inside - apply - advance - evaluate) * us,
        "monitor.facade_self_us": (wall - inside) * us,
    }
