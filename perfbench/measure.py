"""Clocks, the per-step timeline and the end-to-end metric arithmetic.

The box the benchmark runs on has slow spells — a few hundred
milliseconds to a few minutes in which everything, CPU time included,
runs 20–40 % slower.  A whole-run mean or a median over segments moves
with them.  So the measured steps are cut into equal segments of about
:data:`SEGMENT_STEPS` steps and each timing metric is its most
favourable value over the segments: what the program does when the
machine leaves it alone.  Short segments find the quiet moments of a
bad minute; over ten seeds, 80 segments spread half as far as 20.  The
price is stated in ``perfbench/README.md``: a cost rarer than once per
segment does not show in ``steps_per_s``.
"""

from __future__ import annotations

from time import clock_gettime, perf_counter, process_time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: target segment length, in steps ...
SEGMENT_STEPS = 250
#: ... but a run is cut into at least this many segments
MIN_SEGMENTS = 20


def segments_for(measured: int) -> int:
    """How many equal segments ``measured`` steps are cut into."""
    return max(MIN_SEGMENTS, measured // SEGMENT_STEPS)


def process_cpu_seconds(pid: int) -> float:
    """CPU time of another live process (Linux).

    A child's CPU time reaches ``getrusage`` only once it has been
    waited for, which is too late to split a run into segments; the
    kernel's per-process CPU clock is readable at any time.  The clock
    id is what ``clock_getcpuclockid(3)`` computes.
    """
    return clock_gettime(((~pid) << 3) | 2)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Timeline:
    """When each step entered the program and when its verdict was out.

    ``handed[i]`` is the moment step ``i`` was given to the program and
    ``done[i]`` the first moment the driver had control again with that
    step's verdict available; their difference is the verdict latency.
    ``busy[i]`` is ``done[i]`` on a clock that stands still while the
    driver's own bodies run (loop bookkeeping, ``poll()``, the stream
    iterator), so a difference of two ``busy`` values is wall time spent
    inside the program's calls.  ``cpu_at[k]`` is the CPU clock when the
    ``k``-th segment edge was passed.
    """

    def __init__(self, steps: int, warmup: int, segments: int,
                 cpu_clock: Callable[[], float] = process_time):
        if not 1 <= warmup <= steps - segments:
            raise ValueError(
                f"warm-up {warmup} leaves under {segments} of {steps} steps"
            )
        self.handed = [0.0] * steps
        self.done = [0.0] * steps
        self.busy = [0.0] * steps
        self.warmup = warmup
        self.edges = [
            warmup + (steps - warmup) * k // segments
            for k in range(segments + 1)
        ]
        self.cpu_clock = cpu_clock
        self.cpu_at: List[float] = []
        self.excluded = 0.0
        self.completed = 0
        #: when the driver last got control back (0.0 = never yet)
        self.released = 0.0

    def observe(self, now: float, completed: int) -> None:
        """The driver has control at ``now`` and sees ``completed`` verdicts."""
        self.released = now
        if completed <= self.completed:
            return
        clock = now - self.excluded
        for i in range(self.completed, completed):
            self.done[i] = now
            self.busy[i] = clock
        self.completed = completed
        while (
            len(self.cpu_at) < len(self.edges)
            and completed >= self.edges[len(self.cpu_at)]
        ):
            self.cpu_at.append(self.cpu_clock())

    def leave(self, entered: float, step: int = -1) -> None:
        """A driver body that began at ``entered`` ends now, handing
        ``step`` (if any) to the program; its duration is not program time."""
        leaving = perf_counter()
        if step >= 0:
            self.handed[step] = leaving
        self.excluded += leaving - entered

    @property
    def measured(self) -> int:
        """Steps after the warm-up."""
        return len(self.done) - self.warmup

    def busy_seconds(self, first: int, last: int) -> float:
        """Program time spent on steps ``first`` .. ``last - 1``."""
        return self.busy[last - 1] - self.busy[first - 1]

    def segment_rates(self) -> List[float]:
        """Steps per second of program time, segment by segment."""
        return [
            (b - a) / self.busy_seconds(a, b)
            for a, b in zip(self.edges, self.edges[1:])
        ]

    def us_per_step(self) -> float:
        """Program time per step in the fastest segment, in microseconds."""
        return 1e6 / max(self.segment_rates())

    def latencies(self, first: int, last: int) -> List[float]:
        """Sorted verdict latencies of steps ``first`` .. ``last - 1``."""
        return sorted(
            d - h for d, h in
            zip(self.done[first:last], self.handed[first:last])
        )


def drive(
    step: Callable, stream: Iterable[Tuple[int, object]], timeline: Timeline,
    first: int = 0,
) -> list:
    """Closed loop, one client: call ``step`` once per stream element.

    ``first`` is the timeline position of the stream's first element;
    whatever the driver did since its last call is not program time.
    """
    reports = []
    left = timeline.released or perf_counter()
    for i, (time, txn) in enumerate(stream, first):
        entered = perf_counter()
        timeline.excluded += entered - left
        timeline.handed[i] = entered
        report = step(time, txn)
        left = perf_counter()
        timeline.observe(left, i + 1)
        reports.append(report)
    return reports


def end_to_end(timeline: Timeline) -> Dict[str, float]:
    """The timing metrics of one untraced measured run."""
    if timeline.completed != len(timeline.done):
        raise ValueError(
            f"{len(timeline.done) - timeline.completed} step(s) never "
            f"produced a verdict"
        )
    segments = list(zip(timeline.edges, timeline.edges[1:]))
    cpu = timeline.cpu_at
    return {
        "steps_per_s": max(timeline.segment_rates()),
        "verdict_latency_us_p50": 1e6 * min(
            percentile(timeline.latencies(a, b), 0.50) for a, b in segments
        ),
        "cpu_us_per_step": 1e6 * min(
            (cpu[k + 1] - cpu[k]) / (b - a)
            for k, (a, b) in enumerate(segments)
        ),
    }


def tail_latency_us(timeline: Timeline) -> float:
    """p99 verdict latency pooled over every measured step."""
    return 1e6 * percentile(
        timeline.latencies(timeline.warmup, len(timeline.done)), 0.99
    )
