"""The six workloads: their traffic, their set-up, and how each is driven.

Every workload is a closed loop with one client in a single driver
process; only ``sharded_2proc`` starts worker processes (two, because
the box has two cores).  Step counts are fixed per second of
``--seconds`` — calibrated so that a run measures for about that long
at the commit that defined the benchmark — and never depend on how fast
the program is, so two commits always run the same work.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.core.monitor import Monitor
from repro.ingest.sources import Source
from repro.resilience.chaos import IngestChaosPlan, plan_ingest_chaos
from repro.shard import ShardedMonitor

from perfbench import OUT
from perfbench.loadgen import (
    CONSTRAINTS, SCHEMA, SHAPE_A, SHAPE_B, SHAPE_C, Shape, Step, fleet,
)
from perfbench.measure import (
    Timeline, drive, process_cpu_seconds, segments_for,
)

#: ``run_seconds`` of BENCHMARK.json; step counts below are per this
RUN_SECONDS = 8
#: share of the steps that run before measurement starts
WARMUP_SHARE = 0.05
#: a journal checkpoint every this many records ...
CHECKPOINT_EVERY = 64
#: ... and the crash comes this many records past one
REPLAYED_RECORDS = 48
WATERMARK = 8
SHARDS = 2
#: a traced run covers the warm-up and this share of the measured steps
TRACED_SHARE = 5


class Workload(NamedTuple):
    """One named workload of BENCHMARK.json."""

    name: str
    kind: str           # which driver below runs it
    shape: Shape
    steps: int          # stream length at RUN_SECONDS
    warmup: int         # unmeasured leading steps at RUN_SECONDS (0 = 5 %)
    oracle_steps: int   # prefix checked against the naive engine
    why: str

    def sized(self, seconds: float, trace: bool = False) -> "Sized":
        """Stream length and warm-up for a run of ``seconds``.

        A traced run covers the warm-up and one of the measured
        segments: the first steps of the same stream.
        """
        scale = seconds / RUN_SECONDS
        steps = max(80, round(self.steps * scale))
        warmup = max(
            1, round(self.warmup * scale) or round(steps * WARMUP_SHARE)
        )
        segments = segments_for(steps - warmup)
        if trace:
            segments //= TRACED_SHARE
            steps = warmup + max(segments, (steps - warmup) // TRACED_SHARE)
        if self.kind == "durable":
            # crash REPLAYED_RECORDS records past a checkpoint
            steps += (REPLAYED_RECORDS - steps) % CHECKPOINT_EVERY
        return Sized(steps, warmup, segments)


class Sized(NamedTuple):
    """How long one run is."""

    steps: int
    warmup: int
    #: equal segments the measured steps are cut into
    segments: int

    def timeline(self, cpu_clock=process_time) -> Timeline:
        return Timeline(self.steps, self.warmup, self.segments, cpu_clock)


WORKLOADS = (
    Workload(
        "steady_small", "direct", SHAPE_A, 22000, 0, 200,
        "8 sensors, 4 report per step: tiny state and tiny delta, so "
        "fixed per-step overhead is most of the cost; reference traffic "
        "for the three shell workloads",
    ),
    Workload(
        "steady_large", "direct", SHAPE_B, 1750, 250, 48,
        "400 sensors, still 4 report per step: same delta on a large "
        "state, where O(delta) relations and expiry queues must show "
        "and steady_small predicts no change",
    ),
    Workload(
        "churn_full", "direct", SHAPE_C, 8800, 0, 100,
        "48 sensors all rewritten every step: delta about equals "
        "state, so per-row delta bookkeeping that pays off on "
        "steady_large shows here as a loss",
    ),
    Workload(
        "ingest_disorder", "ingest", SHAPE_A, 18000, 0, 0,
        "steady_small traffic over 3 skewed sources, disorder within "
        "watermark 8, 5% replays, through Monitor.feed with quarantine: "
        "reorder, queue and the guarded step path do their largest share",
    ),
    Workload(
        "durable_journal", "durable", SHAPE_A, 16000, 0, 0,
        "steady_small traffic with a segment journal, a checkpoint "
        "every 64 steps and the SQLite cold tier, then a crash 48 "
        "records past a checkpoint and recovery: persist and store work",
    ),
    Workload(
        "sharded_2proc", "sharded", SHAPE_A, 9000, 0, 0,
        "steady_small traffic through 2 worker processes, pipelined: "
        "the only run of partition, transport, merge and the "
        "journal-then-ack protocol",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


class Traffic(NamedTuple):
    """The generated inputs of one run."""

    stream: List[Step]
    #: the perturbed deliveries of ``ingest_disorder`` (else ``None``)
    plan: Optional[IngestChaosPlan]
    loadgen_s: float


def generate(workload: Workload, steps: int, seed: int) -> Traffic:
    """Make the run's inputs from ``seed``; timed apart from every metric."""
    started = perf_counter()
    stream = fleet(workload.shape, steps, seed)
    plan = None
    if workload.kind == "ingest":
        plan = plan_ingest_chaos(
            stream, seed=seed, sources=3, max_skew=4, watermark=WATERMARK,
            duplicate_rate=0.05,
        )
    return Traffic(stream, plan, perf_counter() - started)


# ----------------------------------------------------------------------
# set-up: everything before the first ready-to-step moment
# ----------------------------------------------------------------------

def scratch_dir() -> Path:
    """A fresh directory under ``perfbench/out`` (inside the checkout)."""
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=OUT))


def build_monitor(**options) -> Monitor:
    """Parse, lint and register the constraints; build the engine."""
    monitor = Monitor(SCHEMA, strict=True, **options)
    for name, text in CONSTRAINTS:
        monitor.add_constraint(name, text)
    monitor.checker  # built lazily: without this the first step pays
    return monitor


def build_sharded(root: Path, transport: str) -> ShardedMonitor:
    """Two journaled shards keyed by sensor, spawned and ready."""
    sharded = ShardedMonitor(
        SCHEMA, key="sensor", shards=SHARDS, journal_root=root,
        transport=transport, sync=False,
    )
    for name, text in CONSTRAINTS:
        sharded.add_constraint(name, text)
    for worker in sharded.supervisor.workers:
        while not worker.ready:
            worker.pump()
            if not worker.alive:
                raise RuntimeError(f"{worker!r} died before it was ready")
    return sharded


def set_up(kind: str, scratch: Path, inline: bool = False):
    """The workload's system, ready for its first step.

    ``inline`` swaps the shard transport for the in-process one, which
    the traced pass needs: hooks do not cross a process boundary.
    """
    if kind == "direct":
        return build_monitor()
    if kind == "ingest":
        return build_monitor(fault_policy="quarantine")
    if kind == "durable":
        monitor = build_monitor()
        monitor.enable_journal(
            scratch, checkpoint_every=CHECKPOINT_EVERY, sync=False
        )
        return monitor
    return build_sharded(scratch, "inline" if inline else "process")


def tear_down(system) -> None:
    """Release journals and stop (and wait for) worker processes."""
    if isinstance(system, ShardedMonitor):
        system.close()
    elif system.journal is not None:
        system.journal.close()


# ----------------------------------------------------------------------
# drivers: one untraced measured run per kind
# ----------------------------------------------------------------------

class Outcome(NamedTuple):
    """What one measured run produced."""

    timeline: Timeline
    reports: list
    #: facts the correctness check needs (accounting, recovery result)
    facts: Dict[str, object]


def arrival_steps(plan: IngestChaosPlan, stream: List[Step]) -> List[int]:
    """Which clean step each perturbed delivery carries."""
    index = {time: i for i, (time, _) in enumerate(stream)}
    return [index[raw - plan.skews[name]] for raw, _, name in plan.arrivals]


class StampedSource(Source):
    """The perturbed deliveries as one multiplexed source that stamps.

    ``poll()`` is the only place the driver has control during
    ``Monitor.feed``: it stamps each step when its first delivery is
    handed out, and notes which verdicts have appeared since.
    """

    name = "perfbench"
    multiplexed = True

    def __init__(self, plan: IngestChaosPlan, stream: List[Step],
                 completed: Callable[[], int], timeline: Timeline):
        seen = set()
        #: the step a delivery hands over, -1 for a replay
        self.first_of = []
        for step in arrival_steps(plan, stream):
            self.first_of.append(-1 if step in seen else step)
            seen.add(step)
        self.arrivals = plan.arrivals
        self.completed = completed
        self.timeline = timeline
        self.position = 0

    def poll(self):
        now = perf_counter()
        timeline = self.timeline
        timeline.observe(now, self.completed())
        arrival = None
        step = -1
        if self.position < len(self.arrivals):
            arrival = self.arrivals[self.position]
            step = self.first_of[self.position]
            self.position += 1
        timeline.leave(now, step)
        return arrival


def run_direct(system, traffic: Traffic, sized: Sized) -> Outcome:
    timeline = sized.timeline()
    return Outcome(timeline, drive(system.step, traffic.stream, timeline), {})


def run_ingest(system, traffic: Traffic, sized: Sized) -> Outcome:
    plan = traffic.plan
    timeline = sized.timeline()
    source = StampedSource(
        plan, traffic.stream,
        lambda: system.checker.steps_processed, timeline,
    )
    report = system.feed([source], watermark=WATERMARK, skew=plan.skews)
    timeline.observe(perf_counter(), system.checker.steps_processed)
    return Outcome(timeline, list(report), {
        "arrivals": len(plan.arrivals),
        "ingest": system.ingest.summary(),
        "faults": system.resilience.summary(),
    })


def run_durable(system, traffic: Traffic, sized: Sized) -> Outcome:
    timeline = sized.timeline()
    reports = drive(system.step, traffic.stream, timeline)
    directory = system.journal.directory
    system.journal.abandon()  # the crash
    recovered, result = Monitor.recover(directory)
    recovered.journal.close()
    return Outcome(timeline, reports, {"recovery": result})


def run_sharded(system, traffic: Traffic, sized: Sized) -> Outcome:
    pids = [worker.process.pid for worker in system.supervisor.workers]

    def cpu_clock() -> float:
        # the only place worker CPU shows: this process plus its workers
        return process_time() + sum(map(process_cpu_seconds, pids))

    def verdicts() -> int:
        return system.accounting()["verdicts"]

    timeline = sized.timeline(cpu_clock)

    def stamped():
        # the body between two yields is the driver's: it stamps the
        # step it is about to hand over and notes finished verdicts
        for i, item in enumerate(traffic.stream):
            now = perf_counter()
            timeline.observe(now, verdicts())
            timeline.leave(now, i)
            yield item

    report = system.run(stamped())
    timeline.observe(perf_counter(), verdicts())
    return Outcome(timeline, list(report), {
        "accounting": system.accounting(),
        "supervisor": system.supervisor.summary(),
    })


DRIVERS = {
    "direct": run_direct,
    "ingest": run_ingest,
    "durable": run_durable,
    "sharded": run_sharded,
}


def measure(workload: Workload, traffic: Traffic, sized: Sized) -> Outcome:
    """Set up, then one untraced measured run of the whole stream."""
    scratch = scratch_dir()
    try:
        system = set_up(workload.kind, scratch)
        try:
            return DRIVERS[workload.kind](system, traffic, sized)
        finally:
            tear_down(system)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def bare_run(stream: List[Step], sized: Sized):
    """The same clean steps through a bare ``Monitor.step`` loop.

    The reference the three shell workloads must equal bit for bit, and
    the baseline their per-step overhead is measured against.
    """
    timeline = sized.timeline()
    reports = drive(build_monitor().step, stream, timeline)
    return reports, timeline
