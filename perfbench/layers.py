"""The traced pass: per-layer metrics for one workload.

Two synchronous passes over the same steps, one with the
:class:`~perfbench.trace.Recorder` attached and one without, give the
core layers' shares and the hook overhead from the same pair.  Each
shell workload then probes its own layers by making their calls itself
(``Reorderer.push`` → ``IngestQueue.offer/take`` → ``Monitor.step``;
``RunJournal.record``; ``ShardedMonitor.step``), one span per call.  A
layer that is not on a workload's path reads 0 there.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.monitor import Monitor
from repro.core.parser import parse
from repro.core.persist import RunJournal, recover
from repro.db.storage import dump_arrivals, read_arrivals
from repro.ingest import IngestQueue, Reorderer
from repro.lint.linter import reject_lint_errors
from repro.shard import ShardedMonitor
from repro.store import SegmentStore

from perfbench import OUT
from perfbench.loadgen import CONSTRAINTS, SCHEMA, Step
from perfbench.measure import Timeline, drive, percentile, tail_latency_us
from perfbench.trace import Recorder, core_metrics, seconds_in, write_trace
from perfbench.workloads import (
    CHECKPOINT_EVERY, WATERMARK, Outcome, Sized, Traffic, Workload,
    arrival_steps, build_monitor, build_sharded, scratch_dir, set_up, tear_down,
)

#: recoveries timed from byte-identical copies; the first is discarded
RECOVERIES = 15
#: records appended by each store probe
STORE_RECORDS = 500
#: interleaved off/on rounds behind each observability overhead ratio
OVERHEAD_ROUNDS = 7
SETUP_REPEATS = 5
#: the layer a shell workload's overhead over the bare run is booked to
SHELL_LAYER = {"ingest": "ingest", "durable": "persist", "sharded": "shard"}


def monitors_of(system) -> List[Monitor]:
    """The ``Monitor`` objects doing the checking behind ``system``."""
    if isinstance(system, ShardedMonitor):
        return [w.monitor for w in system.supervisor.workers]
    return [system]


def sync_pass(
    kind: str, stream: List[Step], sized: Sized,
    recorder: Optional[Recorder] = None,
) -> Tuple[Timeline, int, int]:
    """Step the workload's own system synchronously over ``stream``.

    Shards run in-process here so the hooks can see them.  With a
    ``recorder``, tracing starts after the warm-up.  Returns the
    timeline, the constraint evaluations performed and the violations
    dispatched during the measured part.
    """
    scratch = scratch_dir()
    try:
        system = set_up(kind, scratch, inline=True)
        try:
            monitors = monitors_of(system)
            dispatched: list = []
            system.on_violation(dispatched.append)
            timeline = sized.timeline()
            warmup = sized.warmup
            drive(system.step, stream[:warmup], timeline)
            step = system.step
            if recorder is not None:
                for monitor in monitors:
                    monitor.instrument(recorder)
                step = recorder.stepper(step, warmup, lambda: {
                    "state_rows": sum(
                        m.checker.state.total_rows for m in monitors
                    ),
                })
            evaluations = -sum(m.checker.evaluations for m in monitors)
            violations = -len(dispatched)
            drive(step, stream[warmup:], timeline, first=warmup)
            evaluations += sum(m.checker.evaluations for m in monitors)
            return timeline, evaluations, violations + len(dispatched)
        finally:
            tear_down(system)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def timed_ms(fn: Callable) -> float:
    """Median wall time of ``fn()`` over a few repeats, in milliseconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        fn()
        samples.append(perf_counter() - started)
    return 1e3 * median(samples)


def setup_breakdown() -> Dict[str, float]:
    """Set-up by stage, warm (``repro`` already imported)."""
    pairs = [(name, parse(text)) for name, text in CONSTRAINTS]

    def build() -> float:
        monitor = Monitor(SCHEMA)
        for name, formula in pairs:
            monitor.add_constraint(name, formula)
        started = perf_counter()
        monitor.checker
        return perf_counter() - started

    return {
        "setup.parse_ms": timed_ms(
            lambda: [parse(text) for _, text in CONSTRAINTS]
        ),
        "setup.lint_ms": timed_ms(lambda: reject_lint_errors(SCHEMA, pairs)),
        "setup.build_checker_ms":
            1e3 * median(build() for _ in range(SETUP_REPEATS)),
    }


# ----------------------------------------------------------------------
# ingest_disorder
# ----------------------------------------------------------------------

def ingest_layers(traffic: Traffic, recorder: Recorder) -> Dict[str, float]:
    """Replay the deliveries call by call, as ``IngestPipeline.run`` does."""
    plan, stream = traffic.plan, traffic.stream
    monitor = build_monitor(fault_policy="quarantine")
    reorderer = Reorderer(watermark=WATERMARK, skew=plan.skews)
    queue = IngestQueue()
    step_of = {time: i for i, (time, _) in enumerate(stream)}
    carried = arrival_steps(plan, stream)
    first_seen: Dict[int, int] = {}
    lags: List[int] = []
    depth = queue_depth = 0
    mark = len(recorder.spans)
    root = recorder.add("ingest.replay", perf_counter(), 0.0)
    recorder.parent = root.id

    def hand_on(emitted, position: int) -> None:
        nonlocal queue_depth
        for time, txn in emitted:
            recorder.step = step_of[time]
            lags.append(position - first_seen[recorder.step])
            recorder.call("queue.offer", queue.offer, time, txn)
        queue_depth = max(queue_depth, queue.depth)
        while True:
            item, _ = recorder.call("queue.take", queue.take)
            if item is None:
                return
            recorder.step = step_of[item[0]]
            recorder.call("monitor.step", monitor.step, *item)

    for position, (raw, txn, name) in enumerate(plan.arrivals):
        recorder.step = carried[position]
        first_seen.setdefault(recorder.step, position)
        emitted, _ = recorder.call(
            "reorder.push", reorderer.push, raw, txn, name
        )
        depth = max(depth, reorderer.depth)
        hand_on(emitted, position)
    hand_on(reorderer.flush(), len(plan.arrivals))
    root.end = perf_counter()
    recorder.parent = None
    spans = recorder.spans[mark:]

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "arrivals.jsonl"
    dump_arrivals(plan.arrivals, path)
    started = perf_counter()
    decoded = sum(1 for _ in read_arrivals(path))
    decode_s = perf_counter() - started
    path.unlink()
    return {
        "db.storage_decode_us_per_arrival": 1e6 * decode_s / decoded,
        "reorder.push_us_per_arrival":
            1e6 * seconds_in(spans, "reorder.push") / len(plan.arrivals),
        "reorder.buffer_depth_max": depth,
        "reorder.duplicates": reorderer.duplicates,
        "reorder.release_lag_arrivals_p50": median(lags),
        "queue.offer_take_us_per_step": 1e6 * (
            seconds_in(spans, "queue.offer") + seconds_in(spans, "queue.take")
        ) / len(stream),
        "queue.depth_max": queue_depth,
    }


# ----------------------------------------------------------------------
# durable_journal
# ----------------------------------------------------------------------

def store_probe(directory: Path, records: List[dict], sync) -> Tuple[float, float]:
    """Median ``SegmentStore.append`` seconds, and WAL bytes per record."""
    samples = []
    with SegmentStore(directory, sync=sync) as store:
        for record in records:
            started = perf_counter()
            store.append(record)
            samples.append(perf_counter() - started)
        size = store.journal_path.stat().st_size
    return median(samples), size / len(records)


def durable_layers(traffic: Traffic, recorder: Recorder) -> Dict[str, float]:
    """Journal the run call by call, crash it, recover it repeatedly."""
    scratch = scratch_dir()
    try:
        crashed = scratch / "crashed"
        monitor = build_monitor()
        journal = RunJournal(
            crashed, checkpoint_every=CHECKPOINT_EVERY, sync=False
        )
        journal.attach(monitor.checker)
        records, checkpoints = [], []
        for index, (time, txn) in enumerate(traffic.stream):
            recorder.step = index
            monitor.step(time, txn)
            rotated, span = recorder.call(
                "persist.record", journal.record, time, txn, monitor.checker
            )
            span.attrs["checkpoint"] = rotated
            (checkpoints if rotated else records).append(span.seconds)
        store = journal.store
        checkpoint_bytes = sum(
            p.stat().st_size
            for p in (store.checkpoint_path, store.cold_path) if p.exists()
        )
        journal.abandon()  # the crash; the directory stays as a kill leaves it

        recoveries = []
        for attempt in range(RECOVERIES):
            copy = scratch / f"copy-{attempt}"
            shutil.copytree(crashed, copy)
            started = perf_counter()
            result = recover(copy)
            recoveries.append(perf_counter() - started)
        journal.close()

        entries = [
            dict(txn.to_dict(), t=time)
            for time, txn in traffic.stream[:STORE_RECORDS]
        ]
        append_s, wal_bytes = store_probe(scratch / "wal", entries, False)
        fsync_s, _ = store_probe(scratch / "wal-fsync", entries, "force")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "persist.record_us_p50": 1e6 * median(records),
        "persist.checkpoint_ms_p50": 1e3 * median(checkpoints),
        "persist.recover_ms_p50": 1e3 * median(recoveries[1:]),
        "persist.replayed_records": result.journal_entries,
        "store.append_us_p50": 1e6 * append_s,
        "store.fsync_append_us_p50": 1e6 * fsync_s,
        "store.wal_bytes_per_step": wal_bytes,
        "store.checkpoint_bytes": checkpoint_bytes,
    }


# ----------------------------------------------------------------------
# sharded_2proc
# ----------------------------------------------------------------------

def shard_layers(
    traffic: Traffic, sized: Sized, inline: Timeline
) -> Dict[str, float]:
    """Synchronous round trips through two real worker processes."""
    stream = traffic.stream
    scratch = scratch_dir()
    try:
        started = perf_counter()
        sharded = build_sharded(scratch, "process")
        spawn_s = perf_counter() - started
        try:
            timeline = sized.timeline()
            drive(sharded.step, stream, timeline)
            replayed = sharded.supervisor.replayed_steps
        finally:
            sharded.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    routed = [0] * sharded.shards
    for _, txn in stream:
        for shard, part in enumerate(sharded.plan.split(txn)):
            routed[shard] += part.size
    return {
        "shard.step_roundtrip_us_p50": 1e6 * percentile(
            timeline.latencies(sized.warmup, sized.steps), 0.50
        ),
        "shard.inline_us_per_step": inline.us_per_step(),
        "shard.ipc_us_per_step":
            timeline.us_per_step() - inline.us_per_step(),
        "shard.partition_skew": max(routed) / (sum(routed) / len(routed)),
        "shard.replayed_steps": replayed,
        "shard.spawn_ms": 1e3 * spawn_s,
    }


# ----------------------------------------------------------------------
# steady_small: what the optional observers cost
# ----------------------------------------------------------------------

def observer_overheads(stream: List[Step]) -> Dict[str, float]:
    """Median of interleaved on/off ratios, order rotating each round.

    Every round runs the same steps bare, with event-time telemetry and
    with the state observatory, each on a fresh monitor; a ratio pairs
    two runs of the same round, and the median over rounds is reported
    with its quartile distance (never the most favourable pair).
    """
    variants = [
        ("off", lambda m: None),
        ("telemetry", lambda m: m.enable_telemetry()),
        ("statewatch", lambda m: m.enable_statewatch()),
    ]
    seconds: Dict[str, List[float]] = {name: [] for name, _ in variants}
    for round_ in range(OVERHEAD_ROUNDS):
        shift = round_ % len(variants)
        for name, enable in variants[shift:] + variants[:shift]:
            monitor = build_monitor()
            enable(monitor)
            started = perf_counter()
            for time, txn in stream:
                monitor.step(time, txn)
            seconds[name].append(perf_counter() - started)
    out = {}
    for name in ("telemetry", "statewatch"):
        ratios = [on / off for on, off in zip(seconds[name], seconds["off"])]
        q1, _, q3 = quantiles(ratios, n=4)
        print(f"  obs.{name}_overhead_ratio: quartile distance "
              f"{q3 - q1:.4f} over {OVERHEAD_ROUNDS} interleaved rounds")
        out[f"obs.{name}_overhead_ratio"] = median(ratios)
    return out


# ----------------------------------------------------------------------

def traced_run(
    workload: Workload, traffic: Traffic, sized: Sized, untraced: Outcome,
    bare: Optional[Timeline],
) -> Dict[str, float]:
    """Every per-layer metric this workload's path has; writes the trace.

    ``untraced`` is the workload's own measured run over the same steps
    and ``bare`` the bare ``Monitor.step`` run over them (shell
    workloads only): their per-step difference is the shell's overhead.
    """
    stream = traffic.stream
    recorder = Recorder()
    origin = perf_counter()
    plain, _, _ = sync_pass(workload.kind, stream, sized)
    traced, evaluations, dispatched = sync_pass(
        workload.kind, stream, sized, recorder
    )
    metrics = core_metrics(recorder.spans, evaluations)
    metrics["tail.verdict_latency_us_p99"] = tail_latency_us(
        untraced.timeline
    )
    metrics["monitor.violations_dispatched"] = dispatched
    metrics["obs.hook_overhead_ratio"] = (
        traced.us_per_step() / plain.us_per_step()
    )
    metrics.update(setup_breakdown())
    if bare is not None:
        metrics[f"{SHELL_LAYER[workload.kind]}.overhead_us_per_step"] = (
            untraced.timeline.us_per_step() - bare.us_per_step()
        )
    if workload.kind == "ingest":
        metrics.update(ingest_layers(traffic, recorder))
    elif workload.kind == "durable":
        metrics.update(durable_layers(traffic, recorder))
    elif workload.kind == "sharded":
        metrics.update(shard_layers(traffic, sized, plain))
    elif workload.name == "steady_small":
        metrics.update(observer_overheads(stream[:max(50, len(stream) // 5)]))
    write_trace(recorder.spans, OUT / f"trace-{workload.name}.jsonl", origin)
    return metrics
