"""Fault-isolated sharded monitoring.

Hash-partitions a monitoring workload by one key attribute across N
supervised workers — each an isolated
:class:`~repro.core.monitor.Monitor` with its own checker and
per-shard journal — and merges the per-shard verdicts back into
reports bit-for-bit equal to the single-process run, including under
injected worker crashes (recovered by journal replay) and stalls
(heartbeat kills + respawn).  Unrecoverable shards degrade explicitly:
every fed step is accounted as a verdict, a degraded verdict, or a
shed input — never silently dropped.

Layout:

* :mod:`repro.shard.partition` — the key-routing plan: which
  constraints shard, how tuples and witnesses route, stable hashing;
* :mod:`repro.shard.worker` — inline (deterministic) and OS-process
  workers, the framed pipe between supervisor and process workers, and
  the per-frame journal-then-ack durability protocol;
* :mod:`repro.shard.supervisor` — dispatch, bounded mailboxes with
  backpressure, heartbeats, crash recovery, tombstoning;
* :mod:`repro.shard.merge` — reassembling global verdicts in
  constraint registration order with witness-ownership filtering;
* :mod:`repro.shard.monitor` — the :class:`ShardedMonitor` façade.

Chaos injection for sharded runs lives with the other injectors in
:mod:`repro.resilience.chaos`
(:func:`~repro.resilience.plan_shard_chaos`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface

if TYPE_CHECKING:
    from repro.shard.merge import merge_fragments, union_tables
    from repro.shard.monitor import MANIFEST_NAME, ShardedMonitor
    from repro.shard.partition import (
        PLAN_VERSION,
        ShardPlan,
        stable_hash,
    )
    from repro.shard.supervisor import ShardSupervisor
    from repro.shard.worker import (
        InlineWorker,
        ProcessWorker,
        ShardServer,
        WorkerSpec,
        build_worker_monitor,
        recover_worker_monitor,
    )

__all__ = [
    "MANIFEST_NAME",
    "PLAN_VERSION",
    "InlineWorker",
    "ProcessWorker",
    "ShardPlan",
    "ShardServer",
    "ShardSupervisor",
    "ShardedMonitor",
    "WorkerSpec",
    "build_worker_monitor",
    "merge_fragments",
    "recover_worker_monitor",
    "stable_hash",
    "union_tables",
]

lazy_surface(__name__, {
    "repro.shard.merge": ("merge_fragments", "union_tables"),
    "repro.shard.monitor": ("MANIFEST_NAME", "ShardedMonitor"),
    "repro.shard.partition": ("PLAN_VERSION", "ShardPlan", "stable_hash"),
    "repro.shard.supervisor": ("ShardSupervisor",),
    "repro.shard.worker": (
        "InlineWorker", "ProcessWorker", "ShardServer", "WorkerSpec",
        "build_worker_monitor", "recover_worker_monitor",
    ),
})
