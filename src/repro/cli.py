"""Command-line interface.

Eleven subcommands::

    repro-check check    --schema s.json --constraints c.txt --history h.jsonl
    repro-check ingest   --schema s.json --constraints c.txt --source a.jsonl
    repro-check lint     --constraints c.txt [--schema s.json] [--format json]
    repro-check plan     --constraints c.txt [--schema s.json] [--format json]
    repro-check generate --workload library --length 200 --seed 1 --out DIR
    repro-check analyze  --constraints c.txt [--trace t.jsonl]
    repro-check stats    --trace t.jsonl [--percentiles]
    repro-check health   SNAPSHOT [SNAPSHOT ...] [--merge-out h.json]
    repro-check state    inspect|watch|top|bound-check --schema ... --history ...
    repro-check recover  --journal DIR [--history h.jsonl]
    repro-check scrub    DIR [--repair] [--format json]

``check`` replays a JSONL update stream against a constraint file and
reports violations (exit status 1 if any); ``--trace``/``--metrics``
attach runtime observability (:mod:`repro.obs`) and write a JSONL span
trace / a metrics dump (Prometheus text, or JSON for ``.json`` paths).
Before monitoring, the constraint set is linted and any diagnostics
are printed (``--no-lint`` opts out).  ``lint`` runs the same static
analyses (:mod:`repro.lint`) standalone: text or ``--format json``
output, exit status mirroring the worst severity (2 errors, 1
warnings, 0 clean/advisory) — see ``docs/linting.md``.  ``plan`` runs
the cross-constraint planner (:mod:`repro.analysis.plan`) standalone:
shared-subformula classes, θ-subsumption redundancies, and static
state bounds as a ``repro-plan/1`` document (``--format json``) or a
text summary, with the planner-backed diagnostics RTC013–RTC016 and
the same severity exit convention (``--state-budget``/``--shard-key``
arm the gated rules; ``--relation-size rel=N`` tunes the cost model).
``generate`` materialises a workload into the on-disk format ``check``
consumes.  ``analyze`` prints each constraint's compilation profile —
safety verdict, clock horizon, temporal node counts — and, given a
trace, joins in the observed per-constraint runtime figures.  ``stats``
summarises a trace: step/evaluate latencies per constraint and an
ASCII step-latency histogram (``--percentiles`` adds p50/p90/p99).
``recover`` restores a crashed ``check --journal`` run from its
checkpoint + journal directory (or, for a ``--shards`` run, from the
shard manifest under the journal root) and optionally continues over
the remaining history (see ``docs/robustness.md``).
``scrub`` verifies every checksum in a journal directory (shard trees
included) and exits 0 clean / 1 corruption found / 2 unrepairable;
``--repair`` truncates torn tails, promotes fallback generations, and
re-checkpoints through a full recovery so generation redundancy is
restored (see :mod:`repro.store`).

``check`` grows a fault boundary: ``--fault-policy skip|quarantine``
keeps monitoring through malformed lines, schema violations, and clock
faults (``--quarantine-log`` dead-letters them as JSONL);
``--step-deadline`` sheds non-urgent constraint evaluations when a step
blows its budget; ``--journal DIR`` makes the run crash-recoverable.

``ingest`` hardens the front of that boundary (:mod:`repro.ingest`):
it reads *arrival* files — JSONL deliveries that may be out of order,
duplicated, clock-skewed per source, or outright garbage — reorders
them behind a watermark frontier, and checks the reconstructed stream,
dead-lettering anything excluded (late/duplicate/invalid/shed) to the
quarantine log.  ``check --tolerate-disorder`` (implied by
``--watermark``) applies the same frontier to a mildly disordered
history file instead of aborting on the first clock fault.
``generate --arrivals`` writes a seeded perturbation of the workload
(``arrivals.jsonl`` + an ``ingest.json`` ground-truth manifest) for
exercising all of this end to end — see ``docs/robustness.md``.

Event-time telemetry (:mod:`repro.obs.telemetry`) rides ``check`` and
``ingest``: ``--slo FILE`` evaluates declarative SLOs with burn-rate
alerts during the run, ``--health FILE`` writes a versioned, mergeable
health snapshot afterwards, and the ``health`` subcommand validates,
folds, and renders snapshot files from N runs or shards (exit status 1
when any merged SLO budget is exhausted) — see
``docs/observability.md``.

State observability (:mod:`repro.obs.statewatch`) rides ``check`` and
``ingest`` too: ``--statewatch`` accounts the auxiliary relations per
temporal subformula against their analytic bounds and prints any
bound/leak alerts, ``--flight FILE`` adds a flight recorder dumping a
``repro-flight/1`` black-box artifact on violation/fault/budget
incidents, and ``--state-out FILE`` writes the final ``repro-state/1``
snapshot.  The ``state`` subcommand replays a history under the
observatory standalone: ``inspect`` (full accounting), ``watch``
(running totals), ``top`` (heavy-hitter valuations), ``bound-check``
(exit 1 on any analytic-bound breach).  ``health render SNAP...``
renders health *or* state snapshots individually (``--format json``
for machine consumption).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core import ENGINES
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.monitor import Monitor

#: ``generate --workload NAME`` builds ``repro.workloads.NAME_workload``
WORKLOADS = ("library", "orders", "payments", "random", "sensors")


def _add_check(commands) -> None:
    check = commands.add_parser(
        "check", help="check a history against constraints"
    )
    check.add_argument(
        "--schema", default=None,
        help="schema JSON file (required unless --resume-from)",
    )
    check.add_argument(
        "--constraints", default=None,
        help="constraint text file (required unless --resume-from)",
    )
    check.add_argument(
        "--history", required=True, help="JSONL update stream"
    )
    check.add_argument(
        "--resume-from", default=None,
        help="checkpoint file to resume monitoring from "
             "(constraints come from the checkpoint; incremental only)",
    )
    check.add_argument(
        "--save-checkpoint", default=None,
        help="write a checkpoint after processing the stream "
             "(incremental engine only)",
    )
    check.add_argument(
        "--fault-policy", default=None,
        choices=("fail_fast", "skip", "quarantine"),
        help="what to do with faulty stream records (default: "
             "fail_fast, i.e. abort on the first fault)",
    )
    check.add_argument(
        "--step-deadline", type=float, default=None, metavar="SECONDS",
        help="per-step evaluation budget; blown budgets shed "
             "non-urgent constraints and mark the step degraded",
    )
    check.add_argument(
        "--urgent", action="append", default=None, metavar="NAME",
        help="constraint never shed under --step-deadline (repeatable)",
    )
    check.add_argument(
        "--journal", default=None, metavar="DIR",
        help="journal every applied step under DIR with periodic "
             "checkpoints, making the run recoverable via 'recover' "
             "(incremental engine only)",
    )
    check.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="auto-checkpoint cadence for --journal (default: 64)",
    )
    check.add_argument(
        "--no-lint", action="store_true",
        help="skip the pre-monitoring lint pass over the constraints",
    )
    check.add_argument(
        "--tolerate-disorder", action="store_true",
        help="reorder out-of-order history records behind a watermark "
             "instead of aborting (implies --fault-policy quarantine "
             "unless one is given)",
    )
    check.add_argument(
        "--watermark", type=int, default=None, metavar="W",
        help="disorder bound, in clock units, for --tolerate-disorder "
             "(giving it implies the flag; default: 0)",
    )
    _add_run_options(check)
    check.set_defaults(handler=_command_check)


def _add_ingest(commands) -> None:
    ingest = commands.add_parser(
        "ingest",
        help="reorder unordered arrival feeds behind a watermark "
             "and check the reconstructed stream",
    )
    ingest.add_argument(
        "--schema", required=True, help="schema JSON file"
    )
    ingest.add_argument(
        "--constraints", required=True, help="constraint text file"
    )
    ingest.add_argument(
        "--source", action="append", required=True, metavar="[NAME=]FILE",
        help="arrivals JSONL feed; records may carry a per-record "
             "\"source\" tag, untagged ones get NAME (repeatable)",
    )
    ingest.add_argument(
        "--watermark", type=int, default=0, metavar="W",
        help="disorder bound, in clock units (default: 0 — arrivals "
             "expected in order)",
    )
    ingest.add_argument(
        "--queue-capacity", type=int, default=1024, metavar="N",
        help="bound of the ingest queue (default: 1024)",
    )
    ingest.add_argument(
        "--backpressure", default="block",
        choices=("block", "shed-oldest", "shed-newest"),
        help="full-queue policy (default: block)",
    )
    ingest.add_argument(
        "--fault-policy", default=None,
        choices=("skip", "quarantine"),
        help="step-boundary fault policy for records that clear "
             "ingest but fail checking (default: quarantine)",
    )
    _add_run_options(ingest)
    ingest.set_defaults(handler=_command_ingest)


def _add_run_options(sub) -> None:
    """What ``check`` and ``ingest`` share, declared once."""
    sub.add_argument(
        "--engine", choices=ENGINES, default="incremental",
        help="checking engine (default: incremental)",
    )
    sub.add_argument(
        "--max-lateness", type=int, default=None, metavar="L",
        help="refuse salvageable events trailing the watermark "
             "frontier by more than L (default: salvage whenever "
             "order allows)",
    )
    sub.add_argument(
        "--retry", type=int, default=None, metavar="N",
        help="retry budget for transiently unavailable sources "
             "(capped jittered exponential backoff)",
    )
    sub.add_argument(
        "--skew", action="append", default=None, metavar="NAME=DELTA",
        help="per-source clock offset subtracted on arrival "
             "(repeatable)",
    )
    sub.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a structured JSONL span trace of the run",
    )
    sub.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write a metrics dump (Prometheus text; JSON if the "
             "file ends in .json)",
    )
    sub.add_argument(
        "--quarantine-log", default=None, metavar="FILE",
        help="dead-letter JSONL file for quarantined records and "
             "excluded arrivals (for 'check', implies "
             "--fault-policy quarantine)",
    )
    sub.add_argument(
        "--slo", default=None, metavar="FILE",
        help="SLO spec file (repro-slo/1 JSON); enables event-time "
             "telemetry, evaluates burn-rate alert rules during the "
             "run, and prints fired alerts and budget state",
    )
    sub.add_argument(
        "--health", default=None, metavar="FILE",
        help="write a mergeable health snapshot (repro-health/1 JSON) "
             "after the run; enables event-time telemetry",
    )
    sub.add_argument(
        "--statewatch", action="store_true",
        help="enable the state observatory: per-subformula auxiliary "
             "state accounting with bound-conformance and leak alerts "
             "printed after the run",
    )
    sub.add_argument(
        "--flight", default=None, metavar="FILE",
        help="flight-recorder artifact path (repro-flight/1 JSONL), "
             "dumped on violation, fault, or budget exhaustion "
             "(implies --statewatch)",
    )
    sub.add_argument(
        "--state-out", default=None, metavar="FILE",
        help="write the final state snapshot (repro-state/1 JSON) "
             "after the run (implies --statewatch)",
    )
    sub.add_argument(
        "--max-violations", type=int, default=20,
        help="stop printing after this many violations",
    )
    sub.add_argument(
        "--quiet", action="store_true", help="exit status only"
    )
    sub.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition the run across N supervised shard workers "
             "(requires --shard-key; incremental engine only)",
    )
    sub.add_argument(
        "--shard-key", default=None, metavar="ATTR",
        help="schema attribute that keys the partition "
             "(required with --shards)",
    )
    sub.add_argument(
        "--shard-chaos", default=None, metavar="SPEC",
        help="inject seeded worker faults into the sharded run: "
             "'kills=K[,stalls=S][,seed=N]' (smoke tests; without "
             "a journal, crashed shards tombstone and degrade "
             "instead of recovering)",
    )
    sub.add_argument(
        "--shard-transport", default="inline",
        choices=("inline", "process"),
        help="worker transport for --shards (default: inline)",
    )
    sub.add_argument(
        "--shard-unkeyed", default="reject",
        choices=("reject", "broadcast"),
        help="policy for constraints touching no keyed relation "
             "(default: reject with a diagnostic)",
    )


def _add_lint(commands) -> None:
    lint = commands.add_parser(
        "lint", help="statically analyse a constraint set"
    )
    lint.add_argument(
        "--constraints", default=None,
        help="constraint text file (required unless --list-rules)",
    )
    lint.add_argument(
        "--schema", default=None,
        help="schema JSON file; enables relation/arity/type rules",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--disable", action="append", default=None, metavar="RULE",
        help="disable a rule by code (RTC004) or name "
             "(unsafe-formula); repeatable",
    )
    lint.add_argument(
        "--granularity", type=int, default=1, metavar="G",
        help="clock granularity for interval reachability (RTC006)",
    )
    lint.add_argument(
        "--require-bounded", action="store_true",
        help="treat unbounded past windows (RTC007) as errors",
    )
    lint.add_argument(
        "--urgent", action="append", default=None, metavar="NAME",
        help="urgent-set entry to validate against the constraint "
             "set (RTC011); repeatable",
    )
    lint.add_argument(
        "--journal", action="store_true",
        help="declare that the deployment journals steps (RTC011)",
    )
    lint.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="declared checkpoint cadence to validate (RTC011)",
    )
    lint.add_argument(
        "--state-budget", type=int, default=None, metavar="N",
        help="auxiliary-state tuple budget; enables RTC015",
    )
    lint.add_argument(
        "--shard-key", default=None, metavar="ATTR",
        help="deployment shard-key attribute; enables RTC016 "
             "(requires --schema)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    lint.set_defaults(handler=_command_lint)


def _add_plan(commands) -> None:
    plan = commands.add_parser(
        "plan",
        help="cross-constraint analysis: sharing, subsumption, bounds",
    )
    plan.add_argument(
        "--constraints", required=True,
        help="constraint text file",
    )
    plan.add_argument(
        "--schema", default=None,
        help="schema JSON file; enables shard-admission checks",
    )
    plan.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text); json emits the "
             "repro-plan/1 document",
    )
    plan.add_argument(
        "--state-budget", type=int, default=None, metavar="N",
        help="auxiliary-state tuple budget; enables RTC015",
    )
    plan.add_argument(
        "--shard-key", default=None, metavar="ATTR",
        help="deployment shard-key attribute; enables RTC016 "
             "(requires --schema)",
    )
    plan.add_argument(
        "--relation-size", action="append", default=None,
        metavar="REL=N",
        help="cardinality hint for one relation's active domain; "
             "repeatable",
    )
    plan.add_argument(
        "--default-relation-size", type=int, default=None, metavar="N",
        help="cardinality hint for relations without an explicit "
             "--relation-size (default: 64)",
    )
    plan.set_defaults(handler=_command_plan)


def _add_recover(commands) -> None:
    recover = commands.add_parser(
        "recover", help="restore a crashed --journal run and continue"
    )
    recover.add_argument(
        "--journal", required=True, metavar="DIR",
        help="journal directory written by 'check --journal'",
    )
    recover.add_argument(
        "--history", default=None, metavar="FILE",
        help="full JSONL history; records after the recovered point "
             "are replayed to finish the interrupted run",
    )
    recover.add_argument(
        "--fault-policy", default=None,
        choices=("fail_fast", "skip", "quarantine"),
        help="fault policy for the continued run (as in 'check')",
    )
    recover.add_argument(
        "--max-violations", type=int, default=20,
        help="stop printing after this many violations",
    )
    recover.add_argument(
        "--quiet", action="store_true", help="exit status only"
    )
    recover.set_defaults(handler=_command_recover)


def _add_scrub(commands) -> None:
    scrub = commands.add_parser(
        "scrub",
        help="verify a durable journal directory's checksums; "
             "--repair fixes what it finds",
    )
    scrub.add_argument(
        "directory", metavar="DIR",
        help="journal directory written by 'check --journal' "
             "(a sharded journal root is walked recursively)",
    )
    scrub.add_argument(
        "--repair", action="store_true",
        help="apply the repairs the scrub proposes (truncate torn "
             "tails, drop damaged spares, promote the fallback "
             "generation), then re-checkpoint through a full recovery",
    )
    scrub.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    scrub.add_argument(
        "--quiet", action="store_true", help="exit status only"
    )
    scrub.set_defaults(handler=_command_scrub)


def _add_generate(commands) -> None:
    generate = commands.add_parser(
        "generate", help="materialise a workload to disk"
    )
    generate.add_argument(
        "--workload", choices=WORKLOADS, required=True
    )
    generate.add_argument("--length", type=int, default=100)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--violation-rate", type=float, default=0.05,
        help="misbehaviour rate for domain workloads",
    )
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument(
        "--arrivals", action="store_true",
        help="also write a seeded delivery perturbation of the "
             "history (arrivals.jsonl + ingest.json manifest) for "
             "the 'ingest' subcommand",
    )
    generate.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed for the delivery perturbation (default: 0)",
    )
    generate.add_argument(
        "--chaos-watermark", type=int, default=8, metavar="W",
        help="disorder bound of the perturbation (default: 8)",
    )
    generate.add_argument(
        "--duplicate-rate", type=float, default=0.1, metavar="RATE",
        help="fraction of arrivals replayed (default: 0.1)",
    )
    generate.add_argument(
        "--late-events", type=int, default=0, metavar="N",
        help="events deliberately held back past the watermark "
             "(default: 0; needs --chaos-watermark >= 1)",
    )
    generate.add_argument(
        "--sources", type=int, default=2, metavar="N",
        help="sources the stream is scattered over (default: 2)",
    )
    generate.add_argument(
        "--max-skew", type=int, default=0, metavar="S",
        help="maximum per-source clock skew (default: 0)",
    )
    generate.set_defaults(handler=_command_generate)


def _add_analyze(commands) -> None:
    analyze = commands.add_parser(
        "analyze", help="print constraint compilation profiles"
    )
    analyze.add_argument("--constraints", required=True)
    analyze.add_argument(
        "--verbose", action="store_true",
        help="full per-constraint compilation report",
    )
    analyze.add_argument(
        "--trace", default=None, metavar="FILE",
        help="JSONL trace from 'check --trace'; adds observed "
             "per-constraint runtime columns",
    )
    analyze.set_defaults(handler=_command_analyze)


def _add_stats(commands) -> None:
    stats = commands.add_parser(
        "stats", help="summarise a JSONL trace from 'check --trace'"
    )
    stats.add_argument(
        "--trace", required=True, metavar="FILE",
        help="JSONL trace written by 'check --trace'",
    )
    stats.add_argument(
        "--width", type=int, default=42,
        help="bar width of the latency histogram",
    )
    stats.add_argument(
        "--percentiles", action="store_true",
        help="report p50/p90/p99 latency columns from the trace spans",
    )
    stats.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="JSON metrics dump from 'check --metrics x.json'; adds "
             "event-time stage latency and frontier-lag sections when "
             "the run had telemetry enabled",
    )
    stats.set_defaults(handler=_command_stats)


def _add_health(commands) -> None:
    health = commands.add_parser(
        "health",
        help="validate, merge, and render health snapshots "
             "(repro-health/1 JSON from 'check --health')",
    )
    health.add_argument(
        "snapshots", nargs="+", metavar="SNAPSHOT",
        help="health snapshot file(s); several fold into one as if "
             "a single run had produced them.  The first operand may "
             "be the word 'render': then each following file — a "
             "repro-health/1 or repro-state/1 snapshot — is rendered "
             "individually (no merging, no budget gating, exit 0)",
    )
    health.add_argument(
        "--merge-out", default=None, metavar="FILE",
        help="write the merged snapshot as JSON",
    )
    health.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout rendering (default: text)",
    )
    health.add_argument(
        "--quiet", action="store_true", help="exit status only"
    )
    health.set_defaults(handler=_command_health)


def _add_state(commands) -> None:
    state = commands.add_parser(
        "state",
        help="replay a history under the state observatory: inspect "
             "auxiliary state, watch it grow, rank heavy hitters, or "
             "gate on analytic bounds",
    )
    state.add_argument(
        "mode", choices=("inspect", "watch", "top", "bound-check"),
        help="inspect: final per-subformula accounting snapshot; "
             "watch: running per-step totals; top: heavy-hitter "
             "valuations per subformula; bound-check: exit 1 if any "
             "subformula ever exceeded its analytic tuple bound",
    )
    state.add_argument(
        "--schema", required=True, help="schema JSON file"
    )
    state.add_argument(
        "--constraints", required=True, help="constraint text file"
    )
    state.add_argument(
        "--history", required=True, help="JSONL update stream"
    )
    state.add_argument(
        "--engine", choices=ENGINES, default="incremental",
        help="checking engine (default: incremental)",
    )
    state.add_argument(
        "--every", type=int, default=1, metavar="N",
        help="watch-mode print cadence in steps (default: 1)",
    )
    state.add_argument(
        "--top-k", type=int, default=8, metavar="K",
        help="heavy-hitter valuations reported per subformula "
             "(default: 8)",
    )
    state.add_argument(
        "--sample-every", type=int, default=1, metavar="N",
        help="deep-sample cadence in steps — byte sizes, sketches "
             "(default: 1; production wiring uses 8)",
    )
    state.add_argument(
        "--flight", default=None, metavar="FILE",
        help="also record a flight-recorder artifact "
             "(repro-flight/1 JSONL)",
    )
    state.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the final state snapshot (repro-state/1 JSON)",
    )
    state.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout rendering (default: text)",
    )
    state.set_defaults(handler=_command_state)


def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for doc generation/tests).

    Built from one ``_add_<command>`` function per subcommand; each
    names its handler, and a handler imports what it needs when it
    runs — ``--help`` and ``--version`` import no engine.
    """
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Real-time integrity constraint checking "
        "(Chomicki, PODS 1992 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for add in (
        _add_check,
        _add_ingest,
        _add_lint,
        _add_plan,
        _add_recover,
        _add_scrub,
        _add_generate,
        _add_analyze,
        _add_stats,
        _add_health,
        _add_state,
    ):
        add(commands)
    return parser


def _build_instrumentation(args):
    """Tracer/registry wiring for ``check --trace/--metrics``."""
    if not (args.trace or args.metrics):
        return None, None, None
    from repro.obs import MetricsRegistry, MonitorInstrumentation, Tracer

    tracer = Tracer() if args.trace else None
    registry = MetricsRegistry() if args.metrics else None
    return MonitorInstrumentation(tracer, registry), tracer, registry


def _parse_shard_chaos(spec: str, shards: int, steps: int):
    """Parse ``kills=K[,stalls=S][,seed=N]`` into a chaos plan."""
    from repro.resilience import plan_shard_chaos

    values = {"kills": 2, "stalls": 0, "seed": 0}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, raw = part.partition("=")
        if key not in values or not raw:
            raise ReproError(
                f"bad --shard-chaos component {part!r}; expected "
                f"'kills=K[,stalls=S][,seed=N]'"
            )
        try:
            values[key] = int(raw)
        except ValueError:
            raise ReproError(
                f"--shard-chaos {key} must be an int, got {raw!r}"
            ) from None
    return plan_shard_chaos(shards, steps, **values)


def _check_shard_flags(args) -> None:
    """Reject flag combinations the sharded path cannot honour."""
    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1, got {args.shards}")
    if not args.shard_key:
        raise ReproError("--shards requires --shard-key")
    if args.engine != "incremental":
        raise ReproError(
            "--shards supports only the incremental engine "
            "(each shard worker is one incremental checker)"
        )
    unsupported = [
        ("--trace", args.trace),
        ("--slo", args.slo),
        ("--statewatch", args.statewatch),
        ("--flight", args.flight),
        ("--state-out", args.state_out),
        ("--resume-from", getattr(args, "resume_from", None)),
        ("--save-checkpoint", getattr(args, "save_checkpoint", None)),
    ]
    for flag, value in unsupported:
        if value:
            raise ReproError(
                f"{flag} is not available with --shards; per-worker "
                f"observability lives in the shard journals, and "
                f"recovery goes through the shard manifest "
                f"('recover' on the journal root)"
            )
    if args.health and args.shard_transport != "inline":
        raise ReproError(
            "--health with --shards requires the inline transport"
        )


def _build_sharded_monitor(args, schema, steps: int, journal_root=None):
    """A :class:`~repro.shard.ShardedMonitor` from CLI flags."""
    from repro.shard import ShardedMonitor

    chaos = None
    if args.shard_chaos:
        chaos = _parse_shard_chaos(args.shard_chaos, args.shards, steps)
    instrumentation, tracer, registry = _build_instrumentation(args)
    monitor = ShardedMonitor(
        schema,
        key=args.shard_key,
        shards=args.shards,
        journal_root=journal_root,
        checkpoint_every=(
            getattr(args, "checkpoint_every", None) or 64
        ),
        on_unkeyed=args.shard_unkeyed,
        transport=args.shard_transport,
        chaos=chaos,
        instrumentation=instrumentation,
        fault_policy=args.fault_policy,
        quarantine_log=args.quarantine_log,
    )
    monitor.add_constraints_text(Path(args.constraints).read_text())
    if getattr(args, "step_deadline", None) is not None:
        monitor.set_step_deadline(
            args.step_deadline, urgent=tuple(args.urgent or ())
        )
    return monitor, registry


def _print_shard_summary(monitor) -> None:
    summary = monitor.supervisor.summary()
    acct = monitor.accounting()
    print(
        f"shards: {summary['shards']} ({summary['transport']}), "
        f"crashes: {summary['crashes']}, "
        f"respawns: {summary['respawns']}, "
        f"stall kills: {summary['stall_kills']}, "
        f"replayed: {summary['replayed_steps']}, "
        f"tombstoned: {summary['tombstoned'] or 'none'}"
    )
    print(
        f"accounting: fed {acct['steps_fed']} = "
        f"{acct['verdicts']} verdict(s) + "
        f"{acct['degraded']} degraded + {acct['shed']} shed"
    )


def _write_sharded_health(monitor, args) -> None:
    if not args.health:
        return
    import json as _json

    path = Path(args.health)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json.dumps(monitor.health(), indent=2, sort_keys=True))


def _run_monitor_stream(monitor: Monitor, history):
    """Drive ``monitor`` over a history file.

    With a non-fail-fast fault policy, the file is read *leniently*:
    undecodable lines are routed through the monitor's fault boundary
    (counted, quarantined) instead of aborting the read, and decodable
    records flow on so one bad line costs one step, not the run.
    """
    from repro.core.violations import RunReport
    from repro.db.storage import StreamFault, iter_stream_lenient, load_stream

    _require_file(history, "--history")
    resilience = monitor.resilience
    if resilience is None or resilience.policy.value == "fail_fast":
        return monitor.run(load_stream(history))
    report = RunReport()
    for item in iter_stream_lenient(history):
        if isinstance(item, StreamFault):
            report.add(
                monitor.record_fault(
                    "decode",
                    f"line {item.lineno}: {item.reason}",
                    payload=item.line,
                )
            )
        else:
            report.add(monitor.step(item[0], item[1]))
    return report


def _print_resilience_summary(monitor: Monitor, quarantine_path) -> None:
    resilience = monitor.resilience
    if resilience is None:
        return
    summary = resilience.summary()
    faults = summary["faults"]
    if not faults and not summary["degraded_steps"]:
        return
    parts = [f"{count} {kind}" for kind, count in faults.items()]
    line = (
        f"faults: {', '.join(parts) if parts else 'none'} "
        f"(policy: {summary['policy']}, skipped {summary['skipped']} "
        f"step(s))"
    )
    if summary["quarantined"]:
        line += f"; quarantined {summary['quarantined']} record(s)"
        if quarantine_path:
            line += f" -> {quarantine_path}"
    if summary["degraded_steps"]:
        line += f"; degraded {summary['degraded_steps']} step(s)"
    print(line)


def _enable_cli_telemetry(monitor: Monitor, args) -> None:
    """Arm event-time telemetry when ``--slo``/``--health`` ask for it."""
    if args.slo is None and args.health is None:
        return
    if args.slo is not None:
        _require_file(args.slo, "--slo")
    monitor.enable_telemetry(slo=args.slo)


def _enable_cli_statewatch(monitor: Monitor, args) -> None:
    """Arm the state observatory for ``--statewatch/--flight``."""
    if args.statewatch or args.flight or args.state_out:
        monitor.enable_statewatch(flight=args.flight)


def _print_state_summary(monitor: Monitor, flight_path=None) -> None:
    watch = monitor.statewatch
    if watch is None:
        return
    checker = monitor.checker
    report = watch.bound_report(checker)
    total = sum(entry["tuples"] for entry in report.values())
    print(
        f"state: {total} aux tuple(s) across {len(report)} temporal "
        f"node(s) after {watch.steps_observed} step(s)"
    )
    for label, entry in report.items():
        verdict = (
            "within bound" if entry["within"]
            else f"OVER BOUND ({entry['breaches']} breach step(s))"
        )
        print(
            f"  {label}: {entry['tuples']} tuple(s), "
            f"{entry['valuations']} valuation(s), bound "
            f"{entry['bound']} -> {verdict}"
        )
    for alert in watch.alerts:
        print(f"state alert [{alert.severity}]: {alert!r}")
    flight = watch.flight
    if flight is not None and flight.dump_count:
        print(
            f"flight: {flight.dump_count} dump(s), last reason "
            f"{flight.last_reason!r} -> {flight_path or flight.path}"
        )
    if flight is not None and flight.last_error is not None:
        print(
            f"warning: flight recorder could not write "
            f"{flight.path}: {flight.last_error}",
            file=sys.stderr,
        )


def _write_state_snapshot(monitor: Monitor, args) -> None:
    if not args.state_out:
        return
    from repro.obs import write_state

    try:
        write_state(
            monitor.statewatch.snapshot(monitor.checker), args.state_out
        )
    except OSError as exc:
        raise ReproError(f"cannot write state snapshot: {exc}") from exc


def _write_health_snapshot(monitor: Monitor, args) -> None:
    if not args.health:
        return
    from repro.obs import write_health

    try:
        write_health(monitor.health(), args.health)
    except OSError as exc:
        raise ReproError(f"cannot write health snapshot: {exc}") from exc


def _print_slo_summary(monitor: Monitor) -> None:
    telemetry = monitor.telemetry
    if telemetry is None or telemetry.slo is None:
        return
    engine = telemetry.slo
    for alert in engine.alerts:
        print(
            f"slo alert [{alert.severity}]: {alert.slo} burning "
            f"{alert.burn_rate:.1f}x over {alert.window} step(s) "
            f"(fired at step {alert.step})"
        )
    for entry in engine.summary():
        total = entry["good"] + entry["bad"]
        print(
            f"slo {entry['name']}: {entry['state']} "
            f"(budget {entry['budget_remaining'] * 100:.1f}% remaining, "
            f"{entry['bad']}/{total} bad step(s))"
        )


def _require_file(path, flag: str) -> None:
    """Fail with a clean diagnostic before a lazy reader tracebacks."""
    if not Path(path).is_file():
        raise ReproError(f"cannot read {flag} {path}: no such file")


def _parse_skews(specs) -> Optional[dict]:
    """``--skew NAME=DELTA`` occurrences into a per-source offset map."""
    if not specs:
        return None
    skews = {}
    for spec in specs:
        name, sep, delta = spec.partition("=")
        if not sep or not name:
            raise ReproError(f"--skew wants NAME=DELTA, got {spec!r}")
        try:
            skews[name] = int(delta)
        except ValueError as exc:
            raise ReproError(
                f"--skew delta must be an integer: {spec!r}"
            ) from exc
    return skews


def _parse_source_spec(spec: str, index: int):
    """``--source [NAME=]FILE`` into ``(name, path)``.

    The prefix is only treated as a name when it looks like one (no
    path separators), so ``--source data/a=b.jsonl`` stays a path.
    """
    name, sep, path = spec.partition("=")
    if sep and name and "/" not in name and "\\" not in name:
        return name, path
    return f"feed{index}", spec


def _feed_history(monitor: Monitor, args: argparse.Namespace):
    """Drive ``check --tolerate-disorder`` through the ingest frontier."""
    from repro.db.storage import read_arrivals
    from repro.ingest import IterableSource

    _require_file(args.history, "--history")
    source = IterableSource(
        read_arrivals(args.history), name="history", multiplexed=True
    )
    return monitor.feed(
        [source],
        watermark=args.watermark or 0,
        max_lateness=args.max_lateness,
        skew=_parse_skews(args.skew),
        retry=args.retry,
    )


def _print_ingest_summary(monitor: Monitor, quarantine_path=None) -> None:
    pipeline = monitor.ingest
    if pipeline is None:
        return
    summary = pipeline.summary()
    reorder = summary["reorder"]
    queue = summary["queue"]
    arrivals = (
        reorder["accepted"] + reorder["late"]
        + reorder["duplicates"] + reorder["invalid"]
    )
    line = (
        f"ingest: {arrivals} arrival(s) from "
        f"{len(summary['sources'])} source(s) -> {reorder['emitted']} "
        f"ordered state(s) (watermark {reorder['watermark']})"
    )
    excluded = [
        f"{reorder[key]} {key}"
        for key in ("late", "duplicates", "invalid")
        if reorder[key]
    ]
    if queue["shed"]:
        excluded.append(f"{queue['shed']} shed")
    if excluded:
        line += "; excluded: " + ", ".join(excluded)
        if quarantine_path:
            line += f" -> {quarantine_path}"
    if reorder["merges"]:
        line += f"; {reorder['merges']} same-time merge(s)"
    if reorder["forced"]:
        line += f"; {reorder['forced']} forced emission(s)"
    if summary["retries"]:
        line += f"; {summary['retries']} source retry(ies)"
    if summary["dead_sources"]:
        line += (
            f"; dead source(s): {', '.join(summary['dead_sources'])}"
        )
    print(line)


def _print_violations(report, max_violations: int) -> None:
    from repro.analysis.report import format_table

    rows = []
    for violation in report.violations[:max_violations]:
        witnesses = "; ".join(
            ", ".join(f"{k}={v!r}" for k, v in w.items()) or "(closed)"
            for w in violation.witness_dicts()[:3]
        )
        rows.append(
            [violation.constraint, violation.time, violation.index, witnesses]
        )
    print(
        format_table(
            ["constraint", "time", "state", "witnesses"],
            rows,
            title=f"{report.violation_count} violation(s)",
        )
    )
    remaining = report.violation_count - max_violations
    if remaining > 0:
        print(f"... and {remaining} more")


def _lint_constraint_file(
    constraints_path,
    schema=None,
    config=None,
    urgent: Sequence[str] = (),
    journal: bool = False,
    checkpoint_every: Optional[int] = None,
):
    """Lint a constraint file plus optional monitor configuration.

    The one code path shared by the ``lint`` subcommand and the
    pre-monitoring pass of ``check``.
    """
    from repro.lint import Linter

    linter = Linter(schema, config)
    report, parsed = linter.lint_text(Path(constraints_path).read_text())
    if urgent or checkpoint_every is not None:
        names = [name for name, _formula in parsed]
        report = report.extend(linter.lint_monitor_config(
            names, urgent=urgent, journal=journal,
            checkpoint_every=checkpoint_every,
        ).diagnostics)
    return report


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.db.storage import load_schema
    from repro.lint import RULES, LintConfig

    if args.list_rules:
        print(format_table(
            ["code", "name", "severity", "description"],
            [[r.code, r.name, str(r.default_severity), r.description]
             for r in RULES],
        ))
        return 0
    if not args.constraints:
        raise ReproError("--constraints is required unless --list-rules")
    try:
        config = LintConfig.build(
            disable=args.disable or (),
            clock_granularity=args.granularity,
            require_bounded=args.require_bounded,
            state_budget=args.state_budget,
            shard_key=args.shard_key,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    schema = load_schema(args.schema) if args.schema else None
    report = _lint_constraint_file(
        args.constraints,
        schema=schema,
        config=config,
        urgent=args.urgent or (),
        journal=args.journal,
        checkpoint_every=args.checkpoint_every,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code


#: Lint codes owned by the planner-backed rules.
_PLAN_CODES = frozenset({"RTC013", "RTC014", "RTC015", "RTC016"})


def _parse_relation_sizes(specs) -> dict:
    """Parse repeated ``--relation-size REL=N`` hints."""
    sizes: dict = {}
    for spec in specs or ():
        name, sep, value = spec.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ReproError(
                f"--relation-size expects REL=N, got {spec!r}"
            )
        try:
            count = int(value)
        except ValueError:
            raise ReproError(
                f"--relation-size {spec!r}: {value!r} is not an integer"
            ) from None
        if count < 1:
            raise ReproError(
                f"--relation-size {spec!r}: size must be >= 1"
            )
        sizes[name] = count
    return sizes


def _command_plan(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.plan import build_plan
    from repro.core.bounds import DEFAULT_RELATION_SIZE
    from repro.db.storage import load_schema
    from repro.lint import LintConfig, Linter, LintReport

    try:
        config = LintConfig.build(
            state_budget=args.state_budget,
            shard_key=args.shard_key,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    schema = load_schema(args.schema) if args.schema else None
    relation_sizes = _parse_relation_sizes(args.relation_size)
    default_size = (
        args.default_relation_size
        if args.default_relation_size is not None
        else DEFAULT_RELATION_SIZE
    )
    if default_size < 1:
        raise ReproError("--default-relation-size must be >= 1")
    linter = Linter(schema, config)
    try:
        constraints_text = Path(args.constraints).read_text()
    except OSError as exc:
        raise ReproError(
            f"cannot read constraints {args.constraints}: {exc}"
        ) from exc
    full_report, parsed = linter.lint_text(constraints_text)
    report = LintReport(
        [d for d in full_report if d.code in _PLAN_CODES]
    )
    plan = build_plan(parsed, relation_sizes, default_size)
    if args.format == "json":
        document = plan.to_dict()
        document["diagnostics"] = [d.to_dict() for d in report]
        print(json.dumps(document, indent=2))
    else:
        print(plan.render_text())
        if report:
            print(f"diagnostics ({len(report)}):")
            print(report.render_text())
    return report.exit_code


def _command_check(args: argparse.Namespace) -> int:
    from repro.core.monitor import Monitor
    from repro.db.storage import load_schema, load_stream

    sharded = args.shards is not None
    if not sharded and (args.shard_key or args.shard_chaos):
        raise ReproError(
            "--shard-key/--shard-chaos require --shards"
        )
    tolerant = bool(
        args.tolerate_disorder
        or args.watermark is not None
        or args.max_lateness is not None
        or args.skew
        or args.retry is not None
    )
    if sharded:
        if tolerant:
            raise ReproError(
                "--shards does not combine with the disorder-tolerant "
                "check flags; use 'ingest --shards' for unordered feeds"
            )
        if not args.schema or not args.constraints:
            raise ReproError("--shards requires --schema and --constraints")
        _check_shard_flags(args)
        if args.shard_chaos and args.fault_policy is None:
            # chaos without a policy would raise on the first tombstone
            # alert; quarantine keeps the degraded-mode ledger visible
            args.fault_policy = "quarantine"
    elif tolerant and not args.fault_policy and not args.quarantine_log:
        # disorder tolerance is pointless if the first surviving fault
        # aborts the run; default the step boundary to quarantine too
        args.fault_policy = "quarantine"
    tracer = None
    if args.resume_from:
        instrumentation, tracer, registry = _build_instrumentation(args)
        monitor = Monitor.resume(args.resume_from)
        monitor.instrument(instrumentation)
        monitor.set_fault_policy(args.fault_policy, args.quarantine_log)
        if args.step_deadline is not None:
            monitor.set_step_deadline(args.step_deadline, args.urgent or ())
    else:
        if not args.schema or not args.constraints:
            raise ReproError(
                "--schema and --constraints are required unless "
                "--resume-from is given"
            )
        schema = load_schema(args.schema)
        if not args.no_lint:
            lint_report = _lint_constraint_file(
                args.constraints,
                schema=schema,
                urgent=args.urgent or (),
                journal=bool(args.journal),
                checkpoint_every=args.checkpoint_every,
            )
            if lint_report and not args.quiet:
                print(f"lint ({len(lint_report)} diagnostic(s)):")
                print(lint_report.render_text())
        if sharded:
            _require_file(args.history, "--history")
            stream = list(load_stream(args.history))
            monitor, registry = _build_sharded_monitor(
                args, schema, steps=len(stream), journal_root=args.journal
            )
        else:
            instrumentation, tracer, registry = _build_instrumentation(args)
            monitor = Monitor(
                schema,
                engine=args.engine,
                instrumentation=instrumentation,
                fault_policy=args.fault_policy,
                quarantine_log=args.quarantine_log,
                step_deadline=args.step_deadline,
                urgent=args.urgent or (),
            )
            monitor.add_constraints_text(Path(args.constraints).read_text())
    if not sharded:
        _enable_cli_telemetry(monitor, args)
        _enable_cli_statewatch(monitor, args)
        if args.journal:
            monitor.enable_journal(
                args.journal,
                checkpoint_every=(
                    args.checkpoint_every
                    if args.checkpoint_every is not None else 64
                ),
            )
    try:
        if sharded:
            report = monitor.run(stream)
        elif tolerant:
            report = _feed_history(monitor, args)
        else:
            report = _run_monitor_stream(monitor, args.history)
    finally:
        _close_run(monitor)
    if args.save_checkpoint:
        monitor.save(args.save_checkpoint)
    _write_run_outputs(monitor, args, tracer, registry)
    return _report_run(monitor, args, report)


def _is_sharded(monitor) -> bool:
    from repro.core.monitor import Monitor  # loaded: a monitor exists

    return not isinstance(monitor, Monitor)


def _close_run(monitor) -> None:
    """Release what a finished (or failed) run holds open."""
    if _is_sharded(monitor):
        monitor.close()
    elif monitor.journal is not None:
        monitor.journal.close()
    if (
        monitor.resilience is not None
        and monitor.resilience.quarantine is not None
    ):
        monitor.resilience.quarantine.close()


def _write_run_outputs(monitor, args, tracer, registry) -> None:
    """The artefacts ``check``/``ingest`` write after the stream."""
    try:
        if tracer is not None:
            tracer.dump_jsonl(args.trace)
        if registry is not None:
            from repro.obs import write_metrics

            write_metrics(registry, args.metrics)
    except OSError as exc:
        raise ReproError(f"cannot write telemetry: {exc}") from exc
    if _is_sharded(monitor):
        _write_sharded_health(monitor, args)
    else:
        _write_health_snapshot(monitor, args)
        _write_state_snapshot(monitor, args)


def _report_run(monitor, args, report) -> int:
    """Print what ``check``/``ingest`` print; the exit status."""
    if args.quiet:
        return 0 if report.ok else 1
    sharded = _is_sharded(monitor)
    engine_note = (
        f"sharded x{args.shards}, key: {args.shard_key}"
        if sharded else f"engine: {args.engine}"
    )
    print(
        f"checked {len(report)} states with "
        f"{len(monitor.constraints)} constraint(s) "
        f"[{engine_note}]"
    )
    _print_ingest_summary(monitor, args.quarantine_log)
    if sharded:
        _print_shard_summary(monitor)
    _print_resilience_summary(monitor, args.quarantine_log)
    if not sharded:
        _print_slo_summary(monitor)
        _print_state_summary(monitor, args.flight)
    if report.ok:
        print("no violations")
        return 0
    _print_violations(report, args.max_violations)
    return 1


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.core.monitor import Monitor
    from repro.db.storage import load_schema, read_arrivals
    from repro.ingest import IterableSource

    sharded = args.shards is not None
    if not sharded and (args.shard_key or args.shard_chaos):
        raise ReproError(
            "--shard-key/--shard-chaos require --shards"
        )
    schema = load_schema(args.schema)
    tracer = None
    feeds = [
        _parse_source_spec(spec, index)
        for index, spec in enumerate(args.source)
    ]
    if sharded:
        args.fault_policy = args.fault_policy or "quarantine"
        _check_shard_flags(args)
        arrivals = 0
        for _, path in feeds:
            _require_file(path, "--source")
            with open(path) as fh:
                arrivals += sum(1 for _ in fh)
        monitor, registry = _build_sharded_monitor(
            args, schema, steps=arrivals
        )
    else:
        instrumentation, tracer, registry = _build_instrumentation(args)
        monitor = Monitor(
            schema,
            engine=args.engine,
            instrumentation=instrumentation,
            fault_policy=args.fault_policy or "quarantine",
            quarantine_log=args.quarantine_log,
        )
        monitor.add_constraints_text(Path(args.constraints).read_text())
        _enable_cli_telemetry(monitor, args)
        _enable_cli_statewatch(monitor, args)
    sources = []
    for name, path in feeds:
        _require_file(path, "--source")
        sources.append(IterableSource(
            read_arrivals(path, default_source=name),
            name=name, multiplexed=True,
        ))
    try:
        report = monitor.feed(
            sources,
            watermark=args.watermark,
            max_lateness=args.max_lateness,
            skew=_parse_skews(args.skew),
            retry=args.retry,
            queue_capacity=args.queue_capacity,
            backpressure=args.backpressure,
        )
    finally:
        _close_run(monitor)
    _write_run_outputs(monitor, args, tracer, registry)
    return _report_run(monitor, args, report)


def _command_health(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        load_health,
        merge_health,
        render_health_text,
        write_health,
    )

    if args.snapshots and args.snapshots[0] == "render":
        return _render_snapshots(args)
    docs = [load_health(path) for path in args.snapshots]
    merged = merge_health(docs)
    if args.merge_out:
        try:
            write_health(merged, args.merge_out)
        except OSError as exc:
            raise ReproError(
                f"cannot write merged snapshot: {exc}"
            ) from exc
    exhausted = [
        entry["name"] for entry in merged["slo"]
        if entry["state"] == "exhausted"
    ]
    if not args.quiet:
        if args.format == "json":
            print(json.dumps(merged, indent=2, sort_keys=True))
        else:
            if len(docs) > 1:
                print(f"merged {len(docs)} snapshot(s)")
            print(render_health_text(merged))
    if exhausted:
        if not args.quiet:
            print(
                f"FAIL: SLO budget(s) exhausted: {', '.join(exhausted)}",
                file=sys.stderr,
            )
        return 1
    return 0


def _render_snapshots(args: argparse.Namespace) -> int:
    """``health render SNAP...``: render snapshots without merging.

    Accepts both ``repro-health/1`` and ``repro-state/1`` documents —
    the two snapshot families share the same render discipline — and
    never gates on budget state (always exit 0).
    """
    import json

    from repro.obs import (
        STATE_VERSION,
        load_health,
        render_health_text,
        render_state_text,
        validate_state,
    )

    paths = args.snapshots[1:]
    if not paths:
        raise ReproError("health render wants at least one snapshot file")
    for path in paths:
        _require_file(path, "snapshot")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"cannot read snapshot {path}: {exc}"
            ) from exc
        if isinstance(raw, dict) and raw.get("version") == STATE_VERSION:
            doc, render = validate_state(raw), render_state_text
        else:
            doc, render = load_health(path), render_health_text
        if args.quiet:
            continue
        if args.format == "json":
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render(doc))
    return 0


def _command_state(args: argparse.Namespace) -> int:
    import json

    from repro.core.monitor import Monitor
    from repro.db.storage import load_schema, load_stream
    from repro.obs import render_state_text, write_state

    schema = load_schema(args.schema)
    monitor = Monitor(schema, engine=args.engine)
    monitor.add_constraints_text(Path(args.constraints).read_text())
    watch = monitor.enable_statewatch(
        sample_every=args.sample_every,
        top_k=args.top_k,
        flight=args.flight,
    )
    _require_file(args.history, "--history")
    if args.every < 1:
        raise ReproError("--every must be >= 1")
    violations = 0
    for time, txn in load_stream(args.history):
        report = monitor.step(time, txn)
        violations += len(report.violations)
        if args.mode == "watch" and watch.steps_observed % args.every == 0:
            checker = monitor.checker
            print(
                f"t={time} step={watch.steps_observed}: "
                f"{checker.aux_tuple_count()} aux tuple(s), "
                f"{checker.aux_valuation_count()} valuation(s), "
                f"{sum(watch.bound_breaches.values())} breach step(s)"
            )
    snapshot = watch.snapshot(monitor.checker)
    if args.out:
        try:
            write_state(snapshot, args.out)
        except OSError as exc:
            raise ReproError(
                f"cannot write state snapshot: {exc}"
            ) from exc
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.mode == "top":
        hitters = snapshot["heavy_hitters"]
        if not any(hitters.values()):
            print("no heavy hitters (no auxiliary valuations sampled)")
        for label, entries in hitters.items():
            if not entries:
                continue
            print(f"node {label}:")
            for entry in entries[: args.top_k]:
                shown = ", ".join(repr(v) for v in entry["valuation"])
                print(
                    f"  ({shown}): weight {entry['weight']} "
                    f"(error <= {entry['error']})"
                )
    elif args.mode == "bound-check":
        for label, entry in snapshot["bounds"].items():
            verdict = (
                "within bound" if entry["within"]
                else f"OVER BOUND ({entry['breaches']} breach step(s))"
            )
            print(
                f"{label}: {entry['tuples']} tuple(s) vs bound "
                f"{entry['bound']} -> {verdict}"
            )
    else:
        print(render_state_text(snapshot))
    if args.mode == "watch" and violations:
        print(f"{violations} violation(s) during replay")
    if args.mode == "bound-check":
        breached = sum(watch.bound_breaches.values())
        if breached:
            print(
                f"FAIL: analytic bound exceeded on {breached} step(s)",
                file=sys.stderr,
            )
            return 1
        print("all temporal nodes stayed within their analytic bounds")
    return 0


def _command_recover(args: argparse.Namespace) -> int:
    from repro.core.violations import RunReport
    from repro.db.storage import load_stream
    from repro.shard.monitor import MANIFEST_NAME

    if (Path(args.journal) / MANIFEST_NAME).is_file():
        # the journal root of a 'check --shards' run: every shard
        # recovers from its own journal, in shard order
        from repro.shard import ShardedMonitor

        monitor, info = ShardedMonitor.recover(args.journal)
        times = [str(r["checkpoint_time"]) for r in info["recoveries"]]
        checkpoint = (
            f"checkpoints at t={', '.join(times)} ({len(times)} shards)"
        )
        replayed = sum(r["replayed"] for r in info["recoveries"])
    else:
        from repro.core.monitor import Monitor

        monitor, result = Monitor.recover(args.journal)
        checkpoint = f"checkpoint at t={result.checkpoint_time}"
        replayed = result.journal_entries
    monitor.set_fault_policy(args.fault_policy)
    if not args.quiet:
        print(
            f"recovered from {args.journal}: {checkpoint}, replayed "
            f"{replayed} journal record(s), now at t={monitor.now}"
        )
    # replayed violations were already reported before the crash; the
    # verdict covers only states checked for the first time here
    if not args.history:
        _close_run(monitor)
        return 0
    _require_file(args.history, "--history")
    resumed_at = monitor.now
    continued = RunReport()
    for t, txn in load_stream(args.history):
        if resumed_at is not None and t <= resumed_at:
            continue  # already covered by checkpoint + journal
        continued.add(monitor.step(t, txn))
    _close_run(monitor)
    if not args.quiet:
        print(
            f"continued over {len(continued)} remaining state(s) "
            f"from {args.history}"
        )
    if args.quiet:
        return 0 if continued.ok else 1
    if continued.ok:
        print("no new violations")
        return 0
    _print_violations(continued, args.max_violations)
    return 1


def _command_scrub(args: argparse.Namespace) -> int:
    import json

    from repro.core.persist import RunJournal
    from repro.core.persist import recover as _recover
    from repro.errors import RecoveryError
    from repro.store import (
        SYNC_FORCE,
        find_store_directories,
        repair_tree,
        scrub_tree,
    )

    root = Path(args.directory)
    if not root.is_dir():
        raise ReproError(f"scrub: no such directory: {root}")
    stores = find_store_directories(root)
    if not stores:
        raise ReproError(
            f"scrub: no durable store under {root} (expected the "
            f"checkpoint/segment layout written by 'check --journal')"
        )

    report = scrub_tree(root)
    payload = {"scrub": report.to_dict()}
    if not args.quiet and args.format == "text":
        print(
            f"scrub {root}: {report.files_checked} file(s), "
            f"{report.records_verified} record(s) verified, "
            f"{len(report.findings)} finding(s)"
        )
        for finding in report.findings:
            print(
                f"  {finding.path}: {finding.kind} — {finding.detail} "
                f"(repair: {finding.repair})"
            )
    if report.clean:
        if not args.quiet and args.format == "text":
            print("clean")
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not args.repair:
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if report.repairable else 2

    repair = repair_tree(root)
    payload["repair"] = repair.to_dict()
    if not args.quiet and args.format == "text":
        for path, action in repair.actions:
            print(f"  repaired {path}: {action}")
        for finding in repair.unrepaired:
            print(f"  UNREPAIRED {finding.path}: {finding.kind}")

    # file-level surgery done; re-checkpoint through a full recovery so
    # the directory regains its generation redundancy (a promoted
    # fallback leaves no spare until the next checkpoint commits)
    recovered = []
    failures = []
    for directory in stores:
        try:
            result = _recover(directory)
            journal = RunJournal(directory, sync=SYNC_FORCE)
            try:
                journal.attach(result.checker)
            finally:
                journal.close()
            recovered.append(
                {
                    "directory": str(directory),
                    "checkpoint_time": result.checkpoint_time,
                    "journal_entries": result.journal_entries,
                    "torn_records": result.torn_records,
                }
            )
        except (RecoveryError, ReproError) as exc:
            failures.append({"directory": str(directory), "error": str(exc)})
    payload["recovered"] = recovered
    payload["failures"] = failures

    ok = repair.complete and not failures
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.quiet:
        for entry in recovered:
            print(
                f"  re-checkpointed {entry['directory']}: recovered to "
                f"t={entry['checkpoint_time']}, replayed "
                f"{entry['journal_entries']} record(s)"
            )
        for entry in failures:
            print(f"  FAILED {entry['directory']}: {entry['error']}")
        print("repaired" if ok else "unrepairable damage remains")
    return 0 if ok else 2


def _command_generate(args: argparse.Namespace) -> int:
    from repro import workloads
    from repro.db.storage import dump_schema, dump_stream

    factory = getattr(workloads, f"{args.workload}_workload")
    if args.workload == "random":
        workload = factory()
    else:
        workload = factory(violation_rate=args.violation_rate)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_schema(workload.schema, out / "schema.json")
    stream = list(workload.stream(args.length, seed=args.seed))
    dump_stream(stream, out / "history.jsonl")
    constraint_text = "\n".join(
        f"{c.name}: {c.formula};" for c in workload.constraints
    )
    (out / "constraints.txt").write_text(constraint_text + "\n")
    print(
        f"wrote {args.workload} workload ({args.length} transitions, "
        f"seed {args.seed}) to {out}/"
    )
    if args.arrivals:
        import json

        from repro.db.storage import dump_arrivals
        from repro.resilience import plan_ingest_chaos

        try:
            plan = plan_ingest_chaos(
                stream,
                seed=args.chaos_seed,
                watermark=args.chaos_watermark,
                duplicate_rate=args.duplicate_rate,
                late_events=args.late_events,
                sources=args.sources,
                max_skew=args.max_skew,
            )
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        dump_arrivals(plan.arrivals, out / "arrivals.jsonl")
        (out / "ingest.json").write_text(
            json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(
            f"wrote perturbed delivery ({len(plan.arrivals)} "
            f"arrival(s), watermark {plan.watermark}, "
            f"{len(plan.expected_late)} late, "
            f"{plan.expected_duplicates} replay(s)) to "
            f"{out}/arrivals.jsonl (+ ingest.json manifest)"
        )
    # generated sets must be lint-clean; surface anything that is not
    lint_report = workload.lint()
    if lint_report.warnings or lint_report.errors:
        print(f"lint ({len(lint_report)} diagnostic(s)):")
        print(lint_report.render_text())
        return lint_report.exit_code
    return 0


def _constraint_trace_stats(events) -> dict:
    """Per-constraint observed figures from ``evaluate`` spans."""
    stats: dict = {}
    for event in events:
        if event.get("name") != "evaluate":
            continue
        entry = stats.setdefault(
            event.get("constraint"),
            {
                "evals": 0, "seconds": 0.0, "max": 0.0,
                "violations": 0, "durations": [],
            },
        )
        entry["evals"] += 1
        entry["seconds"] += event.get("duration", 0.0)
        entry["max"] = max(entry["max"], event.get("duration", 0.0))
        entry["violations"] += event.get("violations", 0)
        entry["durations"].append(event.get("duration", 0.0))
    return stats


def _load_trace(path) -> list:
    """Read a JSONL trace, mapping I/O and parse failures to ReproError."""
    from repro.obs import read_trace

    try:
        return read_trace(path)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read trace {path}: {exc}") from exc


def _command_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.core.bounds import profile
    from repro.core.checker import Constraint
    from repro.core.parser import parse_constraints

    text = Path(args.constraints).read_text()
    observed = {}
    if args.trace:
        observed = _constraint_trace_stats(_load_trace(args.trace))
    rows = []
    for name, formula in parse_constraints(text):
        try:
            constraint = Constraint(name, formula)
        except ReproError as exc:
            rows.append([name, "UNSAFE", None, None, None, str(exc)[:60]])
            continue
        if args.verbose:
            from repro.core.explain import explain

            print(explain(constraint))
            print()
            continue
        prof = profile(constraint.violation_formula)
        horizon = "*" if prof.horizon is None else prof.horizon
        row = [
            name,
            "ok",
            prof.temporal_nodes,
            prof.temporal_depth,
            horizon,
            str(formula)[:60],
        ]
        if args.trace:
            entry = observed.get(name)
            row += (
                [
                    entry["evals"],
                    round(entry["seconds"] / entry["evals"] * 1e6, 1),
                    entry["violations"],
                ]
                if entry
                else [0, None, None]
            )
        rows.append(row)
    if rows or not args.verbose:
        headers = ["constraint", "status", "nodes", "depth", "horizon",
                   "formula"]
        if args.trace:
            headers += ["evals", "mean us", "violations"]
        print(format_table(headers, rows))
    return 0


def _format_seconds(seconds: float) -> str:
    """Human-scale duration for histogram bucket labels."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:g}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:g}ms"
    return f"{seconds:g}s"


def _json_hist_quantile(entry: dict, q: float):
    """Quantile estimate from a JSON-dump histogram series entry."""
    count = entry.get("count", 0)
    if not count:
        return None
    rank = q * count
    previous = 0
    last_finite = None
    for bucket in entry.get("buckets", []):
        bound = bucket["le"]
        if bound == "+Inf":
            break
        last_finite = bound
        if bucket["count"] >= rank and bucket["count"] > previous:
            return bound
        previous = bucket["count"]
    return last_finite


def _print_event_time_sections(path, percentiles: bool) -> None:
    """Event-time stage/lag tables from a JSON metrics dump."""
    import json

    from repro.analysis.report import format_table
    from repro.obs.telemetry import EVENT_FRONTIER_LAG, STAGE_FAMILIES

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(
            f"cannot read metrics dump {path} (need the .json form): {exc}"
        ) from exc
    families = {f.get("name"): f for f in doc.get("metrics", [])}
    quantiles = (0.5, 0.9, 0.99) if percentiles else (0.5, 0.95)
    rows = []
    for stage, family_name in STAGE_FAMILIES.items():
        family = families.get(family_name)
        if family is None or not family.get("series"):
            continue
        entry = family["series"][0]
        if not entry.get("count"):
            continue
        row = [stage, entry["count"],
               round(entry["sum"] / entry["count"] * 1e6, 1)]
        for q in quantiles:
            bound = _json_hist_quantile(entry, q)
            row.append(None if bound is None else round(bound * 1e6, 1))
        rows.append(row)
    if rows:
        print()
        print(format_table(
            ["stage", "events", "mean us"]
            + [f"p{int(q * 100)} us" for q in quantiles],
            rows,
            title="event-time stage latency (arrival -> verdict)",
        ))
    lag = families.get(EVENT_FRONTIER_LAG)
    if lag is not None and lag.get("series"):
        entry = lag["series"][0]
        if entry.get("count"):
            parts = [
                f"p{int(q * 100)} {_json_hist_quantile(entry, q)}"
                for q in quantiles
            ]
            print(
                f"\nwatermark frontier lag: {', '.join(parts)} "
                f"clock unit(s) over {entry['count']} sample(s)"
            )


def _command_stats(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_plot import bar_chart
    from repro.analysis.report import format_table
    from repro.obs import DEFAULT_LATENCY_BUCKETS, percentile

    events = _load_trace(args.trace)
    if not events:
        # an empty trace is a valid (if dull) run record, not an error
        print(f"no spans recorded in {args.trace}")
        return 0
    steps = [e for e in events if e.get("name") == "step"]
    if not steps:
        print(f"no step spans in {args.trace}")
        return 0
    durations = sorted(e.get("duration", 0.0) for e in steps)
    total = sum(durations)
    engines = sorted({e.get("engine") for e in steps if e.get("engine")})
    violations = sum(e.get("violations", 0) for e in steps)
    quantiles = (50, 90, 99) if args.percentiles else (50, 95)
    print(
        format_table(
            ["steps", "engine", "total ms", "mean us"]
            + [f"p{q} us" for q in quantiles]
            + ["max us", "violating steps"],
            [[
                len(durations),
                ",".join(engines) or "-",
                round(total * 1e3, 2),
                round(total / len(durations) * 1e6, 1),
            ] + [
                round(percentile(durations, q) * 1e6, 1) for q in quantiles
            ] + [
                round(durations[-1] * 1e6, 1),
                sum(1 for e in steps if e.get("violations", 0)),
            ]],
            title=f"trace summary ({violations} violation(s) reported)",
        )
    )

    per_constraint = _constraint_trace_stats(events)
    if per_constraint:
        headers = ["constraint", "evals", "mean us"]
        if args.percentiles:
            headers += [f"p{q} us" for q in (50, 90, 99)]
        headers += ["max us", "violations"]
        rows = []
        for name, entry in sorted(per_constraint.items()):
            row = [
                name,
                entry["evals"],
                round(entry["seconds"] / entry["evals"] * 1e6, 1),
            ]
            if args.percentiles:
                row += [
                    round(percentile(entry["durations"], q) * 1e6, 1)
                    for q in (50, 90, 99)
                ]
            row += [round(entry["max"] * 1e6, 1), entry["violations"]]
            rows.append(row)
        print()
        print(
            format_table(
                headers,
                rows,
                title="per-constraint evaluation",
            )
        )

    # fixed-bucket latency histogram over the non-empty range
    counts = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
    for duration in durations:
        for i, bound in enumerate(DEFAULT_LATENCY_BUCKETS):
            if duration <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    labels = [
        "<=" + _format_seconds(b) for b in DEFAULT_LATENCY_BUCKETS
    ] + [">" + _format_seconds(DEFAULT_LATENCY_BUCKETS[-1])]
    populated = [i for i, c in enumerate(counts) if c]
    lo, hi = populated[0], populated[-1]
    print()
    print(
        bar_chart(
            labels[lo:hi + 1],
            counts[lo:hi + 1],
            width=args.width,
            title="step latency distribution",
        )
    )
    if args.metrics:
        _print_event_time_sections(args.metrics, args.percentiles)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_arg_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
