"""The correctness check: the verdict table is the contract.

Untimed.  A direct workload's first verdicts must equal the reference
point semantics (the ``naive`` engine); a shell workload's whole table
must equal the bare incremental run over the same clean steps,
``StepReport ==``, witnesses included, and its accounting identities
must hold with nothing late, invalid, degraded or shed.  For the
default seed and length the digest of the whole table is pinned: a
changed digest is a failure, not a refresh.
"""

from __future__ import annotations

import hashlib
from typing import List, NamedTuple, Optional

from perfbench.loadgen import Step
from perfbench.workloads import (
    REPLAYED_RECORDS, Outcome, Workload, build_monitor,
)


class Verdict(NamedTuple):
    """Result of checking one run."""

    attempted: int
    failed: int
    problems: List[str]
    digest: str

    @property
    def correct(self) -> bool:
        return self.failed == 0


def verdict_digest(reports: list) -> str:
    """blake2s over the whole verdict table, in a canonical spelling.

    Witness tables are equal up to column order, so columns are sorted
    and rows aligned to them before hashing.
    """
    digest = hashlib.blake2s()
    for report in reports:
        parts = [f"{report.time}|{report.index}|{report.deferred}"]
        for violation in report.violations:
            table = violation.witnesses
            columns = sorted(table.columns)
            order = [table.columns.index(c) for c in columns]
            rows = sorted(tuple(r[i] for i in order) for r in table.rows)
            parts.append(f"{violation.constraint}{columns}{rows}")
        digest.update("|".join(parts).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def oracle_reports(stream: List[Step]) -> list:
    """The reference point semantics over ``stream``."""
    oracle = build_monitor(engine="naive")
    return [oracle.step(time, txn) for time, txn in stream]


def mismatches(got: list, want: list) -> int:
    """Positions where the two verdict tables differ (missing ones too)."""
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def check(workload: Workload, stream: List[Step], outcome: Outcome,
          reference: list, pinned: Optional[str]) -> Verdict:
    """Check one run.

    ``reference`` is the bare run (shell workloads); ``pinned`` the
    digest this run's verdict table must have, when it is a pinned run.
    """
    reports = outcome.reports
    facts = outcome.facts
    problems: List[str] = []

    def identity(name: str, got, want) -> None:
        if got != want:
            problems.append(f"{name}: {got!r}, expected {want!r}")

    if workload.oracle_steps:
        prefix = stream[:workload.oracle_steps]
        failed = mismatches(reports[:len(prefix)], oracle_reports(prefix))
        identity("verdicts produced", len(reports), len(stream))
    else:
        failed = mismatches(reports, reference)
    if workload.kind == "ingest":
        reorder = facts["ingest"]["reorder"]
        identity(
            "accepted + late + duplicates + invalid",
            reorder["accepted"] + reorder["late"] + reorder["duplicates"]
            + reorder["invalid"],
            facts["arrivals"],
        )
        identity("late", reorder["late"], 0)
        identity("invalid", reorder["invalid"], 0)
        identity("forced emissions", reorder["forced"], 0)
        identity("queue shed", facts["ingest"]["queue"]["shed"], 0)
        identity("faults", facts["faults"]["faults"], {})
    elif workload.kind == "durable":
        recovery = facts["recovery"]
        identity("replayed records", recovery.journal_entries,
                 REPLAYED_RECORDS)
        identity("torn records", recovery.torn_records, 0)
        failed += mismatches(
            list(recovery.replayed), reference[-REPLAYED_RECORDS:]
        )
    elif workload.kind == "sharded":
        ledger = facts["accounting"]
        identity("steps_fed", ledger["steps_fed"], len(stream))
        identity(
            "verdicts + degraded + shed",
            ledger["verdicts"] + ledger["degraded"] + ledger["shed"],
            ledger["steps_fed"],
        )
        identity("degraded", ledger["degraded"], 0)
        identity("shed", ledger["shed"], 0)
        identity("worker crashes", facts["supervisor"]["crashes"], 0)
    digest = verdict_digest(reports)
    if pinned is not None:
        identity("verdict digest", digest, pinned)
    attempted = len(stream)
    if problems:
        failed = attempted  # a broken identity taints every verdict
    return Verdict(attempted, min(failed, attempted), problems, digest)
