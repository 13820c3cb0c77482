"""Seeded traffic for the benchmark: one generator, three shapes.

``fleet(K, d)`` is a plant of ``K`` resident sensors over the
``repro.workloads.sensors`` schema and its three constraints.  Step 0
bulk-loads a reading for every sensor; every later step lets ``d``
randomly chosen sensors *report* — their level is re-rolled by the same
Markov chain as ``sensors._Plant``, they are serviced with probability
0.05 and raise a spurious alarm with probability 0.02 — while every
other reading stays resident.  Alarms are rule-consistent as in
``_Plant``: raised exactly while the three constraints permit them, so
only spurious alarms can violate.  State is therefore about ``K``
readings plus the standing alarms, and the delta is proportional to
``d``; both are stationary, which is what lets a workload hold |delta|
fixed while the state grows.

The program under test receives only the ``(time, Transaction)`` pairs.
Generation draws from one ``random.Random(seed)`` and never iterates a
set, so a stream depends on ``(K, d, steps, seed)`` alone — not on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, NamedTuple, Tuple

from repro.db.transactions import Transaction
from repro.workloads.sensors import SCHEMA  # noqa: F401  (re-exported)

JUSTIFY_WINDOW = 10
SUSTAIN_FOR = 5
COOLDOWN = 3
SPURIOUS_RATE = 0.02
MAINTENANCE_RATE = 0.05
MAX_GAP = 2

#: the three constraints of ``repro.workloads.sensors``, as text: the
#: benchmark's set-up parses them, and the generator above them must
#: agree with their windows
CONSTRAINTS = (
    ("alarm-justified",
     f"alarm(s) -> ONCE[0,{JUSTIFY_WINDOW}] reading(s, 2)"),
    ("sustained-high",
     f"alarm(s) -> (EXISTS l. reading(s, l) AND l >= 1) "
     f"SINCE[{SUSTAIN_FOR},*] reading(s, 2)"),
    ("cooldown",
     f"alarm(s) -> NOT ONCE[1,{COOLDOWN}] maintenance(s)"),
)

Step = Tuple[int, Transaction]


class Shape(NamedTuple):
    """One traffic shape: ``sensors`` resident, ``reports`` per step."""

    sensors: int
    reports: int


#: tiny state, tiny delta — fixed per-step overhead dominates
SHAPE_A = Shape(8, 4)
#: large state, the same small delta — the O(state) gap shows here
SHAPE_B = Shape(400, 4)
#: every sensor rewritten every step — writes dominate
SHAPE_C = Shape(48, 48)


def _resident_level(roll: float) -> int:
    """A level drawn from the chain's stationary distribution (9 : 18 :
    14), so that the bulk load starts a run in the regime it stays in;
    loaded at level 0, shape B would take a thousand steps to get there."""
    return 0 if roll < 9 / 41 else (1 if roll < 27 / 41 else 2)


def _next_level(level: int, roll: float) -> int:
    """The level chain of ``sensors._Plant``."""
    if level == 0:
        return 1 if roll < 0.30 else 0
    if level == 1:
        return 2 if roll < 0.35 else (0 if roll > 0.85 else 1)
    return 2 if roll < 0.55 else 1


def fleet(shape: Shape, steps: int, seed: int) -> List[Step]:
    """Generate ``steps`` timed transactions of ``shape`` from ``seed``."""
    sensors, reports = shape
    rng = random.Random(seed)
    level = [0] * sensors
    critical_since: Dict[int, int] = {}   # first level-2 state of the
                                          # current run of levels >= 1
    last_critical: Dict[int, int] = {}    # newest state that was level 2
    last_maintenance: Dict[int, int] = {}
    alarmed = [False] * sensors
    serviced: List[int] = []              # maintenance rows of the last state
    out: List[Step] = []
    time = previous_time = 0
    everyone = range(sensors)
    for index in range(steps):
        reporting = (
            everyone if index == 0
            else sorted(rng.sample(everyone, reports))
        )
        ins: Dict[str, List[tuple]] = {
            "reading": [], "alarm": [], "maintenance": []
        }
        dels: Dict[str, List[tuple]] = {
            "reading": [], "alarm": [],
            "maintenance": [(s,) for s in serviced],
        }
        serviced = []
        spurious = set()
        for s in reporting:
            old = level[s]
            if index == 0:
                new = _resident_level(rng.random())
                ins["reading"].append((s, new))
            else:
                new = _next_level(old, rng.random())
            if new != old and index:
                dels["reading"].append((s, old))
                ins["reading"].append((s, new))
                if old == 2:
                    last_critical[s] = previous_time
            level[s] = new
            if new == 2:
                critical_since.setdefault(s, time)
            elif new == 0:
                critical_since.pop(s, None)
            if rng.random() < MAINTENANCE_RATE:
                serviced.append(s)
                last_maintenance[s] = time
            if rng.random() < SPURIOUS_RATE:
                spurious.add(s)
        # a row deleted and re-inserted in one step is no change
        unchanged = set(dels["maintenance"]).intersection(
            (s,) for s in serviced
        )
        dels["maintenance"] = [
            r for r in dels["maintenance"] if r not in unchanged
        ]
        ins["maintenance"] = [
            (s,) for s in serviced if (s,) not in unchanged
        ]
        serviced_now = set(serviced)
        for s in everyone:
            if s in spurious:
                alarm = True
            else:
                crit = critical_since.get(s)
                recent = time if level[s] == 2 else last_critical.get(s)
                alarm = (
                    crit is not None
                    and time - crit >= SUSTAIN_FOR
                    and recent is not None
                    and time - recent <= JUSTIFY_WINDOW
                    and s not in serviced_now
                    and (
                        s not in last_maintenance
                        or time - last_maintenance[s] > COOLDOWN
                    )
                )
            if alarm != alarmed[s]:
                (ins if alarm else dels)["alarm"].append((s,))
                alarmed[s] = alarm
        out.append((time, Transaction(ins, dels)))
        previous_time = time
        time += rng.randint(1, MAX_GAP)
    return out


def stream_bytes(stream: List[Step]) -> bytes:
    """Canonical serialisation (the determinism self-test compares it)."""
    lines = []
    for time, txn in stream:
        record = {"t": time}
        record.update(txn.to_dict())
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines).encode()


def stream_digest(stream: List[Step]) -> str:
    """blake2s of :func:`stream_bytes`."""
    return hashlib.blake2s(stream_bytes(stream)).hexdigest()


def traffic_stats(stream: List[Step]) -> Dict[str, float]:
    """State rows and delta rows per step, by replaying row counts.

    Step 0 (the bulk load) is left out of the delta mean: it is set-up
    traffic, not the stationary regime.
    """
    rows = 0
    state_sum = 0
    delta_sum = 0
    for index, (_, txn) in enumerate(stream):
        inserted = sum(len(r) for r in txn.inserts.values())
        deleted = sum(len(r) for r in txn.deletes.values())
        rows += inserted - deleted
        state_sum += rows
        if index:
            delta_sum += inserted + deleted
    n = len(stream)
    return {
        "steps": n,
        "state_rows_mean": state_sum / n,
        "delta_rows_per_step": delta_sum / max(1, n - 1),
    }
