"""The hot path's cost model, asserted by counting — no timing.

Per-step work must be a function of the delta and of the valuations
crossing a window bound, never of the resident state.  Two plants are
driven with *the same* four reporting sensors; one keeps 46 further
sensors resident, the other 796, all of them at the critical level so
that they sit in every operand table and in every auxiliary relation.
Rows validated by ``apply``, view evaluations, affected keys,
auxiliary runs visited, candidates tested for survival and plans
compiled must then be equal, step for step.

Counting Python-level visits cannot see a C built-in that copies a
resident set or index, so the allocation side is asserted too: the
memory a settled step takes at its peak, the blocks it leaves allocated
and the size of every container it constructs are the delta's.
"""

import gc
import io
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from repro.core import auxiliary, views
from repro.core.checker import IncrementalChecker
from repro.db import algebra
from repro.db.schema import RelationSchema
from repro.db.transactions import Transaction
from repro.workloads import sensors

REPORTING = 4
STEPS = 60
#: by this step every anchor loaded at step 0 has crossed the low bound
#: of ``SINCE[5,*]`` — a one-off cost of the bulk load, proportional to
#: it, and not part of the steady regime compared below
SETTLED = 8


def plant_stream(resident: int, seed: int = 7):
    """``resident`` idle critical sensors plus four that report."""
    rng = random.Random(seed)
    sensors_total = REPORTING + resident
    level = {s: 2 if s >= REPORTING else 0 for s in range(sensors_total)}
    alarmed, serviced = set(), set()
    time = 0
    yield time, Transaction({"reading": sorted(level.items())}, {})
    for _ in range(STEPS):
        time += rng.randint(1, 2)
        ins = {"reading": [], "alarm": [], "maintenance": []}
        dels = {"reading": [], "alarm": [], "maintenance": []}
        for s in range(REPORTING):
            new = rng.choice([0, 1, 2, 2])
            if new != level[s]:
                dels["reading"].append((s, level[s]))
                ins["reading"].append((s, new))
                level[s] = new
            for relation, members, rate in (
                ("alarm", alarmed, 0.3), ("maintenance", serviced, 0.2),
            ):
                wanted = rng.random() < rate
                if wanted != (s in members):
                    (ins if wanted else dels)[relation].append((s,))
                    (members.add if wanted else members.discard)(s)
        yield time, Transaction(ins, dels)


def drive(resident: int, monkeypatch):
    """Per-step work counts and verdicts of one plant."""
    validated = 0
    validate_rows = RelationSchema.validate_rows

    def counting(self, rows):
        nonlocal validated
        validated += len(rows)
        return validate_rows(self, rows)

    checker = IncrementalChecker(sensors.SCHEMA, sensors.constraints())
    rows, verdicts = [], []
    before = checker.work_counters()
    with monkeypatch.context() as patch:
        patch.setattr(RelationSchema, "validate_rows", counting)
        for time, txn in plant_stream(resident):
            validated = 0
            report = checker.step(time, txn)
            after = checker.work_counters()
            rows.append(dict(
                {name: after[name] - before[name] for name in after},
                validated=validated,
            ))
            before = after
            verdicts.append([
                (v.constraint, sorted(v.witnesses.rows))
                for v in report.violations
            ])
    return rows, verdicts, checker


def test_per_step_work_does_not_depend_on_the_resident_state(monkeypatch):
    small, small_verdicts, _ = drive(46, monkeypatch)
    large, large_verdicts, checker = drive(796, monkeypatch)
    assert small_verdicts == large_verdicts
    assert any(small_verdicts), "the traffic must violate sometimes"
    assert small[SETTLED:] == large[SETTLED:]
    steady = large[SETTLED:]
    # and the work is the delta's: a handful of rows (each checked
    # once, by the transaction, before any relation changes), keys and
    # runs
    assert max(row["validated"] for row in steady) <= 4 * REPORTING
    assert max(row["view_keys"] for row in steady) <= 8 * REPORTING
    assert max(row["bound_visits"] for row in steady) <= 4 * REPORTING
    assert max(row["survival_checks"] for row in steady) <= 4 * REPORTING
    assert sum(row["view_keys"] for row in steady) > 0
    assert sum(row["bound_visits"] for row in steady) > 0
    assert sum(row["survival_checks"] for row in steady) > 0
    # nothing is planned per step: a plan is compiled the first time a
    # formula meets a context header (the last one here when a view
    # first re-evaluates single keys), as many for the small plant as
    # for the large one, and then never again
    assert not any(row["plans_compiled"] for row in large[STEPS // 2:])
    assert checker.work_counters()["plans_compiled"] == sum(
        row["plans_compiled"] for row in small
    ) <= 2 * len(checker._views)
    # while the state the work did not scale with really is resident
    assert checker.state.total_rows >= 796
    assert checker.aux_tuple_count() > 796


def test_bulk_load_is_the_only_step_that_scales(monkeypatch):
    rows, _, _ = drive(796, monkeypatch)
    assert rows[0]["validated"] >= 796
    # the loaded anchors cross SINCE's low bound once, together
    assert sum(row["bound_visits"] for row in rows[:SETTLED]) >= 796


#: a step of either plant may leave this many more blocks allocated, and
#: take this many more bytes at its peak, than the same step of the
#: other: sets of different sizes are rehashed at different steps.  One
#: copy of an 800-row set or of an index over it is 32 KiB and more.
BLOCK_SLACK = 16
PEAK_SLACK = 8 * 1024


def allocations(resident: int):
    """Per step: blocks left allocated, bytes at the peak."""
    checker = IncrementalChecker(sensors.SCHEMA, sensors.constraints())
    rows = []
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for time, txn in plant_stream(resident):
            blocks = sys.getallocatedblocks()
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            checker.step(time, txn)
            rows.append((
                sys.getallocatedblocks() - blocks,
                tracemalloc.get_traced_memory()[1] - held,
            ))
    finally:
        tracemalloc.stop()
        gc.enable()
    return rows


def test_a_settled_step_allocates_the_same_whatever_is_resident():
    small, large = allocations(46), allocations(796)
    assert large[0][1] > 10 * small[0][1], "the bulk load does scale"
    for step in range(SETTLED, STEPS + 1):
        (small_blocks, small_peak), (large_blocks, large_peak) = (
            small[step], large[step]
        )
        assert abs(large_blocks - small_blocks) <= BLOCK_SLACK, step
        assert abs(large_peak - small_peak) <= PEAK_SLACK, step


def test_no_settled_step_constructs_a_container_of_the_state(monkeypatch):
    """Every ``set``/``frozenset``/``dict``/``list`` call on the step
    path makes something the size of the delta, never of a resident
    set or index."""
    made = []

    def spy(kind):
        def construct(*args):
            container = kind(*args)
            made.append(len(container))
            return container
        return construct

    checker = IncrementalChecker(sensors.SCHEMA, sensors.constraints())
    stream = list(plant_stream(796))
    for time, txn in stream[:SETTLED]:
        checker.step(time, txn)
    for module in (algebra, views, auxiliary):
        for kind in (set, frozenset, dict, list):
            monkeypatch.setattr(module, kind.__name__, spy(kind), raising=False)
    for time, txn in stream[SETTLED:]:
        checker.step(time, txn)
    assert made and max(made) <= 4 * REPORTING


def test_a_standing_witness_set_is_not_copied_per_step(monkeypatch):
    """A report keeps the witnesses as they are: a frozen copy of the
    view's table, made once per version of it.  With 5,000 standing
    witnesses and an unrelated one-row delta, the first violated step
    copies them and no later step copies a witness row."""
    from repro.core.checker import Constraint
    from repro.db import DatabaseSchema

    standing = 5000
    schema = DatabaseSchema.from_dict(
        {"r": ["k", "v"], "s": ["k"], "other": ["k"]}
    )
    checker = IncrementalChecker(
        schema, [Constraint("c", "r(k, v) -> NOT s(k)")]
    )
    witnesses = checker._constraint_views[0]
    copied = []
    real = frozenset

    def copying(rows=()):
        if rows is witnesses.table.rows:
            copied[-1] += len(rows)
        return real(rows)

    monkeypatch.setattr(algebra, "frozenset", copying, raising=False)
    stream = [(0, Transaction({
        "r": [(k, k % 7) for k in range(standing)],
        "s": [(k,) for k in range(standing)],
    }))] + [
        (t, Transaction({"other": [(t,)]}) if t % 2
         else Transaction({}, {"other": [(t - 1,)]}))
        for t in range(1, 21)
    ]
    for time, txn in stream:
        copied.append(0)
        report = checker.step(time, txn)
        assert report.violations[0].witness_count == standing
    assert copied == [standing] + [0] * 20


# ----------------------------------------------------------------------
# Python frames entered per step: an exact count
# ----------------------------------------------------------------------

FLEET_STEPS = 400
FLEET_SEED = 1992


def frames_per_step(shape_name):
    """``(frames entered, delta rows)`` per step over the second half of
    the benchmark's stream of one of its shapes (``SHAPE_A``: 8 sensors
    of which 4 report per step, ``SHAPE_C``: 48 sensors all rewritten
    every step): every ``call`` event ``sys.setprofile`` reports, i.e.
    every Python function, lambda, comprehension and generator
    resumption — built-ins raise none."""
    from perfbench import loadgen

    checker = IncrementalChecker(sensors.SCHEMA, sensors.constraints())
    stream = loadgen.fleet(
        getattr(loadgen, shape_name), FLEET_STEPS, FLEET_SEED
    )
    settled = FLEET_STEPS // 2
    for time, txn in stream[:settled]:
        checker.step(time, txn)
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(count)
    try:
        for time, txn in stream[settled:]:
            checker.step(time, txn)
    finally:
        sys.setprofile(None)
    measured = FLEET_STEPS - settled
    rows = sum(txn.size for _, txn in stream[settled:])
    return frames / measured, rows / measured


@pytest.fixture(scope="module")
def frame_readings():
    return frames_per_step("SHAPE_A"), frames_per_step("SHAPE_C")


def test_frames_per_step_follow_the_batches_not_the_rows(frame_readings):
    """A frame is entered per relation, leaf or view of a step, not per
    delta row: the parent of the change that made it so entered 291 and
    929 frames a step on the two shapes, 13.2 per extra delta row.  A
    view whose formula has one of the kernel shapes (a forwarded leaf,
    a key-aligned conjunction, a probed existential) refreshes in one
    frame and a patch: 213.39 and 285.73 frames a step before they had
    one, 123.425 and 157.32 since."""
    (small, small_rows), (full, full_rows) = frame_readings
    assert full_rows > 10 * small_rows
    assert small <= 124 and full <= 158
    assert (full - small) / (full_rows - small_rows) <= 1


def test_the_frame_count_is_exact(frame_readings):
    """The same count from run to run and under any string hashing,
    which is what lets a single pair of runs resolve a change in it."""
    code = (
        "import sys; sys.path[:0] = ['src', '.']\n"
        "from tests.core.test_cost_model import frames_per_step\n"
        "print((frames_per_step('SHAPE_A'), frames_per_step('SHAPE_C')))"
    )
    readings = {repr(frame_readings)}
    for seed in ("0", "1992"):
        readings.add(subprocess.run(
            [sys.executable, "-c", code],
            env={
                "PYTHONHASHSEED": seed, "PYTHONDONTWRITEBYTECODE": "1",
                "PATH": os.environ.get("PATH", ""),
            },
            cwd=Path(__file__).resolve().parents[2],
            capture_output=True, text=True, check=True,
        ).stdout.strip())
    assert len(readings) == 1, readings


# ----------------------------------------------------------------------
# What the journal adds to a step: exact counts
# ----------------------------------------------------------------------

JOURNAL_STEPS = 512
CHECKPOINT_EVERY = 64


class _CountingEnviron:
    """``os.environ`` with every lookup counted."""

    def __init__(self, environ):
        self._environ = environ
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return self._environ.get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return self._environ[key]

    def __contains__(self, key):
        self.lookups += 1
        return key in self._environ

    def __getattr__(self, name):
        return getattr(self._environ, name)


def _counting_open(writes):
    """An ``open`` whose files count the ``write`` calls that reach the
    descriptor, by the first letters of the file's name."""

    class CountingFile(io.FileIO):
        def write(self, data):
            writes[self.kind] += 1
            return super().write(data)

    def counting_open(path, mode):
        raw = CountingFile(path, mode)
        raw.kind = str(path).rpartition(os.sep)[2][:3]
        return io.BufferedWriter(raw)

    return counting_open


def journal_counts():
    """What a segment journal (a checkpoint every 64 records, flush
    only) adds to ``Monitor.step`` on shape A, per step over the second
    half of the stream — four checkpoints in 256 steps, so they are in
    at their amortised share: Python frames entered (journaled run
    minus bare run), frames of ``pathlib``, ``os.environ`` lookups, and
    the ``write`` calls reaching a segment or the checkpoint file."""
    from perfbench import loadgen
    from repro.core.monitor import Monitor
    from repro.store import segment

    stream = loadgen.fleet(loadgen.SHAPE_A, JOURNAL_STEPS, FLEET_SEED)
    settled = JOURNAL_STEPS // 2
    measured = JOURNAL_STEPS - settled
    writes = Counter()
    environ = _CountingEnviron(os.environ)
    frames = {}
    pathlib_frames = 0

    def count(frame, event, arg):
        nonlocal pathlib_frames
        filename = frame.f_code.co_filename
        if event == "call" and filename != __file__:  # not the spies
            frames[journaled] += 1
            if "pathlib" in filename:
                pathlib_frames += 1

    for journaled in (False, True):
        monitor = Monitor(sensors.SCHEMA)
        for constraint in sensors.constraints():
            monitor.add_constraint(constraint.name, constraint.formula)
        frames[journaled] = 0
        with tempfile.TemporaryDirectory() as scratch:
            segment.open = _counting_open(writes)
            try:
                if journaled:
                    monitor.enable_journal(
                        scratch, checkpoint_every=CHECKPOINT_EVERY,
                        sync=False,
                    )
                for time, txn in stream[:settled]:
                    monitor.step(time, txn)
                writes.clear()
                # a collection would run whatever finalizers the
                # process has pending: frames that are not the step's
                gc.collect()
                gc.disable()
                os.environ = environ
                sys.setprofile(count)
                try:
                    for time, txn in stream[settled:]:
                        monitor.step(time, txn)
                finally:
                    sys.setprofile(None)
                    os.environ = environ._environ
                    gc.enable()
            finally:
                del segment.open
                if journaled:
                    monitor.journal.close()
    return {
        "frames": (frames[True] - frames[False]) / measured,
        "pathlib_frames": pathlib_frames,
        "environ_lookups": environ.lookups,
        "segment_writes": writes["wal"] / measured,
        "checkpoint_writes": writes["che"] / (measured // CHECKPOINT_EVERY),
    }


@pytest.fixture(scope="module")
def journal_readings():
    return journal_counts()


def test_the_journal_adds_a_fixed_handful_of_frames(journal_readings):
    """Record and checkpoint together, amortised: the parent of the
    change that framed a record once entered 36.14 more frames a step."""
    assert 0 < journal_readings["frames"] <= 14


def test_nothing_fixed_is_looked_up_again(journal_readings):
    """No environment variable is read and no ``Path`` built per record
    or per checkpoint: what they decide is fixed when the store is."""
    assert journal_readings["environ_lookups"] == 0
    assert journal_readings["pathlib_frames"] == 0


def test_a_record_is_written_once(journal_readings, tmp_path, monkeypatch):
    """One ``write`` reaches the segment per appended record, one the
    checkpoint file per checkpoint, and one the segment per group
    commit however many records the group holds."""
    from repro.store import SegmentStore, segment

    assert journal_readings["segment_writes"] == 1
    assert journal_readings["checkpoint_writes"] == 1
    writes = Counter()
    monkeypatch.setattr(
        segment, "open", _counting_open(writes), raising=False
    )
    with SegmentStore(tmp_path / "s") as store:
        for t in range(5):
            store.write({"t": t})
        assert not writes
        store.commit()
        assert writes == {"wal": 1}
        store.append({"t": 5})
        assert writes == {"wal": 2}
        assert [r["t"] for r in store.load().records] == list(range(6))


def test_the_journal_counts_are_exact(journal_readings):
    code = (
        "import sys; sys.path[:0] = ['src', '.']\n"
        "from tests.core.test_cost_model import journal_counts\n"
        "print(journal_counts())"
    )
    readings = {repr(journal_readings)}
    for seed in ("0", "1992"):
        readings.add(subprocess.run(
            [sys.executable, "-c", code],
            env={
                "PYTHONHASHSEED": seed, "PYTHONDONTWRITEBYTECODE": "1",
                "PATH": os.environ.get("PATH", ""),
            },
            cwd=Path(__file__).resolve().parents[2],
            capture_output=True, text=True, check=True,
        ).stdout.strip())
    assert len(readings) == 1, readings
