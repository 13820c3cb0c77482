"""Auxiliary relations: the paper's bounded history encoding.

For every temporal subformula the incremental checker maintains one
:class:`AuxiliaryState` summarising exactly the part of the past that
subformula can still refer to:

``PREV[I] f``
    the satisfying valuations of ``f`` at the previous state, plus the
    previous timestamp — one state of lookback, by definition.

``ONCE[I] f``
    a map *valuation → anchor timestamps* at which ``f`` held for that
    valuation.  With a finite upper bound ``b``, anchors older than
    ``b`` clock units are pruned — they can never fall inside the
    window again.  With ``b = ∞`` only the *minimal* anchor timestamp
    matters (if any anchor is old enough, the oldest one is), so one
    integer per valuation suffices.

``f SINCE[I] g``
    a map *valuation → surviving anchor timestamps*: anchors are
    created when ``g`` holds and *survive* a new state only if ``f``
    holds there for that valuation.  Pruning is as for ``ONCE``; with
    ``b = ∞`` the minimum is again enough because all anchors of one
    valuation survive or die together.

In every case, satisfaction *now* at time ``t`` reduces to the test
``min(anchors) <= t - low`` (all stored anchors already satisfy
``t - ts <= high`` thanks to pruning), and the state carried across
steps depends only on the data and the metric horizon — never on the
history length.  That is the paper's central claim, and
:meth:`AuxiliaryState.tuple_count` is how the experiments measure it.

The relation is the paper's; how it is *held* is chosen so that a step
costs what changed, not what is stored.  A valuation that satisfies the
anchor formula at consecutive states owns one anchor per state, so its
timestamps are stored as *runs* over the shared axis of step times
(``[first, last]``, still open while it keeps holding) rather than one
entry per state: a resident valuation costs nothing per step, and a
step touches only the valuations entering or leaving the operand, the
runs whose start crosses ``t - low`` (an entry queue) and the runs
whose end crosses ``t - high`` (an expiry queue).  The virtual table is
the state's own and is patched in place by exactly those crossings,
which is also the delta it reports upward
(:meth:`repro.db.algebra.Table.delta_since`); operand tables are read
the same way, by the version they were at the step before.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from sys import getsizeof
from typing import (
    Callable, Collection, Deque, Dict, Iterable, Iterator, List, Optional,
    Set, Tuple,
)

from repro.core.formulas import Formula, Once, Prev, Since
from repro.core.intervals import Interval
from repro.db.algebra import UNCHANGED, Delta, Table
from repro.db.types import Row
from repro.errors import MonitorError
from repro.temporal.clock import Timestamp

#: Evaluates a child formula at the current state, optionally relative
#: to a context table; supplied by the checker during an update step.
EvalFn = Callable[..., Table]


def _header(formula: Formula) -> Tuple[str, ...]:
    """Canonical column order for a formula's satisfaction table."""
    return tuple(sorted(formula.free_vars))


def deep_size(obj) -> int:
    """Approximate deep byte size of a container of plain values.

    Walks dicts, lists, tuples, sets, and frozensets (the shapes the
    auxiliary encodings are built from), summing ``sys.getsizeof`` over
    every distinct object reached.  Shared objects are counted once, so
    the figure is a footprint, not a sum of views.
    """
    seen = set()
    stack = [obj]
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
    return total


class AuxiliaryState:
    """Base class of per-temporal-subformula auxiliary state."""

    #: the temporal node this state encodes
    formula: Formula
    #: the checkpoint spelling of the state's kind
    kind: str
    #: stored runs touched so far because a window bound passed them
    #: (entries into ``t - low``, expiries past ``t - high``); PREV has
    #: no window to maintain
    bound_visits = 0
    #: stored candidates examined so far for whether they survive the
    #: new state; only SINCE has a survival test
    survival_checks = 0

    def advance(self, time: Timestamp, evaluate_now: EvalFn) -> Table:
        """Process one new state; return the node's virtual table.

        Args:
            time: the new state's timestamp (strictly increasing).
            evaluate_now: evaluates kernel formulas at the *new* state
                (deeper temporal nodes resolve to their new virtual
                tables); accepts an optional context table.

        Returns:
            The satisfying valuations of the temporal node at ``time``:
            a table the state goes on patching at later steps, so a
            caller that keeps it past the step takes a ``snapshot()``.
        """
        raise NotImplementedError

    def dump(self) -> Dict[str, object]:
        """The state as a JSON-able checkpoint entry (``type`` plus the
        stored relation; derived structures are not part of it)."""
        raise NotImplementedError

    def load(self, entry: Dict[str, object]) -> None:
        """Replace the state by a :meth:`dump` entry, rebuilding every
        derived structure.

        Raises:
            MonitorError: the entry is of another kind of state.
        """
        raise NotImplementedError

    def _check_kind(self, entry: Dict[str, object]) -> None:
        if entry.get("type") != self.kind:
            raise MonitorError("auxiliary state kind mismatch")

    def anchors_of(self, valuation: Row) -> Optional[List[Timestamp]]:
        """The stored evidence for one valuation: its anchor timestamps
        (oldest first), or ``None`` when nothing is stored for it."""
        raise NotImplementedError

    def tuple_count(self) -> int:
        """Stored (valuation, timestamp) entries — the space measure."""
        raise NotImplementedError

    def valuation_count(self) -> int:
        """Distinct stored valuations."""
        raise NotImplementedError

    def oldest_anchor(self) -> Optional[Timestamp]:
        """Timestamp of the oldest retained anchor, or ``None``."""
        raise NotImplementedError

    def payload_bytes(self) -> int:
        """Approximate deep byte size of the stored encoding."""
        raise NotImplementedError

    def iter_valuations(self) -> Iterator[Tuple[Row, int]]:
        """Yield ``(valuation, stored-entry count)`` pairs."""
        raise NotImplementedError

    def state_profile(self, deep: bool = True) -> Dict[str, object]:
        """Uniform accounting snapshot of this auxiliary state.

        This is the per-node unit of the engine-level ``state_profile``
        protocol (see :mod:`repro.core.statespace`).  Keys are stable:

        - ``kind``: the encoding class name;
        - ``tuples`` / ``valuations``: the space measures;
        - ``bytes``: approximate deep size, or ``None`` when ``deep``
          is false (byte walking is the expensive part, so samplers
          can skip it on the hot path);
        - ``oldest``: oldest retained anchor timestamp (staleness
          anchor), or ``None`` when nothing is stored.
        """
        return {
            "kind": type(self).__name__,
            "tuples": self.tuple_count(),
            "valuations": self.valuation_count(),
            "bytes": self.payload_bytes() if deep else None,
            "oldest": self.oldest_anchor(),
        }


class PrevState(AuxiliaryState):
    """Auxiliary state for ``PREV[I] f``.

    The operand's table is patched in place by its owner, so last
    step's cannot be had by holding on to it: the state keeps a table
    of its own one patch behind the operand — the operand at the
    previous state, which is the virtual table while a step runs — and
    the change that brings it up to date when the next step begins.
    """

    __slots__ = (
        "formula", "_last_time", "_table", "_pending", "_operand", "_empty",
    )
    kind = "prev"

    def __init__(self, formula: Prev):
        self.formula = formula
        self._last_time: Optional[Timestamp] = None
        self._empty = Table.empty(_header(formula))
        self._hold(Table.owned(_header(formula), ()))

    def _hold(self, table: Table) -> None:
        """Start over from the operand's ``table`` at the latest state."""
        self._table = table
        #: what turns ``_table`` into the operand at the latest state
        self._pending: Delta = UNCHANGED
        #: mark of the operand's table as last read (the latest state)
        self._operand = table.mark()

    def advance(self, time: Timestamp, evaluate_now: EvalFn) -> Table:
        table = self._table
        table.patch(*self._pending)
        if (
            self._last_time is not None
            and self.formula.interval.contains(time - self._last_time)
        ):
            virtual = table
        else:
            virtual = self._empty
        # the *new* state's operand table becomes next step's answer
        operand = evaluate_now(self.formula.operand).project(table.columns)
        self._pending = operand.delta_since(self._operand) or (
            operand.rows - table.rows, table.rows - operand.rows
        )
        self._operand = operand.mark()
        self._last_time = time
        return virtual

    @property
    def _last_table(self) -> Table:
        """The operand at the latest state (its owner's table: read it
        before the next step)."""
        return self._operand[0]

    def dump(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "last_time": self._last_time,
            "columns": list(self._last_table.columns),
            "rows": sorted(
                [list(r) for r in self._last_table.rows], key=repr
            ),
        }

    def load(self, entry: Dict[str, object]) -> None:
        self._check_kind(entry)
        self._last_time = entry["last_time"]
        self._hold(Table.owned(
            tuple(entry["columns"]), [tuple(r) for r in entry["rows"]]
        ))

    def anchors_of(self, valuation: Row) -> Optional[List[Timestamp]]:
        # one state of lookback: the operand either held at the last
        # state (for a closed operand: held at all) or it did not
        rows = self._last_table.rows
        held = valuation in rows if self._last_table.columns else bool(rows)
        return [self._last_time] if held else None

    def tuple_count(self) -> int:
        return len(self._last_table)

    def valuation_count(self) -> int:
        return len(self._last_table)

    def oldest_anchor(self) -> Optional[Timestamp]:
        # one state of lookback: the previous timestamp, if any rows
        # are retained for it
        if self._last_table.is_empty:
            return None
        return self._last_time

    def payload_bytes(self) -> int:
        return deep_size(self._last_table.rows)

    def iter_valuations(self) -> Iterator[Tuple[Row, int]]:
        for row in self._last_table.rows:
            yield row, 1


class _Run:
    """One valuation's anchors at consecutive states: every step time
    from ``start`` to ``end`` (``None`` while the run is still open)."""

    __slots__ = ("valuation", "start", "end", "entered", "alive")

    def __init__(self, valuation: Row, start: Timestamp):
        self.valuation = valuation
        self.start = start
        self.end: Optional[Timestamp] = None
        #: ``start`` has reached ``t - low``: the run can satisfy
        self.entered = False
        #: still stored (not expired, not killed by SINCE survival)
        self.alive = True


class _AnchorMap:
    """Shared valuation → anchor-timestamps store for ONCE and SINCE.

    The stored relation is the paper's: with a finite upper bound,
    every (valuation, timestamp) at which the anchor formula held and
    that is at most ``high`` old; with an infinite one, the minimal
    timestamp per valuation (``collapse_unbounded``) or, in the E9
    ablation, all of them.  Timestamps of one valuation at consecutive
    states are held as one :class:`_Run`; :meth:`anchors_of`,
    :meth:`dump` and the counts spell the relation out again.

    Per step, :meth:`observe` is told which valuations entered and left
    the anchor formula's table and touches only those, plus the runs
    crossing the two window bounds.  ``visited`` counts the runs
    touched by that bound maintenance (the cost-model tests read it).

    A valuation is *satisfied* when it has an anchor at least ``low``
    old.  Runs reach ``t - low`` oldest first, so that is whether the
    oldest of its stored runs has: nothing is counted per valuation.
    What a step may have changed is noted by valuation (``_crossed``,
    and ``_restocked`` for whether it is stored at all) and told apart
    only when the consumer asks, one batch a step.
    """

    __slots__ = (
        "interval", "collapse_unbounded", "visited",
        "_keeps_all", "_bounded", "_runs", "_open", "_entering", "_expiring",
        "_times", "_counts", "_count", "_orphans", "_crossed", "_restocked",
    )

    def __init__(self, interval: Interval, collapse_unbounded: bool = True):
        self.interval = interval
        #: ablation switch: with False, unbounded intervals keep every
        #: anchor timestamp instead of only the minimum — semantics are
        #: unchanged (satisfaction still tests the minimum) but space
        #: grows with the history, which is exactly what the E9
        #: ablation experiment demonstrates the collapse prevents.
        self.collapse_unbounded = collapse_unbounded
        self.visited = 0
        #: every timestamp is stored (else only each valuation's first)
        self._keeps_all = interval.is_bounded or not collapse_unbounded
        self._bounded = interval.is_bounded
        #: valuations first stored, or stored no longer, since
        #: :meth:`take_stored_delta` last asked; noted only once
        #: :meth:`follow_stored` said that somebody will ask
        self._restocked: Optional[Set[Row]] = None
        self._reset()

    def _reset(self) -> None:
        #: stored valuations -> their runs, oldest first
        self._runs: Dict[Row, List[_Run]] = {}
        #: valuations holding at the latest state -> their open run
        self._open: Dict[Row, _Run] = {}
        #: runs whose start has not reached ``t - low`` yet, by start
        self._entering: Deque[_Run] = deque()
        #: closed runs awaiting ``end < t - high``, by end
        self._expiring: Deque[_Run] = deque()
        #: the step times that can still carry anchors, and how many
        #: anchors each carries (only when every timestamp is stored)
        self._times: List[Timestamp] = []
        self._counts: List[int] = []
        self._count = 0
        #: valuations killed since the last observe(): re-anchored by
        #: it if the anchor formula still holds for them
        self._orphans: List[Row] = []
        #: valuations a run of which reached ``t - low``, expired or
        #: was removed since :meth:`take_satisfied_delta` last asked
        self._crossed: Set[Row] = set()
        if self._restocked is not None:
            self._restocked = set()

    # -- the per-step protocol ------------------------------------------

    def follow_stored(self) -> None:
        """Note from now on which valuations become or stop being
        stored, for a consumer that asks :meth:`take_stored_delta`
        every step (a record nobody empties would grow with the
        history)."""
        self._restocked = set()

    def remove_all(self, valuations: Collection[Row]) -> None:
        """Drop every anchor of each of ``valuations`` (SINCE survival
        failed for them)."""
        keeps_all = self._keeps_all
        for valuation in valuations:
            for run in self._runs.pop(valuation):
                run.alive = False
                if keeps_all:
                    first, last = self._span(run)
                    for k in range(first, last):
                        self._counts[k] -= 1
                    self._count -= last - first
            if not keeps_all:
                self._count -= 1
            self._open.pop(valuation, None)
        self._orphans.extend(valuations)
        self._crossed.update(valuations)
        if self._restocked is not None:
            self._restocked.update(valuations)

    def observe(
        self,
        time: Timestamp,
        holding: "frozenset[Row]",
        entered: Optional[Iterable[Row]],
        left: Iterable[Row] = (),
    ) -> None:
        """Fold one new state in.

        Args:
            time: the new state's timestamp.
            holding: the valuations for which the anchor formula holds
                at the new state.
            entered: those of them that did not hold at the previous
                state (extra rows are harmless); ``None`` when the
                previous table is unknown, in which case every row of
                ``holding`` is looked at once.
            left: valuations that held at the previous state and no
                longer do.
        """
        keeps_all, bounded = self._keeps_all, self._bounded
        runs_of, opened = self._runs, self._open
        entering, crossed = self._entering, self._crossed
        restocked = self._restocked
        if entered is None:
            entered = holding
            left = [v for v in opened if v not in holding]
        if keeps_all:
            previous = self._times[-1] if self._times else None
            for valuation in left:
                run = opened.pop(valuation, None)
                if run is not None:
                    run.end = previous
                    if bounded:
                        self._expiring.append(run)
        if self._orphans:
            entered = list(entered) + [
                v for v in self._orphans if v in holding
            ]
            self._orphans = []
        # the anchor formula holds for these now: a stored valuation
        # whose open run covers this state, or of which only the
        # minimum matters, needs nothing
        immediate = self.interval.low == 0
        for valuation in entered:
            runs = runs_of.get(valuation)
            if runs is None:
                runs = runs_of[valuation] = []
                if restocked is not None:
                    restocked.add(valuation)
                if not keeps_all:
                    self._count += 1
            elif not keeps_all or valuation in opened:
                continue
            run = _Run(valuation, time)
            runs.append(run)
            if keeps_all:
                opened[valuation] = run
            if immediate:
                run.entered = True
                crossed.add(valuation)
            else:
                entering.append(run)
        if keeps_all:
            anchored = len(opened)
            self._times.append(time)
            self._counts.append(anchored)
            self._count += anchored
        if bounded:
            self._expire(time - self.interval.high)
        threshold = time - self.interval.low
        while entering and entering[0].start <= threshold:
            run = entering.popleft()
            self.visited += 1
            if run.alive:
                run.entered = True
                crossed.add(run.valuation)

    def _expire(self, cutoff: Timestamp) -> None:
        """Forget the step times, and the runs, older than ``cutoff``."""
        times = self._times
        if times[0] < cutoff:
            stale = bisect_left(times, cutoff)
            self._count -= sum(self._counts[:stale])
            del times[:stale]
            del self._counts[:stale]
        expiring, runs_of = self._expiring, self._runs
        while expiring and expiring[0].end < cutoff:
            run = expiring.popleft()
            self.visited += 1
            if not run.alive:
                continue
            run.alive = False
            valuation = run.valuation
            runs = runs_of[valuation]
            runs.remove(run)  # the oldest run expires first
            if not runs:
                del runs_of[valuation]
                if self._restocked is not None:
                    self._restocked.add(valuation)
            if run.entered:
                self._crossed.add(valuation)

    def take_satisfied_delta(self) -> Tuple[Set[Row], Set[Row]]:
        """The valuations whose being satisfied may have changed since
        this was last asked: ``(those satisfied now, those not)``.
        Either set may name valuations that are what they were."""
        crossed, self._crossed = self._crossed, set()
        runs_of = self._runs
        satisfied = {
            v for v in crossed if v in runs_of and runs_of[v][0].entered
        }
        return satisfied, crossed - satisfied

    def take_stored_delta(self) -> Tuple[Set[Row], Set[Row]]:
        """The valuations first stored, or dropped for good or for a
        while, since this was last asked: ``(those stored now, those
        not)``.  Either set may name valuations that are what they
        were."""
        restocked, self._restocked = self._restocked, set()
        runs_of = self._runs
        stored = {v for v in restocked if v in runs_of}
        return stored, restocked - stored

    def satisfied(self) -> Iterable[Row]:
        """Valuations with an anchor at least ``low`` old."""
        return [v for v, runs in self._runs.items() if runs[0].entered]

    def window_has_state(self, time: Timestamp) -> bool:
        """Whether some state lies in ``[time - high, time - low]``.

        Anchors sit at states, so with none in the window nothing is
        satisfied, whatever is stored.  (A run that started before the
        window and ends after it needs this test; all others do not.)
        """
        if self.interval.low == 0 or not self._bounded:
            return True
        # _times holds exactly the states >= time - high
        return self._times[0] <= time - self.interval.low

    # -- reading the relation back --------------------------------------

    def _span(self, run: _Run) -> Tuple[int, int]:
        """Slice of ``_times`` holding the run's live anchors."""
        times = self._times
        last = len(times) if run.end is None else bisect_right(times, run.end)
        return bisect_left(times, run.start), last

    def stored(self) -> Iterable[Row]:
        """The stored valuations."""
        return self._runs.keys()

    def anchors_of(self, valuation: Row) -> Optional[List[Timestamp]]:
        """Stored timestamps of ``valuation``, oldest first."""
        runs = self._runs.get(valuation)
        if runs is None:
            return None
        if not self._keeps_all:
            return [runs[0].start]
        anchors: List[Timestamp] = []
        for run in runs:
            first, last = self._span(run)
            anchors.extend(self._times[first:last])
        return anchors

    def dump(self) -> List[list]:
        """The relation as sorted ``[valuation, timestamps]`` pairs."""
        return sorted(
            (
                [list(valuation), self.anchors_of(valuation)]
                for valuation in self._runs
            ),
            key=repr,
        )

    def load(self, pairs: Iterable[Tuple[Iterable, Iterable[Timestamp]]]) -> None:
        """Replace the relation; every derived structure is rebuilt here.

        The step axis is rebuilt from the anchors themselves: a state
        at which nothing was anchored is not needed to tell which
        timestamps are consecutive.  Runs ending at the newest state
        are left open; the next :meth:`observe` closes those whose
        valuation no longer holds.
        """
        self._reset()
        anchors = {
            # without keeps_all only the minimum is the relation
            tuple(valuation): list(times) if self._keeps_all
            else list(times)[:1]
            for valuation, times in pairs
        }
        self._count = sum(len(times) for times in anchors.values())
        if self._keeps_all:
            carried: Dict[Timestamp, int] = {}
            for times in anchors.values():
                for ts in times:
                    carried[ts] = carried.get(ts, 0) + 1
            self._times = sorted(carried)
            self._counts = [carried[ts] for ts in self._times]
        position = {ts: k for k, ts in enumerate(self._times)}
        newest = self._times[-1] if self._times else None
        runs: List[_Run] = []
        for valuation, times in anchors.items():
            mine = self._runs[valuation] = []
            for ts in times:
                last = mine[-1] if mine else None
                if (
                    last is not None
                    and self._keeps_all
                    and position[last.end] + 1 == position[ts]
                ):
                    last.end = ts
                else:
                    run = _Run(valuation, ts)
                    run.end = ts
                    mine.append(run)
            runs.extend(mine)
        # queue order is time order; the next observe() lets every run
        # old enough enter, after expiring the ones already too old
        for run in sorted(runs, key=lambda run: run.start):
            self._entering.append(run)
        for run in sorted(runs, key=lambda run: run.end):
            if not self._keeps_all or run.end == newest:
                run.end = None
                if self._keeps_all:
                    self._open[run.valuation] = run
            elif self._bounded:
                self._expiring.append(run)

    def tuple_count(self) -> int:
        return self._count

    def valuation_count(self) -> int:
        return len(self._runs)

    def oldest_anchor(self) -> Optional[Timestamp]:
        if not self._runs:
            return None
        if self._keeps_all:
            # the oldest state that still carries an anchor
            return next(
                ts for ts, n in zip(self._times, self._counts) if n
            )
        return min(runs[0].start for runs in self._runs.values())

    def payload_bytes(self) -> int:
        # what is really held: the runs and the step axis they refer to
        return deep_size((self._runs, self._times, self._counts))

    def iter_valuations(self) -> Iterator[Tuple[Row, int]]:
        for valuation, runs in self._runs.items():
            if not self._keeps_all:
                yield valuation, 1
                continue
            stored = 0
            for run in runs:
                first, last = self._span(run)
                stored += last - first
            yield valuation, stored


class _AnchoredState(AuxiliaryState):
    """What ``ONCE`` and ``SINCE`` share: an anchor map fed by the delta
    of the anchor formula's table, and a virtual table of the state's
    own, patched in place by the valuations crossing the window bounds."""

    __slots__ = (
        "formula", "_columns", "_anchors", "_holding", "_virtual", "_empty",
    )

    def __init__(self, formula: Formula, collapse_unbounded: bool = True):
        self.formula = formula
        self._columns = _header(formula)
        self._anchors = _AnchorMap(formula.interval, collapse_unbounded)
        self._empty = Table.empty(self._columns)
        self._forget()

    def _forget(self) -> None:
        """Drop what is derived from the anchors and from earlier reads
        (nothing of it exists before the first step or after a restore)."""
        #: mark of the anchor formula's table as last read
        self._holding: Optional[Tuple[Table, int]] = None
        #: valuations with an anchor at least ``low`` old
        self._virtual: Optional[Table] = None

    def _fold(self, time: Timestamp, holding: Table) -> Table:
        """Fold the anchor formula's new table in; emit the virtual
        table.  The table read last step costs its patch here, any
        other is looked at row by row."""
        delta = holding.delta_since(self._holding)
        if delta is None:
            self._anchors.observe(time, holding.rows, None)
        else:
            self._anchors.observe(time, holding.rows, *delta)
        self._holding = holding.mark()
        gained, lost = self._anchors.take_satisfied_delta()
        if self._virtual is None:
            self._virtual = Table.owned(
                self._columns, self._anchors.satisfied()
            )
        else:
            self._virtual.patch(gained, lost)
        if self._anchors.window_has_state(time):
            return self._virtual
        return self._empty

    def dump(self) -> Dict[str, object]:
        return {"type": self.kind, "anchors": self._anchors.dump()}

    def load(self, entry: Dict[str, object]) -> None:
        self._check_kind(entry)
        self._anchors.load(entry["anchors"])
        self._forget()

    def anchors_of(self, valuation: Row) -> Optional[List[Timestamp]]:
        return self._anchors.anchors_of(valuation)

    @property
    def bound_visits(self) -> int:
        return self._anchors.visited

    def tuple_count(self) -> int:
        return self._anchors.tuple_count()

    def valuation_count(self) -> int:
        return self._anchors.valuation_count()

    def oldest_anchor(self) -> Optional[Timestamp]:
        return self._anchors.oldest_anchor()

    def payload_bytes(self) -> int:
        return self._anchors.payload_bytes()

    def iter_valuations(self) -> Iterator[Tuple[Row, int]]:
        return self._anchors.iter_valuations()


class OnceState(_AnchoredState):
    """Auxiliary state for ``ONCE[I] f``."""

    __slots__ = ()
    kind = "once"

    def advance(self, time: Timestamp, evaluate_now: EvalFn) -> Table:
        return self._fold(
            time, evaluate_now(self.formula.operand).project(self._columns)
        )


class SinceState(_AnchoredState):
    """Auxiliary state for ``f SINCE[I] g``."""

    __slots__ = ("_candidates", "_survivors", "_dropped", "survival_checks")
    kind = "since"

    def __init__(self, formula: Since, collapse_unbounded: bool = True):
        # columns == sorted fv(g), as fv(f) ⊆ fv(g)
        super().__init__(formula, collapse_unbounded)
        # the stored valuations are the candidates of the survival test
        self._anchors.follow_stored()
        self.survival_checks = 0

    def _forget(self) -> None:
        super()._forget()
        #: the stored valuations as a table of the state's own, brought
        #: up to date when a step begins: the context the left operand
        #: is evaluated in
        self._candidates: Optional[Table] = None
        #: mark of the table of candidates the left operand held for
        self._survivors: Optional[Tuple[Table, int]] = None
        #: the candidates last step's survival test dropped
        self._dropped: Iterable[Row] = ()

    def advance(self, time: Timestamp, evaluate_now: EvalFn) -> Table:
        anchors = self._anchors
        stored, gone = anchors.take_stored_delta()
        candidates = self._candidates
        if candidates is None:
            candidates = self._candidates = Table.owned(
                self._columns, anchors.stored()
            )
        else:
            candidates.patch(stored, gone)
        # 1. survival: existing anchors need the left operand to hold
        #    for their valuation at the new state
        dropped: Iterable[Row] = ()
        if candidates.rows:
            survivors = evaluate_now(self.formula.left, candidates)
            delta = survivors.delta_since(self._survivors)
            self._survivors = survivors.mark()
            if delta is None:
                suspects = candidates.rows
            else:
                # a stored candidate survived last step or was anchored
                # during it (for the first time, or again after it was
                # dropped): only those can have to go
                suspects = candidates.rows.intersection(
                    delta[1].union(stored, self._dropped)
                )
            self.survival_checks += len(suspects)
            dropped = suspects.difference(
                survivors._aligned_rows(self._columns)
            )
            if dropped:
                anchors.remove_all(dropped)
        self._dropped = dropped
        # 2. new anchors from the right operand (no survival test:
        #    SINCE requires the left operand strictly *after* the
        #    anchor), 3. metric pruning
        return self._fold(
            time, evaluate_now(self.formula.right).project(self._columns)
        )


def make_auxiliary(
    formula: Formula, collapse_unbounded: bool = True
) -> AuxiliaryState:
    """Create the auxiliary state appropriate for a temporal node.

    Args:
        formula: the temporal node.
        collapse_unbounded: keep only the minimal anchor timestamp for
            unbounded intervals (the paper's encoding); ``False`` is an
            ablation that keeps all anchors.
    """
    if isinstance(formula, Prev):
        return PrevState(formula)
    if isinstance(formula, Once):
        return OnceState(formula, collapse_unbounded)
    if isinstance(formula, Since):
        return SinceState(formula, collapse_unbounded)
    raise MonitorError(
        f"not a temporal operator: {type(formula).__name__}"
    )
