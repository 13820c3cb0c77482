"""Relational algebra over in-memory tables.

:class:`Table` is the workhorse of the whole library: relations, query
answers, binding sets of the constraint checker, and auxiliary-relation
snapshots are all tables — an ordered tuple of column names plus a set
of equal-length value rows.  Every operation of the algebra is pure: it
returns a new table and never mutates its operands.  The one exception
is :meth:`Table.patch`, and only a table made by :meth:`Table.owned`
accepts it: such a table has a single owner that changes it in place,
step by step, and readers follow it by its version.

The operation set is exactly what safe-range first-order evaluation
needs: natural join, union (with column alignment), set difference,
anti-/semi-join, projection, selection, renaming, column extension, and
cartesian product.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.db.types import Row, Value
from repro.errors import AlgebraError

#: A row set: frozen in a result of the algebra, a ``set`` its owner
#: changes in place in an owned table or relation.
Rows = Union[FrozenSet[Row], Set[Row]]

#: ``(rows entered, rows left)``
Delta = Tuple[Rows, Rows]

_NO_ROWS: FrozenSet[Row] = frozenset()

_SETS = (frozenset, set)

#: the delta of a step that changed nothing
UNCHANGED: Delta = (_NO_ROWS, _NO_ROWS)

#: the patch log of every table nobody owns: version 0, for good
_FROZEN = (0, _NO_ROWS, _NO_ROWS)

#: One hash index: key -> the rows carrying it.  A one-column key is
#: the bare value, a wider one the tuple of values (see :func:`key_of`).
#: Buckets are changed in place by :func:`patch_index`.
Index = Dict[object, Set[Row]]

#: ``join`` probes the larger operand's (cached) index instead of
#: scanning it once the smaller operand is this many times smaller.
PROBE_RATIO = 4


def effective_change(
    rows: Rows, added: Iterable[Row], removed: Iterable[Row]
) -> Delta:
    """What taking ``removed`` out of ``rows`` and then putting ``added``
    in really changes: ``(rows gained, rows lost)``, two sets of their
    own that nothing changes afterwards."""
    added = frozenset(added)
    lost = rows.intersection(removed) - added if removed else _NO_ROWS
    return added - rows, lost


def key_of(positions: Sequence[int]) -> Callable[[Row], object]:
    """The index key of a row: its value at one position, or the tuple
    of its values at several."""
    return itemgetter(*positions)


def tuple_of(positions: Sequence[int]) -> Callable[[Row], Row]:
    """Projection of a row (a tuple) onto ``positions``, always as a
    tuple: ``itemgetter`` hands back a bare value for one position and
    refuses none, so those two take a slice of the row."""
    if len(positions) == 1:
        (i,) = positions
        return itemgetter(slice(i, i + 1))
    if not positions:
        return itemgetter(slice(0, 0))
    return itemgetter(*positions)


def build_index(rows: Iterable[Row], positions: Sequence[int]) -> Index:
    """Hash ``rows`` on their values at ``positions``."""
    key = key_of(positions)
    buckets: Dict[object, List[Row]] = {}
    for row in rows:
        buckets.setdefault(key(row), []).append(row)
    return {k: set(rs) for k, rs in buckets.items()}


def patch_index(
    index: Index,
    positions: Sequence[int],
    added: Iterable[Row],
    removed: Iterable[Row],
) -> None:
    """Take ``removed`` out of ``index`` and put ``added`` in, touching
    only their buckets; a bucket left empty goes.

    ``removed`` rows must be in the index and ``added`` rows must not:
    an effective change (:func:`effective_change`).
    """
    key = key_of(positions)
    for row in removed:
        k = key(row)
        bucket = index[k]
        if len(bucket) == 1:
            del index[k]
        else:
            bucket.remove(row)
    for row in added:
        k = key(row)
        bucket = index.get(k)
        if bucket is None:
            index[k] = {row}
        else:
            bucket.add(row)


@lru_cache(maxsize=4096)
def _join_layout(mine: Tuple[str, ...], theirs: Tuple[str, ...]) -> tuple:
    """Everything about ``mine JOIN theirs`` that the two headers
    decide, worked out once per pair of headers:

    ``(result header, positions of the shared columns in mine, in
    theirs, index key of a left row, of a right row, a right row's
    private columns as a tuple, a left row's shared columns as the
    right row they must equal — or None when theirs has private
    columns)``.  Shared columns are taken in ``theirs``' order.
    """
    shared = [c for c in theirs if c in mine]
    private = [c for c in theirs if c not in mine]
    l_idx = tuple(mine.index(c) for c in shared)
    r_idx = tuple(theirs.index(c) for c in shared)
    return (
        mine + tuple(private),
        l_idx,
        r_idx,
        key_of(l_idx) if shared else None,
        key_of(r_idx) if shared else None,
        tuple_of([theirs.index(c) for c in private]),
        None if private else tuple_of(l_idx),
    )


class Table:
    """A set of rows under an ordered column header.

    Two tables are equal when they have the same columns *as a set* and
    contain the same rows once aligned to a common column order; this is
    the right notion of equality for query answers.

    A result of the algebra never changes.  A table made by
    :meth:`owned` has one owner, who changes it in place
    (:meth:`patch`): the row set and the touched buckets of every hash
    index built so far (:meth:`index_on`) are updated and the effective
    change is remembered under a new version, so a reader that took a
    :meth:`mark` asks :meth:`delta_since` for what it missed instead of
    comparing two tables — the primitive the incremental checker's
    maintained views are built from.  Whoever needs the rows to stay as
    they are takes a :meth:`snapshot`.
    """

    __slots__ = ("columns", "rows", "_indexes", "_log")

    def __init__(self, columns: Sequence[str], rows: Iterable[Row] = ()):
        cols = tuple(columns)
        if len(set(cols)) != len(cols):
            raise AlgebraError(f"duplicate column names: {cols}")
        self.columns: Tuple[str, ...] = cols
        frozen = frozenset(tuple(r) for r in rows)
        for r in frozen:
            if len(r) != len(cols):
                raise AlgebraError(
                    f"row {r!r} does not match columns {cols}"
                )
        self.rows: Rows = frozen
        #: positions -> index, filled lazily; shared with renamed views
        #: of the same rows
        self._indexes: Dict[Tuple[int, ...], Index] = {}
        #: ``[version, added, removed, (version, frozen rows) of the
        #: last snapshot]``, a list only an owned table has; shared
        #: with renamed views
        self._log: Any = _FROZEN

    @classmethod
    def _trusted(
        cls,
        columns: Tuple[str, ...],
        rows: Iterable[Row],
        indexes: Optional[Dict[Tuple[int, ...], Index]] = None,
        log: Any = _FROZEN,
    ) -> "Table":
        """Internal constructor for rows the algebra itself produced:
        ``columns`` is a duplicate-free tuple and every row a tuple of
        matching length, so nothing is re-tupled or re-checked.  A set
        is taken as it is, not copied."""
        self = object.__new__(cls)
        self.columns = columns
        self.rows = rows if isinstance(rows, _SETS) else frozenset(rows)
        self._indexes = {} if indexes is None else indexes
        self._log = log
        return self

    @classmethod
    def owned(cls, columns: Tuple[str, ...], rows: Iterable[Row]) -> "Table":
        """A table the caller may :meth:`patch`, holding a copy of
        ``rows`` (which must fit ``columns``, as for a result of the
        algebra)."""
        return cls._trusted(
            columns, set(rows), None, [0, _NO_ROWS, _NO_ROWS, None]
        )

    def __reduce__(self):
        # only the relation travels (shard workers pickle witness
        # tables); indexes and patch history are derived
        return (Table._trusted, (self.columns, self.rows))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def nullary(true: bool) -> "Table":
        """The two zero-column tables: ``{()}`` (true) and ``{}`` (false).

        Zero-column tables represent truth values of closed formulas.
        """
        return _TRUE if true else _FALSE

    @staticmethod
    def empty(columns: Sequence[str]) -> "Table":
        """An empty table with the given header."""
        return Table(columns, ())

    @staticmethod
    def unit(assignment: Mapping[str, Value]) -> "Table":
        """A one-row table from a ``{column: value}`` mapping."""
        cols = tuple(assignment)
        return Table(cols, [tuple(assignment[c] for c in cols)])

    # ------------------------------------------------------------------
    # basic interrogation
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether the table has no rows."""
        return not self.rows

    @property
    def truth(self) -> bool:
        """Truth value of a zero-column table.

        Raises:
            AlgebraError: if the table has columns.
        """
        if self.columns:
            raise AlgebraError(
                f"truth undefined for table with columns {self.columns}"
            )
        return bool(self.rows)

    def column_index(self, column: str) -> int:
        """0-based position of ``column``."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise AlgebraError(
                f"no column {column!r} in {self.columns}"
            ) from None

    def values(self, column: str) -> FrozenSet[Value]:
        """The set of values appearing in ``column``."""
        i = self.column_index(column)
        return frozenset(r[i] for r in self.rows)

    def assignments(self) -> Iterator[Dict[str, Value]]:
        """Iterate rows as ``{column: value}`` dicts (for reporting)."""
        for r in sorted(self.rows, key=repr):
            yield dict(zip(self.columns, r))

    # ------------------------------------------------------------------
    # indexes and patches
    # ------------------------------------------------------------------

    def index_on(self, columns: Sequence[str]) -> Index:
        """The hash index on ``columns`` (built once, then cached).

        Keys follow :func:`key_of` over the columns' positions in the
        order given.
        """
        return self._index_at(tuple(self.column_index(c) for c in columns))

    def _index_at(self, positions: Tuple[int, ...]) -> Index:
        index = self._indexes.get(positions)
        if index is None:
            index = self._indexes[positions] = build_index(
                self.rows, positions
            )
        return index

    def matching(
        self, columns: Sequence[str], keys: Iterable[Row]
    ) -> Rows:
        """The rows whose projection onto ``columns`` is in ``keys``
        (tuples in the order of ``columns``), as a set of their own."""
        if tuple(columns) == self.columns:
            return self.rows.intersection(keys)
        index = self.index_on(columns)
        if len(columns) == 1:
            keys = map(itemgetter(0), keys)
        found: List[Row] = []
        for k in keys:
            found.extend(index.get(k, ()))
        return frozenset(found)

    def patch(
        self, added: Iterable[Row] = (), removed: Iterable[Row] = ()
    ) -> Delta:
        """Take ``removed`` rows out, then put ``added`` rows in (rows
        must already fit the header), in place; owned tables only.

        Returns the effective change ``(rows gained, rows lost)``.
        When there is one, only the touched index buckets are updated,
        the version goes up by one and the change is what
        :meth:`delta_since` answers a mark taken before.
        """
        log = self._log
        if log is _FROZEN:
            raise AlgebraError("only a table made by Table.owned is patched")
        if not added and not removed:  # empty collections: no change
            return UNCHANGED
        change = effective_change(self.rows, added, removed)
        gained, lost = change
        if not gained and not lost:
            return UNCHANGED
        for positions, index in self._indexes.items():
            patch_index(index, positions, gained, lost)
        if lost:
            self.rows -= lost
        self.rows |= gained
        log[0] += 1
        log[1], log[2] = change
        return change

    def mark(self) -> Tuple["Table", int]:
        """What a reader keeps to ask :meth:`delta_since` at its next
        read: this table and the version it is at."""
        return self, self._log[0]

    def delta_since(self, mark: Optional[Tuple["Table", int]]) -> Optional[Delta]:
        """``(rows entered, rows left)`` since ``mark`` was taken:
        nothing, or the last patch — and ``None`` when the mark is of
        another table, further behind or missing, so that the reader
        has to start over."""
        if mark is None or mark[0] is not self:
            return None
        log = self._log
        behind = log[0] - mark[1]
        if not behind:
            return UNCHANGED
        return (log[1], log[2]) if behind == 1 else None

    def snapshot(self) -> "Table":
        """The table as it is now, for good: a frozen copy of an owned
        table, the table itself otherwise.  The copy is made once per
        version: a table that did not change since the last snapshot
        hands out the same rows again."""
        log = self._log
        if log is _FROZEN:
            return self
        frozen = log[3]
        if frozen is None or frozen[0] != log[0]:
            frozen = log[3] = (log[0], frozenset(self.rows))
        return Table._trusted(self.columns, frozen[1])

    # ------------------------------------------------------------------
    # unary operations
    # ------------------------------------------------------------------

    def project(self, columns: Sequence[str]) -> "Table":
        """Project onto ``columns`` (duplicates removed, order as given)."""
        cols = tuple(columns)
        if cols == self.columns:
            return self
        if len(set(cols)) != len(cols):
            raise AlgebraError(f"duplicate column names: {cols}")
        take = tuple_of([self.column_index(c) for c in cols])
        return Table._trusted(cols, map(take, self.rows))

    def drop(self, *columns: str) -> "Table":
        """Project away the named columns."""
        keep = [c for c in self.columns if c not in columns]
        return self.project(keep)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns; names absent from ``mapping`` are kept."""
        new_cols = tuple(mapping.get(c, c) for c in self.columns)
        if len(set(new_cols)) != len(new_cols):
            raise AlgebraError(
                f"rename {dict(mapping)} collapses columns {self.columns}"
            )
        # the same rows at the same positions: a view of this table,
        # indexes and patch log included, whoever patches it
        return Table._trusted(new_cols, self.rows, self._indexes, self._log)

    def select(self, predicate: Callable[[Dict[str, Value]], bool]) -> "Table":
        """Keep rows on which ``predicate`` (over a row dict) is true."""
        cols = self.columns
        return Table._trusted(
            cols, (r for r in self.rows if predicate(dict(zip(cols, r))))
        )

    def select_eq(self, column: str, value: Value) -> "Table":
        """Keep rows whose ``column`` equals ``value``."""
        i = self.column_index(column)
        return Table._trusted(
            self.columns, (r for r in self.rows if r[i] == value)
        )

    def select_cols_eq(self, left: str, right: str) -> "Table":
        """Keep rows where two columns carry the same value."""
        i, j = self.column_index(left), self.column_index(right)
        return Table._trusted(
            self.columns, (r for r in self.rows if r[i] == r[j])
        )

    def extend_copy(self, source: str, new: str) -> "Table":
        """Add column ``new`` carrying a copy of column ``source``.

        Implements the equality atom ``x = y`` when only one side is
        bound: every binding of ``source`` is propagated to ``new``.
        """
        if new in self.columns:
            raise AlgebraError(f"column {new!r} already present")
        i = self.column_index(source)
        return Table._trusted(
            self.columns + (new,), (r + (r[i],) for r in self.rows)
        )

    def extend_const(self, new: str, value: Value) -> "Table":
        """Add a constant column."""
        if new in self.columns:
            raise AlgebraError(f"column {new!r} already present")
        return Table._trusted(
            self.columns + (new,), (r + (value,) for r in self.rows)
        )

    def aggregate(
        self,
        group: Sequence[str],
        over: Sequence[str],
        op: str,
        result: str,
    ) -> "Table":
        """Grouped aggregation.

        Rows are grouped by the ``group`` columns; within each group
        the distinct ``over``-tuples are aggregated: ``cnt`` counts
        them, ``sum``/``min``/``max``/``avg`` fold the *first* ``over``
        column's values (one value per distinct tuple, so a non-measure
        column in ``over`` keeps duplicates apart).  The result has
        columns ``group + (result,)`` — one row per non-empty group.

        Raises:
            AlgebraError: on unknown ``op``, column problems, or
                non-numeric values under a numeric aggregate.
        """
        if op not in ("cnt", "sum", "min", "max", "avg"):
            raise AlgebraError(f"unknown aggregate op: {op!r}")
        if not over:
            raise AlgebraError("aggregate needs at least one over-column")
        if result in group:
            raise AlgebraError(
                f"result column {result!r} collides with a group column"
            )
        g_idx = [self.column_index(c) for c in group]
        o_idx = [self.column_index(c) for c in over]
        groups: Dict[Row, set] = {}
        for r in self.rows:
            key = tuple(r[i] for i in g_idx)
            groups.setdefault(key, set()).add(tuple(r[i] for i in o_idx))
        out_rows: List[Row] = []
        for key, tuples in groups.items():
            if op == "cnt":
                value: Value = len(tuples)
            else:
                measures = [t[0] for t in tuples]
                if not all(
                    isinstance(m, (int, float)) and not isinstance(m, bool)
                    for m in measures
                ):
                    raise AlgebraError(
                        f"aggregate {op} over non-numeric values: "
                        f"{sorted(measures, key=repr)[:3]}"
                    )
                if op == "sum":
                    value = sum(measures)
                elif op == "min":
                    value = min(measures)
                elif op == "max":
                    value = max(measures)
                else:
                    value = sum(measures) / len(measures)
            out_rows.append(key + (value,))
        return Table(tuple(group) + (result,), out_rows)

    # ------------------------------------------------------------------
    # binary operations
    # ------------------------------------------------------------------

    def _aligned_rows(self, order: Sequence[str]) -> Iterable[Row]:
        order = tuple(order)
        if order == self.columns:
            return self.rows
        return map(tuple_of([self.column_index(c) for c in order]), self.rows)

    def _same_header(self, other: "Table", what: str) -> None:
        if self.columns != other.columns and (
            set(self.columns) != set(other.columns)
        ):
            raise AlgebraError(
                f"{what} of incompatible headers {self.columns} / "
                f"{other.columns}"
            )

    def union(self, other: "Table") -> "Table":
        """Set union; requires equal column *sets* (order may differ)."""
        self._same_header(other, "union")
        return Table._trusted(
            self.columns, self.rows.union(other._aligned_rows(self.columns))
        )

    def difference(self, other: "Table") -> "Table":
        """Set difference; requires equal column sets."""
        self._same_header(other, "difference")
        return Table._trusted(
            self.columns,
            self.rows.difference(other._aligned_rows(self.columns)),
        )

    def intersection(self, other: "Table") -> "Table":
        """Set intersection; requires equal column sets."""
        self._same_header(other, "intersection")
        return Table._trusted(
            self.columns,
            self.rows.intersection(other._aligned_rows(self.columns)),
        )

    def join(self, other: "Table") -> "Table":
        """Natural join on all shared columns.

        With no shared columns this is the cartesian product; with equal
        column sets it is the intersection.  The result header is this
        table's columns followed by ``other``'s private columns.

        The large side is never re-hashed without need: a zero-column
        operand passes the other through, identical headers intersect
        as sets, a right operand whose columns are all shared is tested
        by membership, and otherwise the smaller operand is hashed and
        the larger scanned — unless the larger is :data:`PROBE_RATIO`
        times bigger or already has the index, in which case the
        smaller probes the larger's cached index (kept up to date by
        :meth:`patch`) and the larger is not scanned.
        """
        mine, theirs = self.columns, other.columns
        if not mine:
            return other if self.rows else Table._trusted(theirs, ())
        if not theirs:
            return self if other.rows else Table._trusted(mine, ())
        if mine == theirs:
            return Table._trusted(mine, self.rows & other.rows)

        out_cols, l_idx, r_idx, left_key, right_key, tail, as_right_row = (
            _join_layout(mine, theirs)
        )
        left, right = self.rows, other.rows
        if not l_idx:
            return Table._trusted(
                out_cols, [lr + rr for lr in left for rr in right]
            )

        if as_right_row is not None and len(right) * PROBE_RATIO > len(left):
            # every right column is shared, so a right row is its own
            # key: membership, no index at all
            return Table._trusted(
                out_cols, [lr for lr in left if as_right_row(lr) in right]
            )
        if len(left) <= len(right):
            if len(left) * PROBE_RATIO <= len(right) or (
                r_idx in other._indexes
            ):
                index = other._index_at(r_idx)  # cached: no scan of right
                scan, key, left_scanned = left, left_key, True
            else:
                index = build_index(left, l_idx)
                scan, key, left_scanned = right, right_key, False
        elif len(right) * PROBE_RATIO <= len(left) or (
            l_idx in self._indexes
        ):
            index = self._index_at(l_idx)
            scan, key, left_scanned = right, right_key, False
        else:
            index = build_index(right, r_idx)
            scan, key, left_scanned = left, left_key, True
        get = index.get
        if left_scanned:
            rows = [lr + tail(rr) for lr in scan for rr in get(key(lr), ())]
        else:
            rows = [lr + tail(rr) for rr in scan for lr in get(key(rr), ())]
        return Table._trusted(out_cols, rows)

    def _shared_keys(self, other: "Table", shared: List[str]):
        """Key function over this table's rows and the key set of
        ``other``, both on the ``shared`` columns."""
        key = tuple_of([self.column_index(c) for c in shared])
        keys = other._aligned_rows(shared)
        return key, keys if isinstance(keys, _SETS) else frozenset(keys)

    def semijoin(self, other: "Table") -> "Table":
        """Keep rows that join with at least one row of ``other``."""
        shared = [c for c in self.columns if c in other.columns]
        if not shared:
            return self if other.rows else Table._trusted(self.columns, ())
        key, keys = self._shared_keys(other, shared)
        return Table._trusted(
            self.columns, (r for r in self.rows if key(r) in keys)
        )

    def antijoin(self, other: "Table") -> "Table":
        """Keep rows that join with *no* row of ``other``.

        This is how negated conjuncts are evaluated: the negated
        subformula's answer table is anti-joined against the bindings
        accumulated by the positive conjuncts.
        """
        shared = [c for c in self.columns if c in other.columns]
        if not shared:
            return Table._trusted(self.columns, ()) if other.rows else self
        key, keys = self._shared_keys(other, shared)
        return Table._trusted(
            self.columns, (r for r in self.rows if key(r) not in keys)
        )

    def product(self, other: "Table") -> "Table":
        """Cartesian product; requires disjoint headers."""
        if set(self.columns) & set(other.columns):
            raise AlgebraError(
                f"product of overlapping headers {self.columns} / "
                f"{other.columns}"
            )
        return self.join(other)

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if set(self.columns) != set(other.columns):
            return False
        return self.rows == frozenset(other._aligned_rows(self.columns))

    def __hash__(self) -> int:
        order = tuple(sorted(self.columns))
        return hash((order, frozenset(self._aligned_rows(order))))

    def __repr__(self) -> str:
        shown = sorted(self.rows, key=repr)[:6]
        suffix = ", ..." if len(self.rows) > 6 else ""
        return f"Table({list(self.columns)}, {shown}{suffix})"


_TRUE = Table((), [()])
_FALSE = Table((), ())
