"""Updates that cost their delta: owned tables and relations patched in
place, indexes included, changes remembered by version, validation of
new rows only — and a public ``Table`` constructor that still checks
everything."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.algebra import Table
from repro.db.database import DatabaseState
from repro.db.relation import Relation
from repro.db.schema import DatabaseSchema, RelationSchema
from repro.db.transactions import Transaction
from repro.errors import AlgebraError, ReproError

SCHEMA = RelationSchema("r", [("a", "int"), ("b", "int")])

values = st.integers(0, 3)
rows = st.frozensets(st.tuples(values, values), max_size=8)
#: a sequence of (inserts, deletes) batches; the two may overlap and may
#: name rows that are already there or not there at all
changes = st.lists(st.tuples(rows, rows), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(initial=rows, batches=changes, warm=st.sets(st.integers(0, 1)))
def test_relation_indexes_are_patched_not_rebuilt(initial, batches, warm):
    frozen = Relation(SCHEMA, initial)
    relation = frozen.owned_copy()
    for position in warm:  # only indexes that exist are kept up to date
        relation.index_on(position)
    for inserts, deletes in batches:
        before = frozenset(relation.rows)
        indexes = dict(relation._table._indexes)
        added, removed = relation.patch(inserts, deletes)
        assert relation.rows == (before - deletes) | inserts
        assert added == relation.rows - before
        assert removed == before - relation.rows
        assert relation._table._indexes.keys() == indexes.keys()
        assert all(relation._table._indexes[k] is indexes[k] for k in indexes)
        rebuilt = Relation(SCHEMA, relation.rows)
        for position in (0, 1):
            assert relation.index_on(position) == rebuilt.index_on(position)
        # the pure successor is another relation; this one stays put
        successor = rebuilt.with_changes(inserts, deletes)
        assert successor.rows == (rebuilt.rows - deletes) | inserts
        assert rebuilt.rows == relation.rows
    assert frozen.rows == initial, "the copy shares nothing"
    assert frozen.with_changes() is frozen
    with pytest.raises(AlgebraError):
        frozen.patch([(0, 0)], [])


@settings(max_examples=150, deadline=None)
@given(initial=rows, batches=changes, warm=st.sets(
    st.sampled_from([("a",), ("b",), ("b", "a")])
))
def test_table_indexes_are_patched_not_rebuilt(initial, batches, warm):
    table = Table.owned(("a", "b"), initial)
    renamed = table.rename({"a": "x"})
    for columns in warm:
        table.index_on(columns)
    for added, removed in batches:
        before, mark = frozenset(table.rows), table.mark()
        change = table.patch(added, removed)
        assert table.rows == (before - removed) | added
        assert change == (table.rows - before, before - table.rows)
        # a reader follows by version: nothing, the last patch, or lost
        assert table.mark() == (table, mark[1] + (1 if any(change) else 0))
        assert table.delta_since(mark) == change
        assert table.delta_since(table.mark()) == (frozenset(), frozenset())
        assert table.delta_since((table, table.mark()[1] - 2)) is None
        assert table.delta_since(renamed.mark()) is None, "another table"
        # a renamed view shares rows, indexes and the remembered change
        assert renamed.rows is table.rows
        assert renamed.mark()[1] == table.mark()[1]
        assert renamed.delta_since((renamed, mark[1])) == change
        rebuilt = Table(("a", "b"), table.rows)
        for columns in (("a",), ("b",), ("b", "a")):
            assert table.index_on(columns) == rebuilt.index_on(columns)
            for key in {tuple(r[table.column_index(c)] for c in columns)
                        for r in initial}:
                assert table.matching(columns, [key]) == frozenset(
                    r for r in table.rows
                    if tuple(r[table.column_index(c)] for c in columns) == key
                )
    snapshot = table.snapshot()
    kept = frozenset(table.rows)
    table.patch([(9, 9)], kept)
    assert snapshot.rows == kept and snapshot.snapshot() is snapshot
    with pytest.raises(AlgebraError):
        snapshot.patch([(1, 1)])


def reference_join(left: Table, right: Table) -> Table:
    shared = [c for c in left.columns if c in right.columns]
    private = [c for c in right.columns if c not in shared]
    out = []
    for lr in left.rows:
        for rr in right.rows:
            if all(lr[left.column_index(c)] == rr[right.column_index(c)]
                   for c in shared):
                out.append(lr + tuple(rr[right.column_index(c)]
                                      for c in private))
    return Table(left.columns + tuple(private), out)


small = st.frozensets(st.tuples(values, values), max_size=2)
large = st.frozensets(st.tuples(values, values), min_size=6, max_size=16)


@settings(max_examples=200, deadline=None)
@given(
    few=small, many=large,
    headers=st.sampled_from([
        (("a", "b"), ("b", "c")),   # one shared column
        (("a", "b"), ("b", "a")),   # same columns, other order
        (("a", "b"), ("a", "b")),   # identical headers
        (("a", "b"), ("c", "d")),   # nothing shared
    ]),
    small_left=st.booleans(), warm=st.booleans(),
)
def test_join_equals_the_nested_loop_on_every_path(
    few, many, headers, small_left, warm
):
    """Probe, membership, hash-the-smaller: all the same relation."""
    mine, theirs = headers
    left = Table(mine, few if small_left else many)
    right = Table(theirs, many if small_left else few)
    if warm:  # a cached index switches comparable sizes to probing
        shared = [c for c in theirs if c in mine]
        if shared:
            right.index_on(shared)
            left.index_on(shared)
    assert left.join(right) == reference_join(left, right)
    assert left.join(right).columns == reference_join(left, right).columns
    # a projected context (every left column shared) and its converse
    narrow = left.project(mine[:1])
    assert narrow.join(right) == reference_join(narrow, right)
    assert right.join(narrow) == reference_join(right, narrow)


def test_join_short_circuits_a_zero_column_context():
    table = Table(("a",), [(1,), (2,)])
    assert Table.nullary(True).join(table) is table
    assert table.join(Table.nullary(True)) is table
    assert Table.nullary(False).join(table).is_empty
    assert table.join(Table.nullary(False)).columns == ("a",)


def test_large_side_is_probed_through_its_cached_index():
    big = Table(("a", "b"), [(i, i % 7) for i in range(100)])
    context = Table(("a",), [(3,), (500,)])
    assert context.join(big) == Table(("a", "b"), [(3, 3)])
    assert (0,) in big._indexes, "the join built and kept the index"
    owned = Table.owned(big.columns, big.rows)
    assert context.join(owned) == Table(("a", "b"), [(3, 3)])
    index = owned._indexes[(0,)]
    owned.patch(added=[(500, 1)], removed=[(3, 3)])
    assert owned._indexes[(0,)] is index, "patched, not rebuilt"
    assert 3 not in index and index[500] == {(500, 1)}
    assert context.join(owned) == Table(("a", "b"), [(500, 1)])
    assert big.index_on(("a",))[3] == {(3, 3)}, "the copied table intact"


class TestValidationFollowsTheDelta:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        validate_rows = RelationSchema.validate_rows

        def counting(self, rows):
            calls.extend(rows)
            return validate_rows(self, rows)

        monkeypatch.setattr(RelationSchema, "validate_rows", counting)
        return calls

    def test_only_new_rows_are_validated(self, counted):
        relation = Relation(SCHEMA, [(i, i) for i in range(50)])
        del counted[:]
        same = relation.with_changes(inserts=[(1, 1), (2, 2)])
        assert same is relation and counted == []
        grown = relation.with_changes(inserts=[(1, 1), (99, 0)])
        assert counted == [(99, 0)]
        del counted[:]
        grown.with_changes(deletes=[(99, 0), (1, 1)])
        assert counted == [], "deleting validates nothing here"

    def test_an_invalid_row_still_raises(self):
        relation = Relation(SCHEMA, [(1, 1)])
        with pytest.raises(ReproError):
            relation.with_changes(inserts=[(1, "x")])
        with pytest.raises(ReproError):
            relation.with_changes(inserts=[(1, 2, 3)])

    def test_apply_validates_the_transaction_not_the_state(self, counted):
        schema = DatabaseSchema([SCHEMA])
        state = DatabaseState.from_rows(
            schema, {"r": [(i, i) for i in range(200)]}
        )
        del counted[:]
        txn = Transaction({"r": [(7, 0)]}, {"r": [(3, 3)]})
        after = state.apply(txn)
        assert len(counted) <= 3
        assert after.relation("r").rows == (
            state.relation("r").rows - {(3, 3)} | {(7, 0)}
        )
        del counted[:]
        owned = state.owned_copy()
        assert owned.patch(txn) == {"r": ({(7, 0)}, {(3, 3)})}
        assert len(counted) <= 3
        assert owned == after and len(state.relation("r")) == 200
        for target in (state.apply, owned.patch):
            with pytest.raises(ReproError):
                target(Transaction({"r": [(8, 8), ("x", 0)]}, {}))
        assert owned == after, "an invalid transaction changes nothing"

    def test_effective_delta_ignores_what_changes_nothing(self):
        schema = DatabaseSchema([SCHEMA])
        state = DatabaseState.from_rows(schema, {"r": [(1, 1)]})
        txn = Transaction({"r": [(1, 1)]}, {"r": [(9, 9)]})
        after = state.apply(txn)
        assert after.relation("r") is state.relation("r")
        assert state.owned_copy().patch(txn) == {}


class TestPublicConstructorKeepsEveryCheck:
    """The algebra builds its results through a trusted constructor;
    what callers hand in is still checked row by row."""

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(AlgebraError):
            Table(("a", "b"), [(1, 2), (3,)])
        with pytest.raises(AlgebraError):
            Table((), [(1,)])

    def test_duplicate_columns_are_rejected(self):
        with pytest.raises(AlgebraError):
            Table(("a", "b", "a"), [])
        with pytest.raises(AlgebraError):
            Table(("a", "b"), [(1, 2)]).project(("a", "a"))
        with pytest.raises(AlgebraError):
            Table(("a", "b"), [(1, 2)]).rename({"a": "b"})

    def test_rows_are_still_retupled(self):
        table = Table(["a", "b"], [[1, 2], (1, 2)])
        assert table.columns == ("a", "b")
        assert table.rows == frozenset({(1, 2)})

    def test_results_of_the_algebra_pass_the_public_checks(self):
        left = Table(("a", "b"), [(1, 2), (2, 3)])
        right = Table(("b", "c"), [(2, 5), (3, 6)])
        for result in (
            left.join(right), left.union(left), left.project(("b",)),
            left.extend_const("k", 0), Table.owned(left.columns, left.rows),
        ):
            assert Table(result.columns, result.rows) == result

