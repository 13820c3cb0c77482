"""Each refresh a view can choose equals the restricted evaluation.

A maintained view picks its refresh once, from the shape of its formula
and the headers of its leaves (``repro.core.views.View``): a forwarded
leaf, set algebra over a key-aligned conjunction, or an index probe of
a filtered existential over one leaf, with or without a context.  Each
shape is driven here over random leaf tables and random deltas, for
several steps, by the incremental checker.  Next to every view that
chose a shape runs a twin of the same formula that is made to take the
generic restricted evaluation.  After every step the two must hold the
same table with the same patch log, and the checker's verdict must be
the reference semantics' (``core/semantics.py``).

The universe is small, so keys enter and leave in the same step (a row
of a leaf goes while another row under the same key comes), and the
relation ``g`` is never written, so some guards stay empty.
"""

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checker import Constraint, IncrementalChecker
from repro.core.semantics import HistoryEvaluator
from repro.core.views import View
from repro.db import DatabaseSchema, DatabaseState, Transaction
from repro.db.algebra import Table
from repro.temporal import History

SCHEMA = DatabaseSchema.from_dict({
    "p": ["a"], "q": ["a"], "g": ["a"],
    "e": ["a", "b"], "f": ["a", "b"], "t": ["a", "b", "c"],
})
UNIVERSE = range(3)
#: every row each written relation can hold
ROWS = {
    name: list(product(UNIVERSE, repeat=SCHEMA.relation(name).arity))
    for name in ("p", "q", "e", "f", "t")
}

#: a step: a clock gap and, per relation, rows to toggle (insert when
#: absent, delete when present)
steps = st.lists(
    st.tuples(
        st.integers(1, 3),
        st.fixed_dictionaries({
            name: st.sets(st.sampled_from(rows), max_size=4)
            for name, rows in ROWS.items()
        }),
    ),
    min_size=2,
    max_size=10,
)

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def drive(text, script):
    """Run ``text`` over ``script``; compare every view that chose a
    kernel with its generic twin, and every verdict with the reference
    semantics.  Returns the refreshes the views chose."""
    constraint = Constraint("c", text)
    checker = IncrementalChecker(SCHEMA, [constraint])
    provider = checker._provider
    history = History(SCHEMA)
    reference = HistoryEvaluator(history)
    state = DatabaseState.empty(SCHEMA)
    twins = {}
    time = 0
    for gap, toggles in script:
        time += gap
        inserts, deletes = {}, {}
        for name, rows in toggles.items():
            present = state.relation(name).rows
            inserts[name] = [row for row in rows if row not in present]
            deletes[name] = [row for row in rows if row in present]
        txn = Transaction(inserts, deletes)
        report = checker.step(time, txn)
        state = state.apply(txn)
        history.append(time, state)
        want = reference.table_at(constraint.violation_formula, len(history) - 1)
        got = (
            report.violations[0].witnesses if report.violations
            else Table.empty(want.columns)
        )
        assert got == want, f"{text} at t={time}"
        for view in checker._views:
            kernel = view._kernel.__name__
            if kernel == "_restricted" or view._stamp != provider.stamp:
                continue
            twin = twins.get(id(view))
            if twin is None:
                twin = twins[id(view)] = View(view.formula, view.columns)
                twin._bind(provider, view._context)
                twin._kernel = View._restricted
            twin.refresh(provider, view._context)
            label = f"{text}: {kernel} view of {view.formula} at t={time}"
            assert view.table == twin.table, label
            if kernel != "_forward":  # a forwarded view keeps no log
                version, added, removed = view.table._log[:3]
                assert (version, set(added), set(removed)) == (
                    twin.table._log[0], set(twin.table._log[1]),
                    set(twin.table._log[2]),
                ), label
    return {view._kernel.__name__ for view in checker._views}


#: constraints with a view of each shape, by the refresh it chooses
FORWARDED = [
    "p(x) -> ONCE[0,3] q(x)",
    "e(x, y) -> PREV[1,2] f(x, y)",
    "p(x) -> ONCE[1,2] ONCE[0,1] q(x)",
]
CONJUNCTIONS = [
    "p(x) -> q(x)",
    "e(x, y) -> f(y, x)",
    "e(x, x) -> NOT p(x)",
    "e(x, 1) AND q(x) -> ONCE[0,2] p(x)",
    "t(x, y, 2) -> NOT ONCE[1,3] f(y, x)",
    "p(x) -> PREV[0,2] q(x)",
    "g(x) -> p(x)",
    "q(x) AND NOT g(x) -> ONCE[0,4] p(x)",
]
PROBES = [
    "p(x) -> ONCE[0,3] (EXISTS y. e(x, y) AND y > 1)",
    "e(x, y) -> ONCE[0,2] (EXISTS z. t(y, x, z) AND z != x)",
    "p(x) -> ONCE[0,3] (EXISTS y. t(x, y, y) AND y > 0)",
    "q(x) -> ONCE[1,3] (EXISTS y. t(x, 1, y) AND 1 <= y AND y != x)",
    "g(x) -> ONCE[0,2] (EXISTS y. e(x, y) AND y >= x)",
    "p(x) -> ONCE[1,2] (EXISTS y. e(x, y))",
]
PROBES_IN_CONTEXT = [
    "p(x) -> (EXISTS y. e(x, y) AND y >= 1) SINCE[1,*] q(x)",
    "f(x, y) -> (EXISTS z. t(x, z, y) AND z < 2 AND 1 <= y)"
    " SINCE[0,4] e(x, y)",
    "f(x, y) -> (EXISTS z. e(x, z) AND z > 0) SINCE[0,3] f(x, y)",
    "e(y, x) -> (EXISTS z. t(z, x, y) AND z = y) SINCE[1,*] e(y, x)",
]


@pytest.mark.parametrize("shape, text", [
    (shape, text)
    for shape, texts in (
        ("_forward", FORWARDED), ("_conjoin", CONJUNCTIONS),
        ("_probe", PROBES + PROBES_IN_CONTEXT),
    )
    for text in texts
])
def test_each_constraint_here_has_a_view_of_its_shape(shape, text):
    # every row everywhere, then a quiet step: every view is refreshed
    full = {name: set(rows) for name, rows in ROWS.items()}
    assert shape in drive(text, [(1, full), (1, {})])


@relaxed
@given(text=st.sampled_from(FORWARDED), script=steps)
def test_a_forwarded_leaf_is_its_leaf(text, script):
    drive(text, script)


@relaxed
@given(text=st.sampled_from(CONJUNCTIONS), script=steps)
def test_a_key_aligned_conjunction_is_set_algebra(text, script):
    drive(text, script)


@relaxed
@given(text=st.sampled_from(PROBES), script=steps)
def test_a_filtered_existential_is_an_index_probe(text, script):
    drive(text, script)


@relaxed
@given(text=st.sampled_from(PROBES_IN_CONTEXT), script=steps)
def test_a_filtered_existential_in_a_context_is_an_index_probe(
    text, script
):
    drive(text, script)
