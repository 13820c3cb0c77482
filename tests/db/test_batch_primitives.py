"""The batch primitives of the step path against their row-by-row
definitions: what is compiled per schema or per header and applied to a
batch in C must accept, reject, raise and return exactly what the plain
loop does.
"""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.algebra import tuple_of
from repro.db.schema import RelationSchema
from repro.db.types import Domain
from repro.errors import SchemaError, ValueTypeError


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


class Reading(float):
    pass


#: legal values of every built-in type, values of subclasses (legal, but
#: not accepted on sight), and the illegal ones: bools, NaN, None
VALUES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["", "a", "b"]),
    st.sampled_from([0.0, 1.5, -2.5, float("inf")]),
    st.sampled_from([Level.LOW, Level.HIGH, Name("a"), Reading(0.5)]),
    st.sampled_from([True, False, float("nan"), Reading("nan"), None]),
)


@st.composite
def schemas_and_batches(draw):
    domains = draw(st.lists(st.sampled_from(list(Domain)), max_size=3))
    schema = RelationSchema(
        "r", [(f"a{i}", domain) for i, domain in enumerate(domains)]
    )
    # mostly rows of the right length whose values suit their column,
    # so that clean batches and batches with one bad row both come up
    suited = {
        Domain.INT: st.integers(-2, 2),
        Domain.STR: st.sampled_from(["", "a", "b"]),
        Domain.FLOAT: st.one_of(st.integers(-2, 2), st.floats(-2, 2)),
        Domain.ANY: VALUES,
    }
    good = st.tuples(*(suited[domain] for domain in domains))
    any_row = st.lists(VALUES, max_size=4).map(tuple)
    rows = draw(st.lists(st.one_of(good, good, any_row), max_size=6))
    return schema, frozenset(rows)


def outcome(check):
    try:
        check()
    except SchemaError as error:
        return type(error), str(error)
    return None


@settings(max_examples=400, deadline=None)
@given(case=schemas_and_batches())
def test_validate_rows_is_validate_row_for_every_row(case):
    schema, batch = case

    def row_by_row():
        for row in batch:
            schema.validate_row(row)

    expected = outcome(row_by_row)
    assert outcome(lambda: schema.validate_rows(batch)) == expected
    bad = [
        row for row in batch
        if outcome(lambda: schema.validate_row(row)) is not None
    ]
    assert (expected is None) == (not bad)
    if len(bad) == 1:
        assert expected == outcome(lambda: schema.validate_row(bad[0]))


def test_validate_rows_examples():
    schema = RelationSchema("r", [("k", "int"), ("v", "float"), ("w", "any")])
    schema.validate_rows(frozenset())
    schema.validate_rows({(1, 2, "x"), (2, 0.5, 3), (3, float("inf"), 0.5)})
    # accepted, though not on sight: values of subclasses
    schema.validate_rows({(Level.LOW, Reading(1.0), Name("n")), (1, 2, 3)})
    with pytest.raises(SchemaError, match="arity 3"):
        schema.validate_rows({(1, 2, 3), (1, 2)})
    with pytest.raises(ValueTypeError, match="r.k"):
        schema.validate_rows({(1, 2, 3), (True, 5, 3)})
    with pytest.raises(ValueTypeError, match="r.v"):
        schema.validate_rows({(1, 2, 3), (2, float("nan"), 3)})
    with pytest.raises(ValueTypeError, match="r.w"):
        schema.validate_rows({(1, 2, 3), (2, 2, float("nan"))})
    with pytest.raises(ValueTypeError, match="r.v"):
        schema.validate_rows({(1, "2", 3)})
    RelationSchema("nullary", []).validate_rows({()})


@settings(max_examples=200, deadline=None)
@given(
    positions=st.lists(st.integers(0, 3), max_size=3),
    row=st.tuples(*[st.integers(0, 9)] * 4),
)
def test_tuple_of_projects_onto_any_number_of_positions(positions, row):
    # what the one- and zero-position lambdas used to return
    expected = tuple(row[i] for i in positions)
    projected = tuple_of(positions)(row)
    assert projected == expected and type(projected) is tuple
    assert list(map(tuple_of(positions), [row, row])) == [expected] * 2
