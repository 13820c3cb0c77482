"""Value types and attribute domains for the relational substrate.

The engine is deliberately first-order and function-free, as in the
paper: attribute values are immutable Python scalars.  Three domains are
supported — integers, strings, and floats — plus ``ANY`` for untyped
attributes.  Timestamps are plain non-negative integers and are *not* a
relation domain; they appear only in the auxiliary relations maintained
by the checker.

NaN is not a value: it is unequal to itself, so a row carrying it can
be neither found nor deleted by an equal-looking row, has no place in
the total order comparisons are normalised under, and is not JSON.
The infinities are ordinary floats and stay.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple, Union

from repro.errors import ValueTypeError

#: A single attribute value.
Value = Union[int, str, float]

#: An immutable database tuple (one row of a relation).
Row = Tuple[Value, ...]


class Domain(enum.Enum):
    """Domain (type) of a relation attribute."""

    INT = "int"
    STR = "str"
    FLOAT = "float"
    ANY = "any"

    def contains(self, value: Value) -> bool:
        """Return whether ``value`` belongs to this domain.

        Booleans are rejected from ``INT`` even though ``bool`` subclasses
        ``int`` in Python, because a boolean attribute value is almost
        always a bug in workload code; NaN is rejected everywhere (see
        the module docstring).
        """
        if isinstance(value, bool):
            return False
        if self is Domain.INT:
            return isinstance(value, int)
        if self is Domain.STR:
            return isinstance(value, str)
        if self is Domain.FLOAT:
            return isinstance(value, (int, float)) and value == value
        return isinstance(value, (int, str, float)) and value == value

    def check(self, value: Value, context: str = "") -> Value:
        """Return ``value`` if it belongs to the domain, else raise.

        Args:
            value: the candidate value.
            context: optional text naming the attribute, used in errors.

        Raises:
            ValueTypeError: if the value is outside the domain.
        """
        if not self.contains(value):
            where = f" for {context}" if context else ""
            raise ValueTypeError(
                f"value {value!r} is not in domain {self.value}{where}"
            )
        return value

    @property
    def exact_types(self) -> FrozenSet[type]:
        """The built-in types all of whose instances belong to the
        domain (NaN aside, where ``float`` is among them): a value of
        exactly such a type needs no further look, one of a subclass
        (an ``IntEnum``, a ``bool``) goes through :meth:`contains`."""
        return _EXACT_TYPES[self]

    @classmethod
    def of(cls, value: Value) -> "Domain":
        """Return the narrowest domain containing ``value``."""
        if isinstance(value, bool):
            raise ValueTypeError("boolean values are not supported")
        if isinstance(value, int):
            return cls.INT
        if isinstance(value, str):
            return cls.STR
        if isinstance(value, float):
            if value != value:
                raise ValueTypeError("NaN is not a value")
            return cls.FLOAT
        raise ValueTypeError(f"unsupported value type: {type(value).__name__}")

    @classmethod
    def parse(cls, text: str) -> "Domain":
        """Parse a domain name (``"int"``, ``"str"``, ``"float"``, ``"any"``)."""
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueTypeError(f"unknown domain name: {text!r}") from None


_EXACT_TYPES = {
    Domain.INT: frozenset({int}),
    Domain.STR: frozenset({str}),
    Domain.FLOAT: frozenset({int, float}),
    Domain.ANY: frozenset({int, str, float}),
}


def is_value(obj: object) -> bool:
    """Return whether ``obj`` is a legal attribute value (NaN is not)."""
    return (
        not isinstance(obj, bool)
        and isinstance(obj, (int, str, float))
        and obj == obj
    )


def check_row(values: Tuple[Value, ...]) -> Row:
    """Validate that every element of ``values`` is a legal value.

    Returns the tuple unchanged so callers can validate inline.
    """
    for v in values:
        if not is_value(v):
            raise ValueTypeError(f"illegal attribute value: {v!r}")
    return values


def _typed_cells(row: Row) -> list:
    return [(type(value).__name__, value) for value in row]


def sorted_rows(relations: Mapping[str, Iterable[Row]]) -> Dict[str, list]:
    """``{relation: its rows, sorted}`` — the one order every writer
    (``to_dict`` of a transaction or a state, the run journal, history
    files) puts rows in.

    Rows sort as tuples.  Where an untyped column mixes numbers and
    strings they do not compare, and that relation's rows are ordered
    by ``(type name, value)`` per cell instead.
    """
    ordered = {}
    for rel, rows in relations.items():
        try:
            ordered[rel] = sorted(rows)
        except TypeError:
            ordered[rel] = sorted(rows, key=_typed_cells)
    return ordered
