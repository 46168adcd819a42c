"""Stream tuples.

A :class:`Tuple` is an immutable data element carrying its values, its
schema and the virtual time at which it entered the system (``ts``).
Timestamps are assigned by stream sources and preserved by operators;
join operators use them for XJoin-style duplicate prevention and for
sliding-window semantics.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence, Tuple as PyTuple

from repro.errors import SchemaError
from repro.tuples.schema import Schema


class Tuple:
    """An immutable, timestamped stream tuple.

    Parameters
    ----------
    schema:
        The :class:`~repro.tuples.schema.Schema` this tuple conforms to.
    values:
        Field values, one per schema field, in schema order.
    ts:
        Virtual time (milliseconds) at which the tuple entered the
        stream.  Defaults to ``0.0`` for tuples built outside a
        simulation (e.g. in unit tests).
    validate:
        When ``True`` (the default) values are checked against the
        schema.  Hot paths that construct tuples from already-validated
        values may pass ``False``.
    """

    __slots__ = ("schema", "values", "ts")

    def __init__(
        self,
        schema: Schema,
        values: Sequence[Any],
        ts: float = 0.0,
        validate: bool = True,
    ) -> None:
        values = tuple(values)
        if validate:
            if not isinstance(schema, Schema):
                raise SchemaError(f"expected Schema, got {schema!r}")
            schema.validate_values(values)
        self.schema = schema
        self.values = values
        self.ts = ts

    def value_of(self, field_name: str) -> Any:
        """Return the value of the named field."""
        return self.values[self.schema.index_of(field_name)]

    def __getitem__(self, key: Any) -> Any:
        """Index by position (``int``) or field name (``str``)."""
        if isinstance(key, str):
            return self.value_of(key)
        return self.values[key]

    @classmethod
    def fresh(cls, schema: Schema, values: PyTuple[Any, ...], ts: float) -> "Tuple":
        """Build a tuple from an already-validated value *tuple*.

        The hot-path constructor: joins emit hundreds of thousands of
        result tuples per run, and each one here skips ``__init__``'s
        ``tuple()`` copy and validation branch.  *values* must already
        be a ``tuple`` in schema order.
        """
        tup = cls.__new__(cls)
        tup.schema = schema
        tup.values = values
        tup.ts = ts
        return tup

    def with_ts(self, ts: float) -> "Tuple":
        """Return a copy of this tuple stamped with a new timestamp."""
        tup = Tuple.__new__(Tuple)
        tup.schema = self.schema
        tup.values = self.values
        tup.ts = ts
        return tup

    def as_dict(self) -> dict:
        """Return ``{field_name: value}`` for all fields."""
        return dict(zip(self.schema.field_names, self.values))

    def key(self) -> PyTuple[Any, ...]:
        """A hashable identity for result-multiset comparisons in tests.

        Two tuples with equal values and timestamps have equal keys even
        if they are distinct objects.
        """
        return self.values + (self.ts,)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return (
            self.values == other.values
            and self.ts == other.ts
            and self.schema == other.schema
        )

    def __hash__(self) -> int:
        return hash((self.values, self.ts))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.schema.field_names, self.values)
        )
        return f"Tuple({pairs}, ts={self.ts:g})"
