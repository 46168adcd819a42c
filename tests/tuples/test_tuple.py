"""Unit tests for stream tuples."""

import pytest

from repro.errors import SchemaError
from repro.tuples.schema import Field, Schema
from repro.tuples.tuple import Tuple


@pytest.fixture
def schema():
    return Schema([Field("key", int), Field("name", str)], name="S")


class TestTuple:
    def test_values_and_timestamp(self, schema):
        tup = Tuple(schema, (1, "a"), ts=3.5)
        assert tup.values == (1, "a")
        assert tup.ts == 3.5

    def test_value_of_by_name(self, schema):
        tup = Tuple(schema, (1, "a"))
        assert tup.value_of("name") == "a"

    def test_getitem_by_position_and_name(self, schema):
        tup = Tuple(schema, (1, "a"))
        assert tup[0] == 1
        assert tup["key"] == 1

    def test_validation_rejects_wrong_arity(self, schema):
        with pytest.raises(SchemaError):
            Tuple(schema, (1,))

    def test_validation_rejects_wrong_type(self, schema):
        with pytest.raises(SchemaError):
            Tuple(schema, ("one", "a"))

    def test_validation_can_be_skipped(self, schema):
        tup = Tuple(schema, ("one", "a"), validate=False)
        assert tup.values == ("one", "a")

    def test_with_ts_copies(self, schema):
        tup = Tuple(schema, (1, "a"), ts=1.0)
        other = tup.with_ts(9.0)
        assert other.ts == 9.0
        assert tup.ts == 1.0
        assert other.values == tup.values

    def test_as_dict(self, schema):
        assert Tuple(schema, (1, "a")).as_dict() == {"key": 1, "name": "a"}

    def test_key_distinguishes_timestamps(self, schema):
        assert Tuple(schema, (1, "a"), ts=1.0).key() != Tuple(
            schema, (1, "a"), ts=2.0
        ).key()

    def test_equality(self, schema):
        assert Tuple(schema, (1, "a"), ts=1.0) == Tuple(schema, (1, "a"), ts=1.0)
        assert Tuple(schema, (1, "a"), ts=1.0) != Tuple(schema, (2, "a"), ts=1.0)

    def test_hash_consistency(self, schema):
        a = Tuple(schema, (1, "a"), ts=1.0)
        b = Tuple(schema, (1, "a"), ts=1.0)
        assert hash(a) == hash(b)

    def test_iter_and_len(self, schema):
        tup = Tuple(schema, (1, "a"))
        assert list(tup) == [1, "a"]
        assert len(tup) == 2

    def test_repr_shows_fields(self, schema):
        assert "key=1" in repr(Tuple(schema, (1, "a")))
