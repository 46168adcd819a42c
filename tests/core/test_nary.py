"""Unit tests for the n-ary PJoin extension."""

from collections import Counter
from itertools import product

import pytest

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.errors import ConfigError, OperatorError
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.tuples.item import END_OF_STREAM
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMAS = [
    Schema.of("key", "a", name="A"),
    Schema.of("key", "b", name="B"),
    Schema.of("key", "c", name="C"),
]


@pytest.fixture
def joined(engine, cheap_cost_model):
    def build(config=None):
        join = NaryPJoin(
            engine, cheap_cost_model, SCHEMAS, ["key", "key", "key"], config=config
        )
        sink = Sink(engine, cheap_cost_model, keep_items=True)
        join.connect(sink)
        return join, sink

    return build


def tup(stream, key, v=0):
    return Tuple(SCHEMAS[stream], (key, v))


def punct(stream, spec):
    return Punctuation.on_field(SCHEMAS[stream], "key", spec)


class TestValidation:
    def test_needs_two_streams(self, engine, cheap_cost_model):
        with pytest.raises(OperatorError):
            NaryPJoin(engine, cheap_cost_model, SCHEMAS[:1], ["key"])

    def test_fields_must_match_schemas(self, engine, cheap_cost_model):
        with pytest.raises(OperatorError):
            NaryPJoin(engine, cheap_cost_model, SCHEMAS, ["key", "key"])

    def test_memory_threshold_unsupported(self, engine, cheap_cost_model):
        with pytest.raises(ConfigError):
            NaryPJoin(
                engine, cheap_cost_model, SCHEMAS, ["key"] * 3,
                config=PJoinConfig(memory_threshold=100),
            )

    @pytest.mark.parametrize("mode", ["push_time", "push_pairs", "pull"])
    def test_unsupported_propagation_modes_rejected(
        self, engine, cheap_cost_model, mode
    ):
        with pytest.raises(ConfigError, match="propagation modes"):
            NaryPJoin(
                engine, cheap_cost_model, SCHEMAS, ["key"] * 3,
                config=PJoinConfig(propagation_mode=mode),
            )


class TestJoining:
    def test_result_needs_a_match_from_every_stream(self, engine, joined):
        join, sink = joined()
        join.push(tup(0, 1, 10), 0)
        join.push(tup(1, 1, 20), 1)
        engine.run()
        assert sink.tuple_count == 0  # stream C has no key=1 yet
        join.push(tup(2, 1, 30), 2)
        engine.run()
        assert sink.tuple_count == 1
        assert sink.results[0].values == (1, 10, 1, 20, 1, 30)

    def test_cross_product_of_matches(self, engine, joined):
        join, sink = joined()
        for v in (1, 2):
            join.push(tup(0, 7, v), 0)
        for v in (3, 4):
            join.push(tup(1, 7, v), 1)
        join.push(tup(2, 7, 5), 2)
        engine.run()
        assert sink.tuple_count == 4  # 2 x 2 matches completed by C

    def test_matches_triple_nested_loop_reference(self, engine, joined):
        join, sink = joined()
        import random

        rng = random.Random(5)
        streams = [[], [], []]
        order = []
        for i in range(90):
            stream = rng.randrange(3)
            key = rng.randrange(4)
            t = tup(stream, key, i)
            streams[stream].append(t)
            order.append((t, stream))
        for t, stream in order:
            join.push(t, stream)
        engine.run()
        expected = Counter(
            a.values + b.values + c.values
            for a, b, c in product(*streams)
            if a["key"] == b["key"] == c["key"]
        )
        got = Counter(t.values for t in sink.results)
        assert got == expected


class TestPurging:
    def test_purge_requires_all_other_streams_covered(self, engine, joined):
        join, sink = joined(PJoinConfig(purge_threshold=1))
        join.push(tup(0, 1), 0)
        join.push(punct(1, 1), 1)  # only B covers key=1
        engine.run()
        assert join.state_size(0) == 1  # C may still deliver partners
        join.push(punct(2, 1), 2)  # now B and C both cover it
        engine.run()
        assert join.state_size(0) == 0
        assert join.tuples_purged == 1

    def test_on_the_fly_drop_requires_all_other_streams(self, engine, joined):
        join, sink = joined(PJoinConfig(purge_threshold=1))
        join.push(punct(1, 5), 1)
        join.push(tup(0, 5), 0)
        engine.run()
        assert join.tuples_dropped_on_fly == 0
        join.push(punct(2, 5), 2)
        join.push(tup(0, 5), 0)
        engine.run()
        assert join.tuples_dropped_on_fly == 1


class TestPropagation:
    def test_propagates_on_count_threshold(self, engine, joined):
        join, sink = joined(
            PJoinConfig(
                purge_threshold=1,
                propagation_mode="push_count",
                propagate_count_threshold=1,
            )
        )
        join.push(punct(0, 3), 0)
        engine.run()
        assert sink.punctuation_count == 1
        out = sink.punctuations[0]
        # The output join column is constrained, everything else wildcard.
        (index,) = join._out_join_indices
        assert out.patterns[index].matches(3)
        assert sum(1 for p in out.patterns if not p.is_wildcard) == 1

    def test_eos_finishes(self, engine, joined):
        join, sink = joined(
            PJoinConfig(propagation_mode="push_count",
                        propagate_count_threshold=1000)
        )
        join.push(punct(0, 3), 0)
        for port in range(3):
            join.push(END_OF_STREAM, port)
        engine.run()
        assert sink.finished
        assert sink.punctuation_count == 1


class TestRestore:
    def test_restored_join_keeps_counting(self, engine, joined):
        """Per-side counters resume from the snapshot and keep counting."""
        join, _ = joined()
        for key in range(5):
            for stream in range(3):
                join.push(tup(stream, key), stream)
        engine.run()
        restored, _ = joined()
        restored.restore_state(join.snapshot_state())
        for key in range(5, 9):
            for stream in range(3):
                restored.push(tup(stream, key), stream)
        engine.run()
        counters = restored.counters()
        assert counters["side.input0.tuples_in"] == 9
        assert counters["side.input0.probe_count"] == 18
