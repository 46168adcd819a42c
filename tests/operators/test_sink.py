"""Unit tests for the sink."""

from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.tuples.item import END_OF_STREAM
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key")


def test_collects_tuples_and_punctuations(engine, cheap_cost_model):
    sink = Sink(engine, cheap_cost_model)
    sink.push(Tuple(SCHEMA, (1,)))
    sink.push(Punctuation.on_field(SCHEMA, "key", 1))
    sink.push(Tuple(SCHEMA, (2,)))
    engine.run()
    assert sink.tuple_count == 2
    assert sink.punctuation_count == 1
    assert len(sink.results) == 2
    assert len(sink.punctuations) == 1


def test_keep_items_false_keeps_counts_only(engine, cheap_cost_model):
    sink = Sink(engine, cheap_cost_model, keep_items=False)
    sink.push(Tuple(SCHEMA, (1,)))
    engine.run()
    assert sink.tuple_count == 1
    assert sink.results == []


def test_keep_items_false_still_keeps_punctuations(engine, cheap_cost_model):
    sink = Sink(engine, cheap_cost_model, keep_items=False)
    sink.push(Punctuation.on_field(SCHEMA, "key", 1))
    sink.accept_batch([Punctuation.on_field(SCHEMA, "key", 2)], 3.0, 0)
    engine.run()
    assert sink.punctuation_count == 2
    assert [p.ts for p in sink.punctuations] == [0.0, 3.0]


def test_result_multiset_ignores_timestamps(engine, cheap_cost_model):
    sink = Sink(engine, cheap_cost_model)
    sink.push(Tuple(SCHEMA, (1,), ts=1.0))
    sink.push(Tuple(SCHEMA, (1,), ts=2.0))
    engine.run()
    assert sink.result_multiset() == {(1,): 2}


def test_cumulative_output_series(engine, cheap_cost_model):
    sink = Sink(engine, cheap_cost_model)
    engine.schedule(1.0, lambda: sink.push(Tuple(SCHEMA, (1,))))
    engine.schedule(3.0, lambda: sink.push(Tuple(SCHEMA, (2,))))
    engine.run()
    assert sink.cumulative_output_series() == [(1.0, 1), (3.0, 2)]


def test_eos_time_recorded(engine, cheap_cost_model):
    sink = Sink(engine, cheap_cost_model)
    engine.schedule(4.5, lambda: sink.push(END_OF_STREAM))
    engine.run()
    assert sink.eos_time == 4.5
