"""Unit tests for the sliding-window PJoin extension."""

import pytest

from repro.core.config import PJoinConfig
from repro.core.windowed import WindowedPJoin
from repro.errors import ConfigError
from repro.memory.budget import GovernorSpec
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA_A = Schema.of("key", "a", name="A")
SCHEMA_B = Schema.of("key", "b", name="B")


@pytest.fixture
def joined(engine, cheap_cost_model):
    def build(window_ms=10.0, config=None):
        join = WindowedPJoin(
            engine, cheap_cost_model, SCHEMA_A, SCHEMA_B, "key", "key",
            config=config, window_ms=window_ms,
        )
        sink = Sink(engine, cheap_cost_model, keep_items=True)
        join.connect(sink)
        return join, sink

    return build


def push_at(engine, join, item, port, t):
    engine.schedule_at(t, lambda: join.push(item, port))


class TestValidation:
    def test_window_must_be_positive(self, joined):
        with pytest.raises(ConfigError):
            joined(window_ms=0)

    def test_memory_threshold_unsupported(self, joined):
        with pytest.raises(ConfigError):
            joined(config=PJoinConfig(memory_threshold=100))

    def test_governor_unsupported(self, engine, cheap_cost_model):
        # Expiry cuts each warm value chain at its first in-window entry;
        # a governor's demoted entries would never expire and would come
        # back behind newer ones, so governed runs emitted stale pairs.
        with pytest.raises(ConfigError, match="without a governor"):
            WindowedPJoin(
                engine, cheap_cost_model, SCHEMA_A, SCHEMA_B, "key", "key",
                window_ms=10.0, governor=GovernorSpec(budget_tuples=8),
            )


class TestWindowSemantics:
    def test_joins_within_window(self, engine, joined):
        join, sink = joined(window_ms=10.0)
        push_at(engine, join, Tuple(SCHEMA_A, (1, 0), ts=0.0), 0, 0.0)
        push_at(engine, join, Tuple(SCHEMA_B, (1, 0), ts=5.0), 1, 5.0)
        engine.run()
        assert sink.tuple_count == 1

    def test_expires_outside_window(self, engine, joined):
        join, sink = joined(window_ms=10.0)
        push_at(engine, join, Tuple(SCHEMA_A, (1, 0), ts=0.0), 0, 0.0)
        push_at(engine, join, Tuple(SCHEMA_B, (1, 0), ts=50.0), 1, 50.0)
        engine.run()
        assert sink.tuple_count == 0
        assert join.tuples_expired == 1

    def test_punctuation_purge_still_works(self, engine, joined):
        join, sink = joined(window_ms=1000.0, config=PJoinConfig(purge_threshold=1))
        push_at(engine, join, Tuple(SCHEMA_A, (1, 0), ts=0.0), 0, 0.0)
        push_at(
            engine, join, Punctuation.on_field(SCHEMA_B, "key", 1, ts=1.0), 1, 1.0
        )
        engine.run()
        # Window would keep it for 1000 ms; the punctuation purges now.
        assert join.state_size(0) == 0


class TestEarlyPropagation:
    def test_window_expiry_enables_propagation(self, engine, joined):
        """A punctuation blocked by state tuples becomes propagable once
        the window expires them — the paper's 'early punctuation
        propagation' interaction."""
        config = PJoinConfig(
            purge_threshold=1000,  # purging never helps in this test
            propagation_mode="push_count",
            propagate_count_threshold=1,
        )
        join, sink = joined(window_ms=10.0, config=config)
        push_at(engine, join, Tuple(SCHEMA_A, (1, 0), ts=0.0), 0, 0.0)
        push_at(
            engine, join, Punctuation.on_field(SCHEMA_A, "key", 1, ts=1.0), 0, 1.0
        )
        engine.run()
        assert sink.punctuation_count == 0  # blocked by the state tuple
        # A much later B tuple expires the A tuple from the window ...
        push_at(engine, join, Tuple(SCHEMA_B, (1, 0), ts=100.0), 1, 100.0)
        # ... and the next punctuation triggers a propagation run that
        # finds the first one free.
        push_at(
            engine, join, Punctuation.on_field(SCHEMA_A, "key", 2, ts=101.0), 0, 101.0
        )
        engine.run()
        assert sink.punctuation_count >= 1
        assert join.tuples_expired == 1
