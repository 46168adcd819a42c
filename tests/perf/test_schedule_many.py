"""SimulationEngine.schedule_many and its adopters keep event order."""

import pytest

from repro.errors import SimulationError
from repro.metrics.collector import MetricsCollector
from repro.operators.base import Operator
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.streams.source import StreamSource
from repro.tuples.schema import Field, Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema([Field("key", int)], name="S")


def _recorder(order, label):
    return lambda: order.append(label)


class TestScheduleMany:
    def test_order_identical_to_sequential_schedule_at(self):
        # Same event mix through schedule_at and schedule_many: the
        # execution orders must be identical, including FIFO ties.
        times = [5.0, 1.0, 5.0, 3.0, 1.0, 8.0, 3.0]
        serial = SimulationEngine()
        serial_order = []
        for i, t in enumerate(times):
            serial.schedule_at(t, _recorder(serial_order, (t, i)))
        serial.run()

        batched = SimulationEngine()
        batched_order = []
        batched.schedule_many(
            (t, _recorder(batched_order, (t, i))) for i, t in enumerate(times)
        )
        batched.run()
        assert batched_order == serial_order
        assert batched.events_executed == serial.events_executed == len(times)

    def test_batch_interleaves_with_existing_events_fifo(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(2.0, _recorder(order, "pre"))
        engine.schedule_many([(2.0, _recorder(order, "batch"))])
        engine.run()
        assert order == ["pre", "batch"]  # earlier seq wins the tie

    def test_small_batch_into_large_heap(self):
        # One batch event among many eager ones keeps its time order.
        engine = SimulationEngine()
        order = []
        for i in range(100):
            engine.schedule_at(float(i), _recorder(order, i))
        engine.schedule_many([(0.5, _recorder(order, "x"))])
        engine.run()
        assert order[:2] == [0, "x"]
        assert len(order) == 101

    def test_batch_events_keep_the_seq_reserved_at_scheduling(self):
        # The batch's second event enters the heap only when the first
        # fires, yet still runs before a same-time event scheduled
        # after the batch.
        engine = SimulationEngine()
        order = []
        engine.schedule_many([
            (0.0, _recorder(order, "batch0")), (5.0, _recorder(order, "batch5")),
        ])
        engine.schedule_at(5.0, _recorder(order, "later5"))
        engine.run()
        assert order == ["batch0", "batch5", "later5"]

    def test_pending_events_counts_events_still_in_a_batch(self):
        engine = SimulationEngine()
        engine.schedule_many((float(t), lambda: None) for t in range(5))
        engine.schedule_at(2.5, lambda: None)
        assert engine.pending_events == 6
        engine.step()
        assert engine.pending_events == 5
        engine.run(until=2.5)
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0
        assert engine.events_executed == 6

    def test_past_event_raises_and_is_atomic(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.run()
        assert engine.now == 1.0
        with pytest.raises(SimulationError):
            engine.schedule_many([(2.0, lambda: None), (0.5, lambda: None)])
        assert engine.pending_events == 0  # nothing partially scheduled

    def test_empty_batch_is_a_no_op(self):
        engine = SimulationEngine()
        assert engine.schedule_many([]) == 0
        assert engine.pending_events == 0


class TestCollectorAdoption:
    def test_sample_times_unchanged(self):
        engine = SimulationEngine()
        collector = MetricsCollector(engine, interval_ms=10.0)
        seen = []
        collector.register_gauge("g", lambda: len(seen))
        collector.start(horizon_ms=45.0)
        engine.run()
        assert collector["g"].times == [0.0, 10.0, 20.0, 30.0, 40.0]


class _Recorder(Operator):
    """Zero-cost operator that logs every arriving item."""

    def __init__(self, engine):
        super().__init__(engine, CostModel().scaled(0.0), n_inputs=1)
        self.received = []

    def handle(self, item, port):
        self.received.append(item)
        return 0.0


class TestSourceDisorderFlushAdoption:
    def _run(self, schedule, slack):
        engine = SimulationEngine()
        sink = _Recorder(engine)
        source = StreamSource(
            engine, schedule, disorder_slack_ms=slack, name="src"
        )
        source.connect(sink)
        source.start()
        engine.run()
        return source, sink

    def test_eos_flush_order_unchanged(self):
        # Items arrive displaced; a large slack holds them all until
        # end-of-stream, where the batched flush must release them in
        # timestamp order — exactly what sequential delivery produced.
        items = {ts: Tuple(SCHEMA, (int(ts),), ts=ts) for ts in
                 (5.0, 1.0, 4.0, 2.0, 3.0)}
        schedule = [(10.0, items[5.0]), (10.0, items[1.0]),
                    (10.0, items[4.0]), (10.0, items[2.0]),
                    (10.0, items[3.0])]
        source, sink = self._run(schedule, slack=1000.0)
        assert [t.ts for t in sink.received] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert source.items_sent == 5
        assert source.exhausted
        assert sink.finished  # END_OF_STREAM followed the flush

    def test_flush_delivery_counts_match(self):
        items = [Tuple(SCHEMA, (i,), ts=float(i)) for i in range(20)]
        schedule = [(25.0, item) for item in reversed(items)]
        source, sink = self._run(schedule, slack=1000.0)
        assert source.items_sent == 20
        assert [t.ts for t in sink.received] == [float(i) for i in range(20)]

    def test_empty_buffer_skips_batching(self):
        source, sink = self._run([], slack=50.0)
        assert source.items_sent == 0
        assert sink.finished
