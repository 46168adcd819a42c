"""AlignmentLedger and AlignedMerger unit behaviour."""

import pytest

from repro.operators.base import Operator
from repro.operators.sink import Sink
from repro.punctuations.patterns import Constant, WILDCARD, make_enumeration
from repro.punctuations.punctuation import Punctuation
from repro.query.plan import QueryPlan
from repro.shard.merger import AlignedMerger, AlignmentLedger
from repro.shard.routing import shard_cover
from repro.tuples.schema import Field, Schema
from repro.tuples.tuple import Tuple


class TestAlignmentLedger:
    def test_single_piece_completes_immediately(self):
        ledger = AlignmentLedger()
        ledger.register(Constant(5), [(2, Constant(5))])
        matched, original = ledger.settle(2, Constant(5))
        assert matched
        assert original == Constant(5)
        assert ledger.subscriptions_completed == 1
        assert ledger.subscriptions_open == 0

    def test_multi_piece_waits_for_the_last_shard(self):
        ledger = AlignmentLedger()
        pattern = make_enumeration({1, 2, 3, 4})
        cover = shard_cover(pattern, 3)
        assert len(cover) > 1
        ledger.register(pattern, cover)
        for shard, piece in cover[:-1]:
            matched, original = ledger.settle(shard, piece)
            assert matched
            assert original is None
        shard, piece = cover[-1]
        matched, original = ledger.settle(shard, piece)
        assert matched
        assert original == pattern

    def test_unexpected_piece_is_unmatched(self):
        ledger = AlignmentLedger()
        matched, original = ledger.settle(0, Constant(9))
        assert not matched
        assert original is None

    def test_duplicate_patterns_resolve_fifo(self):
        # Both streams punctuate the same constant: two subscriptions,
        # two completions — one per shard release.
        ledger = AlignmentLedger()
        ledger.register(Constant(7), [(1, Constant(7))])
        ledger.register(Constant(7), [(1, Constant(7))])
        assert ledger.settle(1, Constant(7)) == (True, Constant(7))
        assert ledger.settle(1, Constant(7)) == (True, Constant(7))
        assert ledger.settle(1, Constant(7)) == (False, None)
        assert ledger.subscriptions_completed == 2


LEFT = Schema([Field("key", int), Field("a", int)], name="L")
RIGHT = Schema([Field("key", int), Field("b", int)], name="R")


def make_merger(n_shards=2):
    plan = QueryPlan()
    ledger = AlignmentLedger()
    out_schema = LEFT.concat(RIGHT, name="out")
    from repro.operators.sink import Sink

    merger = AlignedMerger(
        plan.engine, plan.cost_model, n_shards, ledger, out_schema, 0
    )
    sink = Sink(plan.engine, plan.cost_model)
    merger.connect(sink)
    return plan, ledger, merger, sink, out_schema


class TestAlignedMerger:
    def test_tuples_pass_through(self):
        plan, _ledger, merger, sink, out_schema = make_merger()
        merger.push(Tuple(out_schema, (1, 2, 1, 3)), 0)
        merger.push(Tuple(out_schema, (4, 5, 4, 6)), 1)
        plan.engine.run()
        assert sink.tuple_count == 2
        assert merger.tuples_merged == 2

    def test_punctuation_emitted_once_after_all_shards(self):
        plan, ledger, merger, sink, out_schema = make_merger()
        ledger.register(Constant(3), [(0, Constant(3)), (1, Constant(3))])
        patterns = [Constant(3)] + [WILDCARD] * (out_schema.arity - 1)
        merger.push(Punctuation(out_schema, patterns), 0)
        plan.engine.run()
        assert sink.punctuation_count == 0  # still waiting for shard 1
        merger.push(Punctuation(out_schema, patterns), 1)
        plan.engine.run()
        assert sink.punctuation_count == 1
        emitted = sink.punctuations[0]
        assert emitted.patterns[0] == Constant(3)
        assert all(p is WILDCARD for p in emitted.patterns[1:])
        assert merger.punctuations_merged == 1

    def test_unregistered_punctuation_is_held(self):
        plan, _ledger, merger, sink, out_schema = make_merger()
        patterns = [Constant(9)] + [WILDCARD] * (out_schema.arity - 1)
        merger.push(Punctuation(out_schema, patterns), 0)
        plan.engine.run()
        assert sink.punctuation_count == 0
        assert merger.punctuations_unaligned == 1


class _Shard(Operator):
    """Stands in for a shard: its outboxes are handed in by the test."""

    def handle(self, item, port):
        raise AssertionError("a stand-in shard receives no input")


class _OrderedSink(Sink):
    """A sink that also records the interleaved arrival order."""

    def __init__(self, engine, cost_model, keep_items):
        super().__init__(engine, cost_model, keep_items=keep_items)
        self.stream = []

    def handle(self, item, port):
        self.stream.append((_describe(item), self.engine.now))
        return super().handle(item, port)

    def accept_batch(self, items, now, port):
        self.stream.extend((_describe(item), now) for item in items)
        return super().accept_batch(items, now, port)


def _describe(item):
    if isinstance(item, Tuple):
        return ("tuple", item.values)
    return ("punct", tuple(item.patterns))


N_SHARDS = 3


def _deliveries(out_schema):
    """(time, shard, outbox) triples plus the router's registrations.

    The outboxes mix tuples (some already stamped with the delivery
    time, some not) with punctuations that complete a multi-piece
    subscription mid-outbox, settle duplicate single-piece
    subscriptions, settle a piece but leave its subscription open, or
    were never registered.
    """
    rest = [WILDCARD] * (out_schema.arity - 1)

    def tup(key, ts):
        return Tuple(out_schema, (key, key + 1, key, key + 2), ts=ts)

    def punct(pattern, ts):
        return Punctuation(out_schema, [pattern] + rest, ts=ts)

    enum = make_enumeration({1, 2, 3, 4, 5, 6})
    cover = shard_cover(enum, N_SHARDS)
    assert len(cover) == N_SHARDS
    seven = Constant(7)
    [(s7, _)] = shard_cover(seven, N_SHARDS)
    registrations = [(enum, cover), (seven, [(s7, seven)]), (seven, [(s7, seven)])]
    (first, p0), (second, p1), (last, p2) = cover
    deliveries = [
        (1.0, first, [tup(1, 0.5), punct(p0, 0.5), tup(2, 1.0)]),
        (1.0, s7, [punct(seven, 0.2), tup(7, 0.2), punct(seven, 1.0), tup(7, 0.9)]),
        (2.0, 0, [punct(Constant(9), 1.5), tup(3, 1.5)]),
        (2.0, second, [tup(4, 2.0), punct(p1, 1.0)]),
        (3.0, last, [tup(5, 2.5), punct(p2, 2.5), tup(6, 2.5), tup(6, 3.0)]),
        (4.0, s7, [punct(seven, 4.0), tup(8, 3.5)]),
    ]
    return registrations, deliveries


def _merge(batched, keep_items):
    """Run the scripted deliveries through one merger; observe it."""
    plan = QueryPlan()
    engine, cost_model = plan.engine, plan.cost_model
    ledger = AlignmentLedger()
    out_schema = LEFT.concat(RIGHT, name="out")
    merger = AlignedMerger(engine, cost_model, N_SHARDS, ledger, out_schema, 0)
    if not batched:
        merger._accepts_batches = False
    handled = []
    handle = merger.handle

    def counting_handle(item, port):
        handled.append(item)
        return handle(item, port)

    merger.handle = counting_handle
    sink = _OrderedSink(engine, cost_model, keep_items)
    merger.connect(sink)
    shards = [_Shard(engine, cost_model, name=f"s{i}") for i in range(N_SHARDS)]
    for port, shard in enumerate(shards):
        shard.connect(merger, port)
    registrations, deliveries = _deliveries(out_schema)
    for original, cover in registrations:
        ledger.register(original, cover)
    for when, port, outbox in deliveries:
        engine.schedule(when, lambda s=shards[port], o=outbox: s._deliver(o))
    for shard in shards:
        engine.schedule(5.0, lambda s=shard: s._finish_item([], True))
    engine.run()
    observed = {
        "results": [(t.values, t.ts) for t in sink.results],
        "punctuations": [(tuple(p.patterns), p.ts) for p in sink.punctuations],
        "stream": sink.stream,
        "tuple_times": sink.tuple_arrival_times,
        "punctuation_times": sink.punctuation_arrival_times,
        "eos_time": sink.eos_time,
        "merger": merger.counters(),
        "sink": sink.counters(),
        "ledger": ledger.counters(),
        "shards": [shard.counters() for shard in shards],
    }
    return observed, handled


class TestBatchedMerge:
    """accept_batch against item-at-a-time delivery of the same outboxes."""

    @pytest.mark.parametrize("keep_items", [True, False])
    def test_batch_path_matches_per_item_delivery(self, keep_items):
        batched, batched_handled = _merge(True, keep_items)
        per_item, per_item_handled = _merge(False, keep_items)
        assert batched_handled == []  # every outbox took the batch path
        assert len(per_item_handled) == 17
        assert batched == per_item
        merger = batched["merger"]
        assert merger["punctuations_merged"] == 3
        assert merger["punctuations_unaligned"] == 2
        assert merger["subscriptions_open"] == 0
        assert merger["tuples_merged"] == 10
        assert batched["sink"]["tuples_in"] == 10
        assert batched["eos_time"] == 5.0

    def test_merged_punctuations_stay_in_place(self):
        observed, _ = _merge(True, True)
        seven = (Constant(7),) + (WILDCARD,) * 3
        at_one = [kind for kind, now in observed["stream"] if now == 1.0]
        # Shard s7's outbox at t=1 settles two single-piece
        # subscriptions around a tuple: both merged punctuations keep
        # their place in the outbox.
        assert at_one[-4:] == [
            ("punct", seven), ("tuple", (7, 8, 7, 9)),
            ("punct", seven), ("tuple", (7, 8, 7, 9)),
        ]
        assert all(ts == now for (_, ts), now in zip(
            observed["results"], observed["tuple_times"]
        ))
