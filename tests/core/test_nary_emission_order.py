"""The n-ary join's result *order* is pinned, not just its multiset.

Results come out as nested loops over the other streams' matches in
the arriving side's probe order (the first probe stream outermost),
with the columns always in stream order.  The planner's equivalence
property compares multisets only; these tests compare ordered lists
against a nested-loop reference for n = 2, 3 and 4 under every plan
``set_plan`` can install, after a mid-run plan switch and across a
snapshot/restore round trip.
"""

import random
from itertools import permutations

import pytest

from repro.core.nary import NaryPJoin
from repro.operators.sink import Sink
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple


def schemas(n):
    return [Schema.of("key", f"v{i}", name=f"S{i}") for i in range(n)]


def build(engine, cost_model, n):
    join = NaryPJoin(engine, cost_model, schemas(n), ["key"] * n)
    sink = Sink(engine, cost_model, keep_items=True)
    join.connect(sink)
    return join, sink


def nested_loops(side, new_values, probe_order, matches_by_stream, n):
    """Result values for one arrival: plain nested loops, probe order."""
    out = []

    def loop(depth, chosen):
        if depth == len(probe_order):
            chosen[side] = new_values
            out.append(sum((chosen[s] for s in range(n)), ()))
            return
        stream = probe_order[depth]
        for values in matches_by_stream[stream]:
            loop(depth + 1, {**chosen, stream: values})

    loop(0, {})
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_emit_combinations_under_every_plan(engine, cheap_cost_model, n):
    join, _ = build(engine, cheap_cost_model, n)
    rng = random.Random(n)
    for order in permutations(range(n)):
        join.set_plan(order)
        for side in range(n):
            probe = join.probe_orders[side]
            assert probe == tuple(s for s in order if s != side)
            matches = {
                s: [(7, f"{s}.{i}") for i in range(rng.randint(1, 3))]
                for s in probe
            }
            new_values = (7, f"new{side}")
            start = len(join._outbox)
            join._emit_combinations(
                Tuple(schemas(n)[side], new_values),
                side,
                [matches[s] for s in probe],
            )
            got = [t.values for t in join._outbox[start:]]
            assert got == nested_loops(side, new_values, probe, matches, n)


def arrivals(n, count, seed):
    rng = random.Random(seed)
    return [
        (rng.randrange(n), rng.randrange(3), i) for i in range(count)
    ]


def reference_run(n, items, plans):
    """Ordered results of *items*, switching plan at the given steps."""
    state = [{} for _ in range(n)]
    order = tuple(range(n))
    out = []
    for step, (side, key, seq) in enumerate(items):
        order = plans.get(step, order)
        probe = tuple(s for s in order if s != side)
        matches = {s: state[s].get(key, []) for s in probe}
        values = (key, seq)
        if all(matches.values()):
            out += nested_loops(side, values, probe, matches, n)
        state[side].setdefault(key, []).append(values)
    return out


def feed(engine, join, n, items):
    for side, key, seq in items:
        join.push(Tuple(schemas(n)[side], (key, seq)), side)
    engine.run()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ordered_results_across_a_mid_run_plan_switch(engine, cheap_cost_model, n):
    items = arrivals(n, 40, seed=10 + n)
    switched = tuple(reversed(range(n)))
    join, sink = build(engine, cheap_cost_model, n)
    feed(engine, join, n, items[:20])
    join.set_plan(switched)
    feed(engine, join, n, items[20:])
    got = [t.values for t in sink.results]
    assert got == reference_run(n, items, {20: switched})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ordered_results_across_snapshot_restore(engine, cheap_cost_model, n):
    items = arrivals(n, 40, seed=20 + n)
    switched = tuple(range(1, n)) + (0,)
    join, sink = build(engine, cheap_cost_model, n)
    join.set_plan(switched)
    feed(engine, join, n, items[:20])
    snap = join.snapshot_state()
    restored, restored_sink = build(engine, cheap_cost_model, n)
    restored.restore_state(snap)
    assert restored.stream_order == switched
    feed(engine, restored, n, items[20:])
    got = [t.values for t in sink.results + restored_sink.results]
    assert got == reference_run(n, items, {0: switched})
