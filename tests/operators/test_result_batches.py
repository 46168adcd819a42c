"""A join's results travel as one batch per probe; delivery is unchanged.

Joins append one :class:`~repro.tuples.batch.ResultBatch` per probe to
their outbox.  A sink that takes whole outboxes counts each batch by its
length and builds tuples only when it keeps items; an operator fed item
by item receives the batch's results as tuples, stamped with the
delivery time.  These tests run every join both ways -- as is, and with
the sink fed item by item -- with and without kept items, and require
the same ordered results, punctuations, arrival times, counts, sampled
output series and manifests.
"""

import pytest

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.core.pjoin import PJoin
from repro.core.windowed import WindowedPJoin
from repro.metrics.collector import MetricsCollector
from repro.obs.manifest import build_manifest
from repro.operators.binary import LEFT
from repro.operators.select import Select
from repro.operators.shj import SymmetricHashJoin
from repro.operators.sink import Sink
from repro.operators.xjoin import XJoin
from repro.planner import PlannerSpec, get_preset
from repro.query.plan import QueryPlan
from repro.shard.operator import sharded_pjoin
from repro.storage.partition import StateEntry
from repro.tuples.batch import ResultBatch
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple
from repro.workloads import generate_nary_workload, generate_workload

PUNCTUATED = PJoinConfig(
    purge_threshold=1, index_building="eager", propagation_mode="push_pairs"
)
LAZY = PJoinConfig(purge_threshold=20)


def binary_input():
    return generate_workload(
        n_tuples_per_stream=300, punct_spacing_a=20, punct_spacing_b=20,
        active_values=12, seed=5,
    )


def nary_input():
    spec = get_preset("nary_drift").with_overrides(n_tuples_per_stream=200, seed=3)
    return generate_nary_workload(spec)


def binary(cls, **kwargs):
    def build(plan, workload):
        return cls(
            plan.engine, plan.cost_model,
            workload.schemas[0], workload.schemas[1],
            workload.join_fields[0], workload.join_fields[1],
            **kwargs,
        )

    return build


def nary(planner):
    def build(plan, workload):
        return NaryPJoin(
            plan.engine, plan.cost_model, workload.schemas, workload.join_fields,
            config=PJoinConfig(purge_threshold=4), planner=planner,
        )

    return build


def two_shards(plan, workload):
    return sharded_pjoin(
        plan.engine, plan.cost_model,
        workload.schemas[0], workload.schemas[1],
        workload.join_fields[0], workload.join_fields[1],
        2, config=PUNCTUATED,
    )


def keep_even_keys(plan, join):
    index = join.join_indices[0]  # left values come first in a result
    return Select(plan.engine, plan.cost_model, lambda t: t.values[index] % 2 == 0)


# case -> (join builder, input builder, downstream operator builder or None)
CASES = {
    "pjoin/eager": (binary(PJoin, config=PUNCTUATED), binary_input, None),
    "pjoin/lazy": (binary(PJoin, config=LAZY), binary_input, None),
    "pjoin/memory_threshold": (
        binary(PJoin, config=PUNCTUATED.with_overrides(memory_threshold=40)),
        binary_input, None,
    ),
    "windowed": (
        binary(WindowedPJoin, config=PUNCTUATED, window_ms=40.0), binary_input, None,
    ),
    "xjoin/memory_threshold": (binary(XJoin, memory_threshold=40), binary_input, None),
    "shj": (binary(SymmetricHashJoin), binary_input, None),
    "nary/static": (nary(PlannerSpec(mode="static")), nary_input, None),
    "nary/adaptive": (
        nary(PlannerSpec(mode="adaptive", reopt_interval=2)), nary_input, None,
    ),
    "pjoin/sharded2": (two_shards, binary_input, None),
    "pjoin/select": (binary(PJoin, config=PUNCTUATED), binary_input, keep_even_keys),
}


def run_case(case, keep_items):
    """Everything the sink saw, plus the run's sampled output and manifest."""
    build_join, make_input, build_downstream = CASES[case]
    workload = make_input()
    plan = QueryPlan()
    join = build_join(plan, workload)
    sink = Sink(plan.engine, plan.cost_model, keep_items=keep_items)
    operators = list(getattr(join, "manifest_operators", list)())
    if build_downstream is None:
        join.connect(sink)
    else:
        downstream = build_downstream(plan, join)
        join.connect(downstream).connect(sink)
        operators.append(downstream)
    for port, schedule in enumerate(workload.schedules):
        plan.add_source(schedule, join, port=port)
    collector = MetricsCollector(plan.engine, interval_ms=25.0)
    collector.register_gauge("output", lambda: sink.tuple_count)
    collector.start(horizon_ms=workload.end_time * 4 + 1000.0)
    plan.run()
    return {
        "results": [(t.values, t.ts) for t in sink.results],
        "punctuations": [(repr(p), p.ts) for p in sink.punctuations],
        "tuple_arrival_times": sink.tuple_arrival_times,
        "punctuation_arrival_times": sink.punctuation_arrival_times,
        "tuple_count": sink.tuple_count,
        "output_series": list(collector.series["output"].values),
        "manifest": build_manifest(
            case, join, sink, plan.engine, workload=workload,
            extra_operators=operators,
        ),
    }


@pytest.mark.parametrize("keep_items", [True, False], ids=["kept", "counted"])
@pytest.mark.parametrize("case", list(CASES))
def test_batch_delivery_equals_per_item_delivery(case, keep_items, monkeypatch):
    batched = run_case(case, keep_items)
    monkeypatch.setattr(Sink, "_accepts_batches", False)
    per_item = run_case(case, keep_items)
    assert batched == per_item
    count = batched["tuple_count"]
    assert count > 0
    assert len(batched["tuple_arrival_times"]) == count
    assert len(batched["results"]) == (count if keep_items else 0)


@pytest.mark.parametrize("case", ["pjoin/memory_threshold", "xjoin/memory_threshold"])
def test_disk_join_tuples_share_the_outbox_with_batches(case):
    # The cases above mix disk-join result tuples (emit_pair) with
    # memory-join batches only if the disk join produced some: results
    # beyond the memory join's probe matches.
    manifest = run_case(case, keep_items=False)["manifest"]
    counters = next(iter(manifest["counters"].values()))
    assert counters["results_produced"] > counters["probe_matches"]


@pytest.mark.parametrize("case", [c for c, case in CASES.items() if case[2] is None])
def test_a_sink_that_keeps_nothing_never_builds_a_result(case, monkeypatch):
    def refuse(batch, ts):
        raise AssertionError("a result batch was built into tuples")

    monkeypatch.setattr(ResultBatch, "tuples", refuse)
    assert run_case(case, keep_items=False)["tuple_count"] > 0


def test_a_batch_keeps_its_matches_when_the_bucket_grows(engine, cheap_cost_model):
    a = Schema.of("key", "a", name="A")
    b = Schema.of("key", "b", name="B")
    join = SymmetricHashJoin(engine, cheap_cost_model, a, b, "key", "key")
    sink = Sink(engine, cheap_cost_model)
    join.connect(sink)
    table = join.states[1]
    table.insert(Tuple(b, (1, "cold")), 1, 0.0)
    bucket = table.partition_for(1)
    table.demote_partition(bucket)
    table.insert(Tuple(b, (1, "warm")), 1, 0.0)
    _, matches = table.probe(1)
    join.emit_joins(Tuple(a, (1, "new")), matches, LEFT)
    # The governor's fault-in extends the probed warm list in place.
    table.promote_partition(bucket)
    assert [entry.tup.values for entry in matches] == [(1, "warm"), (1, "cold")]
    outbox, join._outbox = join._outbox, []
    join._deliver(outbox)
    assert [t.values for t in sink.results] == [(1, "new", 1, "warm")]
    assert sink.tuple_count == join.tuples_out == join.results_produced == 1


def test_the_sink_lists_every_result_of_deliveries_at_one_time(engine, cheap_cost_model):
    # Deliveries at one virtual time share one (time, count) run.
    a = Schema.of("key", "a", name="A")
    b = Schema.of("key", "b", name="B")
    out = a.concat(b, name="out")
    entries = tuple(StateEntry(Tuple(b, (1, f"b{i}")), 1, 0.0) for i in range(3))
    batch = ResultBatch(out, (1, "new"), entries, 3, new_left=True)
    sink = Sink(engine, cheap_cost_model, keep_items=False)
    assert sink.accept_batch([batch], 1.0, 0) == (3, 0)
    assert sink.accept_batch([Tuple(out, (1, "x", 1, "y")), batch], 1.0, 0) == (4, 0)
    assert sink.accept_batch([batch], 2.5, 0) == (3, 0)
    assert sink.tuple_arrival_times == [1.0] * 7 + [2.5] * 3
    assert sink.cumulative_output_series()[-1] == (2.5, 10)
    assert sink.tuple_count == sink.tuples_in == sink.items_processed == 10
