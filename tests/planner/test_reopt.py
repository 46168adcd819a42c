"""The runtime re-optimizer on a live NaryPJoin."""

import pytest

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.errors import PlannerError
from repro.operators import fastpath
from repro.operators.sink import Sink
from repro.planner import PlannerSpec
from repro.punctuations.punctuation import Punctuation
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMAS = [
    Schema.of("key", "a", name="A"),
    Schema.of("key", "b", name="B"),
    Schema.of("key", "c", name="C"),
]


def tup(stream, key, v=0):
    return Tuple(SCHEMAS[stream], (key, v))


def punct(stream, spec):
    return Punctuation.on_field(SCHEMAS[stream], "key", spec)


def build(engine, cheap_cost_model, planner=None, config=None):
    join = NaryPJoin(
        engine, cheap_cost_model, SCHEMAS, ["key"] * 3,
        config=config, planner=planner,
    )
    sink = Sink(engine, cheap_cost_model, keep_items=True)
    join.connect(sink)
    return join, sink


class TestPlanInstallation:
    def test_default_plan_is_stream_order(self, engine, cheap_cost_model):
        join, _ = build(engine, cheap_cost_model)
        assert join.stream_order == (0, 1, 2)
        assert join.probe_orders[0] == (1, 2)
        assert join.purge_order == (0, 1, 2)
        assert join.reoptimizer is None

    def test_static_initial_order(self, engine, cheap_cost_model):
        spec = PlannerSpec(mode="static", initial_order=(1, 0, 2))
        join, _ = build(engine, cheap_cost_model, planner=spec)
        assert join.stream_order == (1, 0, 2)
        assert join.probe_orders[1] == (0, 2)
        assert join.reoptimizer is None

    def test_set_plan_rewrites_probe_and_purge_orders(
        self, engine, cheap_cost_model
    ):
        join, _ = build(engine, cheap_cost_model)
        probe_orders = join.probe_orders  # the item handler holds this list
        join.set_plan((2, 1, 0))
        assert join.stream_order == (2, 1, 0)
        assert join.purge_order == (2, 1, 0)
        assert probe_orders[0] == (2, 1)   # mutated in place
        assert probe_orders[2] == (1, 0)

    def test_set_plan_rejects_non_permutations(self, engine, cheap_cost_model):
        join, _ = build(engine, cheap_cost_model)
        with pytest.raises(PlannerError):
            join.set_plan((0, 1))
        with pytest.raises(PlannerError):
            join.set_plan((0, 1, 1))

    def test_adaptive_spec_attaches_a_reoptimizer(
        self, engine, cheap_cost_model
    ):
        spec = PlannerSpec(mode="adaptive")
        join, _ = build(engine, cheap_cost_model, planner=spec)
        assert join.reoptimizer is not None
        assert join.reoptimizer.spec is spec

    def test_static_and_adaptive_joins_install_the_same_handler(
        self, engine, cheap_cost_model
    ):
        static, _ = build(engine, cheap_cost_model)
        adaptive, _ = build(
            engine, cheap_cost_model, planner=PlannerSpec(mode="adaptive")
        )
        handlers = [vars(join)["handle"] for join in (static, adaptive)]
        assert all(fastpath.is_fastpath(handler) for handler in handlers)
        assert handlers[0].__code__ is handlers[1].__code__


class TestBoundaries:
    def feed(self, engine, join, keys=range(6)):
        for key in keys:
            for stream in range(3):
                join.push(tup(stream, key), stream)
        engine.run()

    def test_interval_boundaries_are_counted_not_replanned(
        self, engine, cheap_cost_model
    ):
        spec = PlannerSpec(mode="adaptive", reopt_interval=2)
        join, _ = build(engine, cheap_cost_model, planner=spec)
        self.feed(engine, join)
        reopt = join.reoptimizer
        assert reopt.on_cover_boundary() == 0.0      # boundary 1: skipped
        assert reopt.reopt_count == 0
        cost = reopt.on_cover_boundary()             # boundary 2: replans
        assert cost > 0.0                            # planning is charged
        assert reopt.reopt_count == 1
        assert reopt.boundaries == 2
        assert len(reopt.decisions) == 1
        assert reopt.decisions[-1].boundary == 2

    def test_purge_boundaries_drive_the_reoptimizer(
        self, engine, cheap_cost_model
    ):
        spec = PlannerSpec(mode="adaptive", reopt_interval=1)
        join, _ = build(
            engine, cheap_cost_model, planner=spec,
            config=PJoinConfig(purge_threshold=1),
        )
        self.feed(engine, join)
        # Covering key 0 on every stream completes one purge run.
        for stream in range(3):
            join.push(punct(stream, 0), stream)
        engine.run()
        assert join.purge_runs >= 1
        assert join.reoptimizer.boundaries == join.purge_runs
        assert join.reoptimizer.reopt_count == join.purge_runs

    def test_huge_hysteresis_blocks_every_switch(
        self, engine, cheap_cost_model
    ):
        spec = PlannerSpec(mode="adaptive", reopt_interval=1, hysteresis=1e6)
        join, _ = build(engine, cheap_cost_model, planner=spec)
        # Make the incumbent order maximally wrong: stream 0 heavy.
        self.feed(engine, join, keys=range(8))
        reopt = join.reoptimizer
        for _ in range(4):
            reopt.on_cover_boundary()
        assert reopt.switches == 0
        assert all(not d.switched for d in reopt.decisions)
        assert join.stream_order == (0, 1, 2)

    def test_decision_ring_is_bounded(self, engine, cheap_cost_model):
        spec = PlannerSpec(mode="adaptive", reopt_interval=1, max_decisions=2)
        join, _ = build(engine, cheap_cost_model, planner=spec)
        self.feed(engine, join)
        reopt = join.reoptimizer
        for _ in range(5):
            reopt.on_cover_boundary()
        assert reopt.reopt_count == 5
        assert len(reopt.decisions) == 2
        assert len(reopt.decision_log()) == 2

    def test_decision_log_is_json_shaped(self, engine, cheap_cost_model):
        spec = PlannerSpec(mode="adaptive", reopt_interval=1)
        join, _ = build(engine, cheap_cost_model, planner=spec)
        self.feed(engine, join)
        join.reoptimizer.on_cover_boundary()
        (entry,) = join.reoptimizer.decision_log()
        assert set(entry) >= {
            "at_ms", "boundary", "previous", "chosen", "switched",
            "current_cost", "best_cost", "cost_delta",
        }
        assert entry["previous"] == [0, 1, 2]
        assert entry["cost_delta"] >= 0.0


class TestObservability:
    def test_planner_counters_in_the_registry(self, engine, cheap_cost_model):
        spec = PlannerSpec(mode="adaptive", reopt_interval=1)
        join, _ = build(engine, cheap_cost_model, planner=spec)
        join.push(tup(0, 1), 0)
        engine.run()
        join.reoptimizer.on_cover_boundary()
        counters = join.counters()
        assert counters["planner.reopt.count"] == 1.0
        assert counters["planner.boundaries"] == 1.0
        assert "planner.switches" in counters
        assert "planner.last_cost_delta" in counters
        assert "planner.cumulative_cost_delta" in counters

    def test_static_join_publishes_no_planner_counters(
        self, engine, cheap_cost_model
    ):
        join, _ = build(engine, cheap_cost_model)
        assert not any(k.startswith("planner.") for k in join.counters())

    def test_snapshot_restore_round_trips_the_plan(
        self, engine, cheap_cost_model
    ):
        join, _ = build(engine, cheap_cost_model)
        for stream in range(3):
            join.push(tup(stream, 1), stream)
        engine.run()
        join.set_plan((2, 0, 1))
        snap = join.snapshot_state()
        other, _ = build(engine, cheap_cost_model)
        other.restore_state(snap)
        assert other.stream_order == (2, 0, 1)
        assert other.side_tuples_in == join.side_tuples_in
        assert other.side_tuples_in is not join.side_tuples_in
