"""Unit tests for the execution tracer."""

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.operators.sink import Sink
from repro.query.plan import QueryPlan
from repro.sim.costs import CostModel
from repro.obs.trace import TraceEvent, Tracer, trace_hook
from repro.workloads.generator import generate_workload


class TestTracer:
    def test_records_events(self):
        tracer = Tracer()
        tracer.record(1.0, "op", "purge", removed=3)
        assert len(tracer) == 1
        event = tracer.events[0]
        assert event.source == "op"
        assert event.details == {"removed": 3}

    def test_action_filter(self):
        tracer = Tracer(actions=["purge"])
        tracer.record(1.0, "op", "purge")
        tracer.record(2.0, "op", "propagate")
        assert tracer.counts() == {"purge": 1}

    def test_limit_drops_excess(self):
        tracer = Tracer(limit=2)
        for i in range(5):
            tracer.record(float(i), "op", "x")
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_render(self):
        tracer = Tracer()
        tracer.record(1.0, "op", "purge", removed=3)
        out = tracer.render()
        assert "purge" in out and "removed=3" in out

    def test_render_truncates(self):
        tracer = Tracer()
        for i in range(10):
            tracer.record(float(i), "op", "x")
        assert "more" in tracer.render(max_events=3)

    def test_trace_hook_none_without_tracer(self, engine):
        assert trace_hook(engine) is None

    def test_repr_formats_numbers(self):
        event = TraceEvent(1.0, "op", "purge", {"n": 1234})
        assert "1,234" in repr(event)


class TestPJoinTracing:
    def test_pjoin_records_component_activity(self):
        workload = generate_workload(
            n_tuples_per_stream=400, punct_spacing_a=10, punct_spacing_b=10,
            seed=2,
        )
        plan = QueryPlan(cost_model=CostModel().scaled(0.01))
        plan.engine.tracer = Tracer()
        join = PJoin(
            plan.engine, plan.cost_model,
            workload.schemas[0], workload.schemas[1], "key", "key",
            config=PJoinConfig(
                purge_threshold=1,
                propagation_mode="push_count",
                propagate_count_threshold=10,
            ),
        )
        sink = Sink(plan.engine, plan.cost_model)
        join.connect(sink)
        plan.add_source(workload.schedule_a, join, port=0)
        plan.add_source(workload.schedule_b, join, port=1)
        plan.run()
        counts = plan.engine.tracer.counts()
        assert counts.get("purge", 0) == join.purge_runs
        assert counts.get("propagate", 0) == join.propagation_runs
        assert counts.get("event", 0) > 0

    def test_tracing_off_by_default(self):
        workload = generate_workload(n_tuples_per_stream=100, seed=2)
        plan = QueryPlan(cost_model=CostModel().scaled(0.01))
        join = PJoin(
            plan.engine, plan.cost_model,
            workload.schemas[0], workload.schemas[1], "key", "key",
        )
        sink = Sink(plan.engine, plan.cost_model)
        join.connect(sink)
        plan.add_source(workload.schedule_a, join, port=0)
        plan.add_source(workload.schedule_b, join, port=1)
        plan.run()  # simply must not blow up without a tracer
        assert not hasattr(plan.engine, "tracer")
