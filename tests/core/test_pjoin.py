"""Unit and integration tests for the PJoin operator itself."""

from collections import Counter

import pytest

from repro.core.config import PJoinConfig
from repro.core.events import PropagateCountReachEvent, PurgeThresholdReachEvent
from repro.core.pjoin import PJoin
from repro.core.registry import EventListenerRegistry, table1_registry
from repro.errors import OperatorError, PunctuationError
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.query.plan import QueryPlan
from repro.sim.costs import CostModel
from repro.tuples.item import END_OF_STREAM
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple
from repro.workloads.generator import generate_workload
from repro.workloads.reference import reference_join_multiset

SCHEMA_A = Schema.of("key", "a", name="A")
SCHEMA_B = Schema.of("key", "b", name="B")


def make_pjoin(engine, cost_model, config=None, registry=None):
    return PJoin(
        engine, cost_model, SCHEMA_A, SCHEMA_B, "key", "key",
        config=config, registry=registry,
    )


@pytest.fixture
def joined(engine, cheap_cost_model):
    """Factory: build (join, sink) with a config."""

    def build(config=None, registry=None):
        join = make_pjoin(engine, cheap_cost_model, config, registry)
        sink = Sink(engine, cheap_cost_model, keep_items=True)
        join.connect(sink)
        return join, sink

    return build


def a_tup(key, v=0):
    return Tuple(SCHEMA_A, (key, v))


def b_tup(key, v=0):
    return Tuple(SCHEMA_B, (key, v))


def a_punct(spec):
    return Punctuation.on_field(SCHEMA_A, "key", spec)


def b_punct(spec):
    return Punctuation.on_field(SCHEMA_B, "key", spec)


def run_full_workload(config, seed=3, n=1500, spacing=(10, 25)):
    """Run a generated workload through PJoin; return (join, sink, ref)."""
    workload = generate_workload(
        n_tuples_per_stream=n,
        punct_spacing_a=spacing[0],
        punct_spacing_b=spacing[1],
        seed=seed,
    )
    plan = QueryPlan(cost_model=CostModel().scaled(0.01))
    join = PJoin(
        plan.engine, plan.cost_model,
        workload.schemas[0], workload.schemas[1], "key", "key", config=config,
    )
    sink = Sink(plan.engine, plan.cost_model, keep_items=True)
    join.connect(sink)
    plan.add_source(workload.schedule_a, join, port=0)
    plan.add_source(workload.schedule_b, join, port=1)
    plan.run()
    ref = reference_join_multiset(
        workload.schedule_a, workload.schedule_b,
        workload.schemas[0], workload.schemas[1],
    )
    return join, sink, ref


class TestMemoryJoin:
    def test_joins_matching_tuples(self, engine, joined):
        join, sink = joined()
        join.push(a_tup(1, 10), 0)
        join.push(b_tup(1, 20), 1)
        engine.run()
        assert sink.results[0].values == (1, 10, 1, 20)

    def test_no_match_no_output(self, engine, joined):
        join, sink = joined()
        join.push(a_tup(1), 0)
        join.push(b_tup(2), 1)
        engine.run()
        assert sink.tuple_count == 0
        assert join.total_state_size() == 2


class TestPurging:
    def test_eager_purge_on_opposite_punctuation(self, engine, joined):
        join, sink = joined(PJoinConfig(purge_threshold=1))
        join.push(a_tup(1), 0)
        join.push(a_tup(2), 0)
        join.push(b_punct(1), 1)  # B promises no more key=1
        engine.run()
        assert join.tuples_purged == 1
        assert join.state_size(0) == 1

    def test_lazy_purge_waits_for_threshold(self, engine, joined):
        join, sink = joined(PJoinConfig(purge_threshold=3))
        for key in (1, 2, 3):
            join.push(a_tup(key), 0)
        join.push(b_punct(1), 1)
        join.push(b_punct(2), 1)
        engine.run()
        assert join.tuples_purged == 0
        join.push(b_punct(3), 1)
        engine.run()
        assert join.tuples_purged == 3
        assert join.purge_runs == 1

    def test_purged_results_already_emitted(self, engine, joined):
        join, sink = joined(PJoinConfig(purge_threshold=1))
        join.push(a_tup(1, 10), 0)
        join.push(b_tup(1, 20), 1)
        join.push(b_punct(1), 1)
        engine.run()
        assert sink.tuple_count == 1
        assert join.state_size(0) == 0


class TestOnTheFlyDrop:
    def test_covered_tuple_probes_then_drops(self, engine, joined):
        join, sink = joined(PJoinConfig(purge_threshold=1))
        join.push(a_tup(1, 10), 0)
        join.push(a_punct(1), 0)  # A promises no more key=1
        join.push(b_tup(1, 20), 1)  # still joins the stored A tuple
        engine.run()
        assert sink.tuple_count == 1
        assert join.tuples_dropped_on_fly == 1
        assert join.state_size(1) == 0

    def test_drop_disabled_keeps_tuple(self, engine, joined):
        join, sink = joined(
            PJoinConfig(purge_threshold=1, on_the_fly_drop=False)
        )
        join.push(a_punct(1), 0)
        join.push(b_tup(1), 1)
        engine.run()
        assert join.tuples_dropped_on_fly == 0
        assert join.state_size(1) == 1


class TestValidation:
    def test_punctuation_violation_raises_by_default(self, engine, joined):
        join, _sink = joined()
        join.push(a_punct(1), 0)
        join.push(a_tup(1), 0)  # violates A's own promise
        with pytest.raises(PunctuationError, match="after a punctuation"):
            engine.run()

    def test_quarantine_mode_drops_and_tallies(self, engine, joined):
        join, sink = joined(PJoinConfig(fault_policy="quarantine"))
        join.push(a_punct(1), 0)
        join.push(a_tup(1), 0)
        join.push(b_tup(1), 1)
        engine.run()
        assert join.punctuation_violations == 1
        assert sink.tuple_count == 0  # the offending tuple never joined

    def test_trust_mode_skips_check(self, engine, joined):
        join, _sink = joined(
            PJoinConfig(fault_policy="trust", on_the_fly_drop=False)
        )
        join.push(a_punct(1), 0)
        join.push(a_tup(1), 0)
        engine.run()
        assert join.punctuation_violations == 0


class TestPropagation:
    def test_push_count_propagates_covered_punctuations(self, engine, joined):
        join, sink = joined(
            PJoinConfig(
                purge_threshold=1,
                propagation_mode="push_count",
                propagate_count_threshold=2,
            )
        )
        join.push(a_punct(1), 0)
        join.push(b_punct(1), 1)
        engine.run()
        assert sink.punctuation_count == 2
        out = sink.punctuations[0]
        assert out.schema == join.out_schema

    def test_pull_mode_waits_for_request(self, engine, joined):
        join, sink = joined(PJoinConfig(purge_threshold=1, propagation_mode="pull"))
        join.push(a_punct(1), 0)
        engine.run()
        assert sink.punctuation_count == 0
        join.request_propagation(requester="groupby")
        engine.run()
        assert sink.punctuation_count == 1

    def test_push_time_mode_uses_timer(self, engine, joined):
        join, sink = joined(
            PJoinConfig(
                purge_threshold=1,
                propagation_mode="push_time",
                propagate_time_threshold_ms=50.0,
            )
        )
        join.push(a_punct(1), 0)
        engine.run(until=40.0)
        assert sink.punctuation_count == 0
        engine.run(until=200.0)
        assert sink.punctuation_count == 1
        # Finish the streams so the timer stops rearming.
        join.push(END_OF_STREAM, 0)
        join.push(END_OF_STREAM, 1)
        engine.run(until=1000.0)
        assert join.finished

    def test_propagation_blocked_by_matching_state(self, engine, joined):
        join, sink = joined(
            PJoinConfig(
                purge_threshold=100,  # never purge in this test
                propagation_mode="push_count",
                propagate_count_threshold=1,
            )
        )
        join.push(a_tup(1), 0)
        join.push(a_punct(1), 0)
        engine.run()
        # The A state still holds a key=1 tuple, so p cannot propagate.
        assert sink.punctuation_count == 0

    def test_eos_releases_remaining_punctuations(self, engine, joined):
        join, sink = joined(
            PJoinConfig(
                purge_threshold=1,
                propagation_mode="push_count",
                propagate_count_threshold=1000,
            )
        )
        join.push(a_punct(1), 0)
        join.push(END_OF_STREAM, 0)
        join.push(END_OF_STREAM, 1)
        engine.run()
        assert sink.punctuation_count == 1
        assert sink.finished

    def test_live_duplicate_punctuation_dropped(self, engine, joined):
        """A duplicate arriving while the original is still live must not
        be stored — its index count would hit zero prematurely and break
        Theorem 1's premise."""
        join, sink = joined(
            PJoinConfig(
                purge_threshold=1,
                propagation_mode="push_count",
                propagate_count_threshold=100,  # keep the original live
            )
        )
        join.push(a_punct(1), 0)
        join.push(a_punct(1), 0)  # duplicate promise while original live
        join.push(END_OF_STREAM, 0)
        join.push(END_OF_STREAM, 1)
        engine.run()
        assert join.sides[0].duplicate_punctuations == 1
        assert sink.punctuation_count == 1


class TestEventFramework:
    def test_table1_registry_accepted(self, engine, cheap_cost_model):
        config = PJoinConfig(
            purge_threshold=5,
            propagation_mode="push_count",
            propagate_count_threshold=10,
        )
        join = make_pjoin(engine, cheap_cost_model, config, table1_registry())
        sink = Sink(engine, cheap_cost_model)
        join.connect(sink)
        join.push(a_tup(1), 0)
        engine.run()
        assert join.events_dispatched == {}

    def test_events_dispatched_are_tallied(self, engine, joined):
        join, _sink = joined(PJoinConfig(purge_threshold=1))
        join.push(b_punct(1), 1)
        engine.run()
        assert join.events_dispatched.get("PurgeThresholdReachEvent") == 1

    def test_custom_registry_can_disable_purging(self, engine, cheap_cost_model):
        registry = EventListenerRegistry()  # no listeners at all
        join = make_pjoin(
            engine, cheap_cost_model, PJoinConfig(purge_threshold=1), registry
        )
        sink = Sink(engine, cheap_cost_model)
        join.connect(sink)
        join.push(a_tup(1), 0)
        join.push(b_punct(1), 1)
        engine.run()
        assert join.tuples_purged == 0  # event fired, nobody listened
        assert join.events_dispatched.get("PurgeThresholdReachEvent") == 1

    def test_unknown_component_in_dispatch_raises(self, engine, joined):
        join, _sink = joined()
        join._components.pop("state_purge")
        with pytest.raises(OperatorError, match="unknown component"):
            join.push(b_punct(1), 1)


class TestReconfigure:
    def test_thresholds_adjustable_at_runtime(self, engine, joined):
        join, _sink = joined(PJoinConfig(purge_threshold=100))
        join.reconfigure(purge_threshold=1)
        join.push(a_tup(1), 0)
        join.push(b_punct(1), 1)
        engine.run()
        assert join.tuples_purged == 1

    def test_structural_options_rejected(self, engine, joined):
        join, _sink = joined()
        with pytest.raises(OperatorError, match="cannot reconfigure"):
            join.reconfigure(n_partitions=64)

    def test_memory_threshold_set_mid_stream_relocates(self, engine, joined):
        """A join built without a memory threshold reads the one that
        ``reconfigure`` sets from the next insert on."""
        join, _sink = joined(PJoinConfig(purge_threshold=100))
        for key in range(4):
            join.push(a_tup(key), 0)
        engine.run()
        assert join.monitor.state_full_events_fired == 0
        join.reconfigure(memory_threshold=6)
        for key in range(4):
            join.push(b_tup(key + 10), 1)
        engine.run()
        assert join.monitor.state_full_events_fired > 0
        assert join.events_dispatched["StateFullEvent"] > 0
        assert join.spills > 0
        assert join.memory_state_size() < 6


class TestEndToEndCorrectness:
    @pytest.mark.parametrize(
        "config",
        [
            PJoinConfig(purge_threshold=1),
            PJoinConfig(purge_threshold=7),
            PJoinConfig(purge_threshold=200),
            PJoinConfig(purge_threshold=1, on_the_fly_drop=False),
            PJoinConfig(purge_threshold=1, memory_threshold=120),
            PJoinConfig(purge_threshold=5, memory_threshold=60),
            PJoinConfig(
                purge_threshold=1,
                propagation_mode="push_count",
                propagate_count_threshold=10,
            ),
            PJoinConfig(
                purge_threshold=3,
                index_building="eager",
                propagation_mode="push_pairs",
            ),
        ],
        ids=[
            "eager",
            "lazy7",
            "lazy200",
            "no-drop",
            "spill",
            "lazy-spill",
            "propagating",
            "pairs-eager-index",
        ],
    )
    def test_results_match_reference(self, config):
        join, sink, ref = run_full_workload(config)
        assert Counter(dict(sink.result_multiset())) == ref

    def test_propagated_punctuations_are_sound(self):
        """Theorem 1: no result emitted at/after a propagated punctuation
        may match it."""
        config = PJoinConfig(
            purge_threshold=1,
            propagation_mode="push_count",
            propagate_count_threshold=5,
        )
        join, sink, _ref = run_full_workload(config)
        assert sink.punctuation_count > 0
        # Merge results and punctuations in arrival order and verify.
        items = [(t, "tuple", tup) for t, tup in
                 zip(sink.tuple_arrival_times, sink.results)]
        items += [(t, "punct", p) for t, p in
                  zip(sink.punctuation_arrival_times, sink.punctuations)]
        items.sort(key=lambda x: x[0])
        seen_punctuations = []
        for _t, kind, item in items:
            if kind == "punct":
                seen_punctuations.append(item)
            else:
                for punct in seen_punctuations:
                    assert not punct.matches(item), (
                        f"result {item} violates propagated {punct}"
                    )

    def test_state_bounded_with_eager_purge(self):
        join, _sink, _ref = run_full_workload(PJoinConfig(purge_threshold=1))
        # Without purging the state would hold all 3000 input tuples;
        # eager purge keeps only the not-yet-punctuated tail.
        assert join.total_state_size() < 1200
        assert join.tuples_purged > 0
