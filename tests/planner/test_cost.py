"""Hand-computed expectations for the planner's cost model."""

import pytest

from repro.planner.cost import MAX_PUNCT_DISCOUNT, PlannerCostModel
from repro.planner.stats import StreamStats
from repro.sim.costs import CostModel


def mk_stats(
    side,
    occ=10.0,
    arrival=1.0,
    punct=0.0,
    hit=1.0,
    matches=1.0,
    state=0.0,
):
    return StreamStats(
        side=side,
        name=f"S{side}",
        state_size=state,
        arrival_rate=arrival,
        punct_rate=punct,
        hit_rate=hit,
        avg_matches=matches,
        avg_occupancy=occ,
        purge_lag_ms=0.0,
    )


class TestDiscount:
    def test_ratio_of_punctuation_to_arrival_rate(self):
        cm = PlannerCostModel()
        assert cm.discount(mk_stats(0, punct=0.5, arrival=1.0)) == 0.5

    def test_capped_at_max_discount(self):
        cm = PlannerCostModel()
        assert cm.discount(mk_stats(0, punct=5.0, arrival=1.0)) == (
            MAX_PUNCT_DISCOUNT
        )

    def test_zero_arrival_rate_is_fully_discounted(self):
        cm = PlannerCostModel()
        assert cm.discount(mk_stats(0, punct=1.0, arrival=0.0)) == (
            MAX_PUNCT_DISCOUNT
        )

    def test_no_punctuations_no_discount(self):
        cm = PlannerCostModel()
        assert cm.discount(mk_stats(0, punct=0.0)) == 0.0


class TestEffectiveOccupancy:
    def test_discount_compounds_per_stage(self):
        cm = PlannerCostModel()
        stats = mk_stats(0, occ=10.0, punct=0.5, arrival=1.0)  # discount 0.5
        assert cm.effective_occupancy(stats, 0) == pytest.approx(5.0)
        assert cm.effective_occupancy(stats, 1) == pytest.approx(2.5)

    def test_falls_back_to_state_size_without_probe_samples(self):
        cm = PlannerCostModel()
        stats = mk_stats(0, occ=0.0, state=40.0)
        assert cm.effective_occupancy(stats, 0) == pytest.approx(40.0)


class TestPipelineCost:
    """One arriving tuple's expected probe work, computed by hand."""

    def setup_method(self):
        self.cm = PlannerCostModel(probe_per_tuple=0.01, emit_result=0.002)
        self.stats = [
            mk_stats(0),
            mk_stats(1, occ=10.0, hit=0.5, matches=0.5),
            mk_stats(2, occ=20.0, hit=1.0, matches=2.0),
        ]

    def test_selective_side_first(self):
        # stage 0: 1.0 * 0.01 * 10 = 0.1; reach drops to 0.5
        # stage 1: 0.5 * 0.01 * 20 = 0.1
        # emit:    0.5 * 0.002 * (0.5 * 2.0) = 0.001
        total = self.cm.pipeline_cost(self.stats[0], (1, 2), self.stats)
        assert total == pytest.approx(0.201)

    def test_expensive_unselective_side_first_costs_more(self):
        # stage 0: 1.0 * 0.01 * 20 = 0.2; reach stays 1.0 (hit 1.0)
        # stage 1: 1.0 * 0.01 * 10 = 0.1
        # emit:    0.5 * 0.002 * 1.0 = 0.001
        total = self.cm.pipeline_cost(self.stats[0], (2, 1), self.stats)
        assert total == pytest.approx(0.301)

    def test_miss_prone_cheap_side_first_wins(self):
        cheap, costly = (
            self.cm.pipeline_cost(self.stats[0], (1, 2), self.stats),
            self.cm.pipeline_cost(self.stats[0], (2, 1), self.stats),
        )
        assert cheap < costly


class TestPlanCost:
    def test_symmetric_two_way_hand_computed(self):
        cm = PlannerCostModel(probe_per_tuple=0.01, emit_result=0.002)
        stats = [mk_stats(0), mk_stats(1)]
        cand = cm.plan_cost((0, 1), stats)
        # per side: arrival 1.0 * (0.01 * 10 + 0.002) = 0.102
        assert cand.per_side == pytest.approx((0.102, 0.102))
        assert cand.total == pytest.approx(0.204)

    def test_total_is_arrival_weighted_sum_of_pipelines(self):
        cm = PlannerCostModel(probe_per_tuple=0.01, emit_result=0.002)
        stats = [
            mk_stats(0, arrival=2.0),
            mk_stats(1, arrival=0.5, occ=4.0),
            mk_stats(2, arrival=1.0, occ=8.0, hit=0.25),
        ]
        cand = cm.plan_cost((2, 1, 0), stats)
        assert cand.total == pytest.approx(sum(cand.per_side))
        for side, contribution in enumerate(cand.per_side):
            probe_order = tuple(o for o in (2, 1, 0) if o != side)
            per_tuple = cm.pipeline_cost(stats[side], probe_order, stats)
            assert contribution == pytest.approx(
                stats[side].arrival_rate * per_tuple
            )

    def test_as_dict_round_trips_order_and_total(self):
        cand = PlannerCostModel().plan_cost((1, 0), [mk_stats(0), mk_stats(1)])
        payload = cand.as_dict()
        assert payload["order"] == [1, 0]
        assert payload["total"] == pytest.approx(cand.total)


class TestIntegrationWithSimCostModel:
    def test_inherits_probe_and_emit_coefficients(self):
        sim = CostModel().with_overrides(probe_per_candidate=0.04)
        cm = PlannerCostModel.from_cost_model(sim)
        assert cm.probe_per_tuple == pytest.approx(0.04)
        assert cm.emit_result == pytest.approx(sim.emit_result)

    def test_defaults_without_a_sim_model(self):
        cm = PlannerCostModel.from_cost_model(None)
        default = CostModel()
        assert cm.probe_per_tuple == pytest.approx(default.probe_per_candidate)

    def test_planning_cost_linear_in_candidates(self):
        cm = PlannerCostModel(plan_eval_cost=0.01)
        assert cm.planning_cost(6) == pytest.approx(0.06)
        assert cm.planning_cost(0) == 0.0
