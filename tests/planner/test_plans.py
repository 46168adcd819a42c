"""Candidate enumeration, the greedy heuristic, and plan choice."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlannerError
from repro.planner.cost import PlannerCostModel
from repro.planner.plans import (
    EXHAUSTIVE_LIMIT,
    candidate_orders,
    choose_plan,
    greedy_order,
)
from repro.planner.stats import StreamStats

from .test_cost import mk_stats


class TestCandidateOrders:
    def test_exhaustive_up_to_the_limit(self):
        assert len(candidate_orders(3)) == 6
        assert len(set(candidate_orders(EXHAUSTIVE_LIMIT))) == 24

    def test_rejects_degenerate_joins(self):
        with pytest.raises(PlannerError):
            candidate_orders(1)

    def test_greedy_needs_stats_beyond_the_limit(self):
        with pytest.raises(PlannerError):
            candidate_orders(EXHAUSTIVE_LIMIT + 1)

    def test_greedy_seed_plus_adjacent_swaps(self):
        cm = PlannerCostModel()
        stats = [mk_stats(i, occ=float(10 * (i + 1))) for i in range(5)]
        candidates = candidate_orders(5, stats, cm)
        assert candidates[0] == (0, 1, 2, 3, 4)  # cheapest-first seed
        assert len(candidates) == 5              # seed + 4 adjacent swaps
        assert (1, 0, 2, 3, 4) in candidates

    def test_incumbent_is_kept_as_a_candidate(self):
        cm = PlannerCostModel()
        stats = [mk_stats(i, occ=float(10 * (i + 1))) for i in range(5)]
        incumbent = (4, 3, 2, 1, 0)
        candidates = candidate_orders(5, stats, cm, current=incumbent)
        assert incumbent in candidates
        # ... but not duplicated when it already is one.
        again = candidate_orders(5, stats, cm, current=(0, 1, 2, 3, 4))
        assert len(again) == len(set(again)) == 5


class TestGreedyOrder:
    def test_cheap_sides_first(self):
        cm = PlannerCostModel()
        stats = [mk_stats(0, occ=30.0), mk_stats(1, occ=1.0),
                 mk_stats(2, occ=10.0)]
        assert greedy_order(stats, cm) == (1, 2, 0)

    def test_selectivity_beats_raw_occupancy(self):
        cm = PlannerCostModel()
        # Side 0 scans 10 but misses 90% (rank 1.0); side 1 scans 5 and
        # always hits (rank 5.0): probe the miss-prone side first.
        stats = [mk_stats(0, occ=10.0, hit=0.1), mk_stats(1, occ=5.0)]
        assert greedy_order(stats, cm) == (0, 1)

    def test_ties_break_toward_lower_index(self):
        cm = PlannerCostModel()
        stats = [mk_stats(0), mk_stats(1), mk_stats(2)]
        assert greedy_order(stats, cm) == (0, 1, 2)


class TestChoosePlan:
    def test_symmetric_stats_keep_the_identity_order(self):
        choice = choose_plan([mk_stats(i) for i in range(3)])
        assert choice.order == (0, 1, 2)
        assert choice.exhaustive
        assert len(choice.candidates) == 6
        assert choice.cost == pytest.approx(choice.best.total)

    def test_prefers_probing_the_selective_cheap_side_first(self):
        stats = [
            mk_stats(0, occ=10.0),
            mk_stats(1, occ=2.0, hit=0.2),   # cheap and miss-prone
            mk_stats(2, occ=50.0),           # expensive
        ]
        choice = choose_plan(stats)
        probe_of_0 = tuple(o for o in choice.order if o != 0)
        assert probe_of_0 == (1, 2)

    def test_candidates_sorted_best_first(self):
        choice = choose_plan(
            [mk_stats(0, occ=5.0), mk_stats(1, occ=20.0), mk_stats(2)]
        )
        totals = [cand.total for cand in choice.candidates]
        assert totals == sorted(totals)

    def test_candidate_for_lookup(self):
        cm = PlannerCostModel()
        stats = [mk_stats(i, occ=float(10 * (i + 1))) for i in range(5)]
        choice = choose_plan(stats, cm)
        assert choice.candidate_for((0, 1, 2, 3, 4)) is not None
        assert choice.candidate_for((2, 0, 1, 3, 4)) is None  # not enumerated

    def test_explain_marks_the_winner(self):
        choice = choose_plan([mk_stats(0), mk_stats(1, occ=30.0), mk_stats(2)])
        text = choice.explain(["A", "B", "C"])
        assert "<- chosen" in text
        assert "A" in text and "B" in text
        assert "exhaustive: 6 candidates" in text

    def test_as_dict_is_json_shaped(self):
        choice = choose_plan([mk_stats(0), mk_stats(1)])
        payload = choice.as_dict()
        assert payload["order"] == list(choice.order)
        assert payload["exhaustive"] is True
        assert len(payload["candidates"]) == 2


# ----------------------------------------------------------------------
# The one-pass scorer against order-by-order scoring
# ----------------------------------------------------------------------

_EPS = 1e-12


def reference_occupancy(cm, stats, stage):
    arrival = max(stats.arrival_rate, _EPS)
    discount = min(cm.max_discount, stats.punct_rate / arrival)
    base = stats.avg_occupancy
    if base <= _EPS:
        base = stats.state_size
    return base * (1.0 - discount) ** (stage + 1)


def reference_pipeline(cm, probe_order, stats):
    """One arriving tuple's probe work, stage by stage."""
    reach = 1.0
    total = 0.0
    expected_results = 1.0
    for stage, target in enumerate(probe_order):
        other = stats[target]
        cost = reach * cm.probe_per_tuple * reference_occupancy(cm, other, stage)
        total += cost
        reach *= min(1.0, other.hit_rate)
        expected_results *= other.avg_matches
    total += reach * cm.emit_result * expected_results
    return total


def reference_plan(cm, order, stats):
    """(total, per_side) of one order, every pipeline walked anew."""
    per_side = []
    total = 0.0
    for side, side_stats in enumerate(stats):
        probe_order = tuple(o for o in order if o != side)
        contribution = side_stats.arrival_rate * reference_pipeline(
            cm, probe_order, stats
        )
        per_side.append(contribution)
        total += contribution
    return total, tuple(per_side)


# Each field mixes the edge values (zero arrival rate, zero occupancy
# and so the state-size fallback, a hit rate above 1) with any value.
_FIELDS = {
    "arrival_rate": [0.0, 0.25, 1.0],
    "punct_rate": [0.0, 0.5, 4.0],
    "hit_rate": [0.0, 0.3, 1.0, 1.5],
    "avg_matches": [0.0, 0.5, 2.0],
    "avg_occupancy": [0.0, 3.0],
    "state_size": [0.0, 40.0],
}


@st.composite
def side_fields(draw):
    return {
        name: draw(
            st.sampled_from(edges)
            | st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False)
        )
        for name, edges in _FIELDS.items()
    }


@st.composite
def scoring_inputs(draw):
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        fields = [draw(side_fields())] * n          # the lexicographic tie
    else:
        fields = [draw(side_fields()) for _ in range(n)]
    stats = [
        StreamStats(side=i, name=f"S{i}", purge_lag_ms=0.0, **fields[i])
        for i in range(n)
    ]
    identity = tuple(range(n))
    current = draw(st.permutations(identity).map(tuple).filter(
        lambda order: order != identity
    ))
    return stats, current


@settings(max_examples=200, deadline=None)
@given(inputs=scoring_inputs())
def test_choose_plan_matches_order_by_order_scoring(inputs):
    """Same winner, same candidates in the same order, totals equal by ==."""
    stats, current = inputs
    cm = PlannerCostModel(probe_per_tuple=0.04, emit_result=0.002)
    orders = candidate_orders(len(stats), stats, cm, current)
    expected = sorted(
        (reference_plan(cm, order, stats) + (order,) for order in orders),
        key=lambda row: (row[0], row[2]),
    )
    choice = choose_plan(stats, cm, current=current)
    assert choice.exhaustive == (len(stats) <= EXHAUSTIVE_LIMIT)
    assert [c.order for c in choice.candidates] == [row[2] for row in expected]
    assert [c.total for c in choice.candidates] == [row[0] for row in expected]
    assert [c.per_side for c in choice.candidates] == [
        row[1] for row in expected
    ]
    assert (choice.order, choice.cost) == (expected[0][2], expected[0][0])
    assert choice.candidate_for(current) is not None
    for order in orders:
        assert cm.plan_cost(order, stats).total == reference_plan(
            cm, order, stats
        )[0]
        probe_order = order[1:]
        assert cm.pipeline_cost(
            stats[order[0]], probe_order, stats
        ) == reference_pipeline(cm, probe_order, stats)
