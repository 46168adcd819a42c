"""The planner's cost model for candidate probe orders.

A candidate plan is a **global stream priority order**; an arriving
tuple on side *i* probes the other sides in that order (with *i*
removed).  The model scores a plan as the expected virtual-time probe
work per unit of virtual time, using the same coefficients the
simulator charges (:class:`repro.sim.costs.CostModel`):

* each probe into side *o* scans that side's expected bucket occupancy
  at ``probe_per_candidate`` per resident tuple;
* a probe that misses ends the pipeline, so stage *k* is only reached
  with probability ``prod(hit_rate of earlier stages)`` — put the most
  selective / cheapest sides first;
* sides that punctuate fast keep little state *and are about to purge
  what they have*, so their effective occupancy is discounted by their
  punctuation-to-arrival cadence — the punctuation-driven state-savings
  term that makes this a PJoin planner rather than a plain join-order
  planner;
* a fully-matched pipeline pays ``emit_result`` per output combination.

Total plan cost = sum over arriving sides of (arrival rate x per-tuple
pipeline cost); a candidate keeps its total and each side's share.  One
scoring pass computes each side's terms and each distinct (arriving
side, probe order) pipeline once, in the float expressions and order
of scoring one order alone, so a total is the same float in any pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.planner.stats import StreamStats
from repro.sim.costs import CostModel

_EPS = 1e-12

# A side's punctuations can never discount more than this fraction of
# its resident state: purges run on the monitor's threshold, not on
# every punctuation, so some covered state always lingers.
MAX_PUNCT_DISCOUNT = 0.9


@dataclass(frozen=True)
class CandidateCost:
    """One candidate order's score."""

    order: Tuple[int, ...]
    total: float                        # virtual ms of probe work per ms
    per_side: Tuple[float, ...]         # cost contributed by each arriving side

    def as_dict(self) -> Dict[str, object]:
        return {
            "order": list(self.order),
            "total": self.total,
            "per_side": list(self.per_side),
        }


class PlannerCostModel:
    """Scores candidate probe orders against live stream statistics."""

    def __init__(
        self,
        probe_per_tuple: float = 0.004,
        emit_result: float = 0.002,
        plan_eval_cost: float = 0.01,
        max_discount: float = MAX_PUNCT_DISCOUNT,
    ) -> None:
        self.probe_per_tuple = probe_per_tuple
        self.emit_result = emit_result
        self.plan_eval_cost = plan_eval_cost
        self.max_discount = max_discount

    @classmethod
    def from_cost_model(cls, cost_model: Optional[CostModel]) -> "PlannerCostModel":
        """Inherit the simulator's probe/emit coefficients."""
        if cost_model is None:
            cost_model = CostModel()
        return cls(
            probe_per_tuple=cost_model.probe_per_candidate,
            emit_result=cost_model.emit_result,
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def discount(self, stats: StreamStats) -> float:
        """Punctuation-driven state-savings credit for probing late.

        A side whose punctuation cadence approaches its arrival rate
        retires state about as fast as it accretes; probing it *later*
        in the pipeline (fewer pipelines reach it) costs little even
        when a snapshot of its state looks large, because much of that
        state is moments from being purged.
        """
        arrival = max(stats.arrival_rate, _EPS)
        return min(self.max_discount, stats.punct_rate / arrival)

    def effective_occupancy(self, stats: StreamStats, stage: int) -> float:
        """Expected bucket scan for a probe reaching stage *k*.

        Occupancy comes from the measured per-probe bucket scan when
        the side has been probed, else from its resident state spread
        over nothing (pure state-size proxy).  Each later stage
        compounds the punctuation discount once more: by the time a
        pipeline reaches stage k the operator has had k more chances to
        drop the tuple against fresher promises.
        """
        base = stats.avg_occupancy
        if base <= _EPS:
            base = stats.state_size
        return base * (1.0 - self.discount(stats)) ** (stage + 1)

    def _pipeline_cost(
        self, stats: Sequence[StreamStats]
    ) -> Callable[[Sequence[int]], float]:
        """Per-tuple cost of a probe order under *stats*.

        Each side's occupancy at every stage, capped hit rate and mean
        matches are computed once, up front, so pipelines that share
        them cost no more of those calls.
        """
        stages = range(len(stats) - 1)
        occupancy = [
            [self.effective_occupancy(side_stats, stage) for stage in stages]
            for side_stats in stats
        ]
        hit_rate = [min(1.0, side_stats.hit_rate) for side_stats in stats]
        matches = [side_stats.avg_matches for side_stats in stats]

        def pipeline(probe_order: Sequence[int]) -> float:
            reach = 1.0
            total = 0.0
            expected_results = 1.0
            for stage, target in enumerate(probe_order):
                total += reach * self.probe_per_tuple * occupancy[target][stage]
                reach *= hit_rate[target]
                expected_results *= matches[target]
            return total + reach * self.emit_result * expected_results

        return pipeline

    def pipeline_cost(
        self,
        arriving: StreamStats,
        probe_order: Sequence[int],
        stats: Sequence[StreamStats],
    ) -> float:
        """Expected virtual ms one arriving tuple spends probing."""
        return self._pipeline_cost(stats)(probe_order)

    def score(
        self,
        orders: Sequence[Sequence[int]],
        stats: Sequence[StreamStats],
    ) -> List[CandidateCost]:
        """Score permutations of the sides against the latest stats, in one pass."""
        pipeline = self._pipeline_cost(stats)
        pipelines: List[Dict[Tuple[int, ...], float]] = [{} for _ in stats]
        scored = []
        for candidate in orders:
            order = tuple(candidate)
            per_side = [0.0] * len(stats)
            for position, side in enumerate(order):
                # A tuple arriving on *side* probes the others in order.
                probe_order = order[:position] + order[position + 1:]
                per_tuple = pipelines[side].get(probe_order)
                if per_tuple is None:
                    per_tuple = pipelines[side][probe_order] = pipeline(probe_order)
                per_side[side] = stats[side].arrival_rate * per_tuple
            # Summed in side order by hand: sum() rounds differently on
            # Python 3.12+, and one ulp can flip a tie or a switch.
            total = 0.0
            for contribution in per_side:
                total += contribution
            scored.append(CandidateCost(order, total, tuple(per_side)))
        return scored

    def plan_cost(
        self,
        order: Sequence[int],
        stats: Sequence[StreamStats],
    ) -> CandidateCost:
        """Score one global priority order against the latest stats."""
        return self.score([order], stats)[0]

    def planning_cost(self, n_candidates: int) -> float:
        """Virtual ms charged for evaluating *n* candidates."""
        return self.plan_eval_cost * n_candidates
