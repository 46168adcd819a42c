"""Candidate enumeration and plan choice.

For small joins (n <= 4, i.e. at most 24 orders) every permutation is
scored — the optimum is exact with respect to the cost model.  Beyond
that the enumerator goes greedy: it seeds with the heuristic order
(most selective-and-cheap sides first) and adds all adjacent-swap
neighbours of the seed, keeping enumeration linear in n while still
giving the chooser local alternatives to compare against.

The chooser returns a :class:`PlanChoice` carrying *every* scored
candidate, so the decision is explainable after the fact:
``choice.explain()`` renders the per-candidate cost table that
``repro plan --explain`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PlannerError
from repro.planner.cost import CandidateCost, PlannerCostModel
from repro.planner.stats import StreamStats

EXHAUSTIVE_LIMIT = 4  # n <= 4 -> score all n! orders

_EPS = 1e-12


def greedy_order(stats: Sequence[StreamStats], cost_model: PlannerCostModel) -> Tuple[int, ...]:
    """Heuristic priority order: cheapest expected stage work first.

    Ranks sides by ``effective_occupancy * hit_rate`` ascending — a
    side that is cheap to scan *and* likely to end the pipeline early
    should be probed first.  Ties break toward the lower stream index
    so the order is deterministic.
    """
    def rank(item: Tuple[int, StreamStats]) -> Tuple[float, int]:
        side, side_stats = item
        occ = cost_model.effective_occupancy(side_stats, 0)
        return (occ * max(side_stats.hit_rate, _EPS), side)

    ranked = sorted(enumerate(stats), key=rank)
    return tuple(side for side, _ in ranked)


def _adjacent_swaps(order: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    neighbours = []
    for i in range(len(order) - 1):
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        neighbours.append(tuple(swapped))
    return neighbours


def candidate_orders(
    n: int,
    stats: Optional[Sequence[StreamStats]] = None,
    cost_model: Optional[PlannerCostModel] = None,
    current: Optional[Tuple[int, ...]] = None,
) -> List[Tuple[int, ...]]:
    """All candidate priority orders for an *n*-way join.

    Exhaustive for ``n <= EXHAUSTIVE_LIMIT``; greedy seed plus
    adjacent-swap neighbours (plus the incumbent order) beyond.
    """
    if n < 2:
        raise PlannerError(f"candidate orders need n >= 2, got {n}")
    if n <= EXHAUSTIVE_LIMIT:
        return [tuple(p) for p in permutations(range(n))]
    if stats is None or cost_model is None:
        raise PlannerError(
            f"greedy enumeration for n={n} needs stats and a cost model"
        )
    seed = greedy_order(stats, cost_model)
    candidates = [seed] + _adjacent_swaps(seed)
    if current is not None and current not in candidates:
        candidates.append(tuple(current))
    # Dedup while keeping first-seen position.
    seen: Dict[Tuple[int, ...], None] = {}
    for cand in candidates:
        seen.setdefault(cand, None)
    return list(seen)


@dataclass(frozen=True)
class PlanChoice:
    """The chooser's output: the winner plus the full scored field."""

    order: Tuple[int, ...]
    cost: float
    candidates: Tuple[CandidateCost, ...]  # sorted, best first
    exhaustive: bool

    @property
    def best(self) -> CandidateCost:
        return self.candidates[0]

    def candidate_for(self, order: Sequence[int]) -> Optional[CandidateCost]:
        order = tuple(order)
        for cand in self.candidates:
            if cand.order == order:
                return cand
        return None

    def explain(self, names: Optional[Sequence[str]] = None) -> str:
        """Human-readable per-candidate cost table."""
        def fmt(order: Tuple[int, ...]) -> str:
            if names is None:
                return "(" + ", ".join(str(o) for o in order) + ")"
            return " > ".join(names[o] for o in order)

        lines = [
            f"{'order':<24} {'cost/ms':>12} {'vs best':>10}",
        ]
        best = self.candidates[0].total
        for cand in self.candidates:
            rel = (cand.total - best) / best * 100.0 if best > _EPS else 0.0
            marker = " <- chosen" if cand.order == self.order else ""
            lines.append(
                f"{fmt(cand.order):<24} {cand.total:>12.5f} {rel:>+9.1f}%{marker}"
            )
        mode = "exhaustive" if self.exhaustive else "greedy"
        lines.append(f"[{mode}: {len(self.candidates)} candidates scored]")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "order": list(self.order),
            "cost": self.cost,
            "exhaustive": self.exhaustive,
            "candidates": [cand.as_dict() for cand in self.candidates],
        }


def choose_plan(
    stats: Sequence[StreamStats],
    cost_model: Optional[PlannerCostModel] = None,
    current: Optional[Tuple[int, ...]] = None,
) -> PlanChoice:
    """Score the candidate orders and pick the cheapest.

    Ties break lexicographically on the order tuple, so the choice is
    deterministic for symmetric statistics (and keeps the identity
    order when nothing distinguishes the streams).
    """
    if cost_model is None:
        cost_model = PlannerCostModel()
    n = len(stats)
    orders = candidate_orders(n, stats, cost_model, current)
    scored = cost_model.score(orders, stats)
    scored.sort(key=lambda cand: (cand.total, cand.order))
    return PlanChoice(
        order=scored[0].order,
        cost=scored[0].total,
        candidates=tuple(scored),
        exhaustive=n <= EXHAUSTIVE_LIMIT,
    )
