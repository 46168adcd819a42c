"""Punctuation-aligned runtime re-optimization.

The :class:`Reoptimizer` attaches to a live
:class:`~repro.core.nary.NaryPJoin` and is notified at every
**purge-complete boundary** — the moment the monitor's purge threshold
fires and covered state has just been retired.  These are exactly the
punctuation-aligned cover cuts :mod:`repro.checkpoint` snapshots at
(see :func:`repro.checkpoint.recovery.cover_cut_times`), and they are
the only safe re-plan points: state is minimal, and no tuple is mid-
pipeline.

Every ``reopt_interval``-th boundary the re-optimizer closes a stats
window, scores the candidate orders, and — when the projected saving
clears the hysteresis — swaps the operator's probe order via
:meth:`NaryPJoin.set_plan`.  The swap is an **exact state handoff**: a
plan is only a visitation order over the side hash tables, so the
tables themselves are untouched and the result multiset is preserved
by construction (property-tested in ``tests/planner``).

The planner charges its own deliberation to virtual time
(``planning_cost``), so adaptive runs pay for the cycles they spend
thinking — an adaptive win in ``fig_nary_adaptive`` is net of planning
overhead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.planner.cost import PlannerCostModel
from repro.planner.plans import PlanChoice, choose_plan
from repro.planner.spec import PlannerSpec
from repro.planner.stats import StatsCollector, StreamStats

_EPS = 1e-12


@dataclass(frozen=True)
class Decision:
    """One re-optimization decision, kept for ``repro plan --explain``."""

    at_ms: float
    boundary: int
    previous: Tuple[int, ...]
    chosen: Tuple[int, ...]
    switched: bool
    current_cost: float       # cost of the incumbent order under new stats
    best_cost: float          # cost of the winner
    stats: Tuple[StreamStats, ...] = field(repr=False)
    choice: PlanChoice = field(repr=False)

    @property
    def cost_delta(self) -> float:
        """Projected saving (incumbent minus winner; >= 0)."""
        return self.current_cost - self.best_cost

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_ms": self.at_ms,
            "boundary": self.boundary,
            "previous": list(self.previous),
            "chosen": list(self.chosen),
            "switched": self.switched,
            "current_cost": self.current_cost,
            "best_cost": self.best_cost,
            "cost_delta": self.cost_delta,
        }


class Reoptimizer:
    """Re-evaluates an n-ary join's probe order at cover boundaries."""

    def __init__(
        self,
        join: Any,
        spec: PlannerSpec,
        cost_model: Optional[PlannerCostModel] = None,
    ) -> None:
        self.join = join
        self.spec = spec
        self.cost_model = cost_model or PlannerCostModel.from_cost_model(
            getattr(join, "cost_model", None)
        )
        self.collector = StatsCollector(join, smoothing=spec.smoothing)
        self.decisions: Deque[Decision] = deque(maxlen=spec.max_decisions)
        self.boundaries = 0
        self.reopt_count = 0
        self.switches = 0
        self.last_cost_delta = 0.0
        self.cumulative_cost_delta = 0.0

    def on_cover_boundary(self) -> float:
        """Notify of one purge-complete boundary; return planning cost.

        Returns the virtual-time cost of whatever deliberation happened
        (0.0 on the boundaries that only count toward the interval).
        """
        self.boundaries += 1
        if self.boundaries % self.spec.reopt_interval != 0:
            return 0.0
        return self._reoptimize()

    def _reoptimize(self) -> float:
        join = self.join
        now = join.engine.now
        stats = self.collector.collect(now)
        current = tuple(join.stream_order)
        choice = choose_plan(stats, self.cost_model, current=current)
        incumbent = choice.candidate_for(current)
        # candidate_orders scores every permutation up to
        # EXHAUSTIVE_LIMIT streams and appends the incumbent beyond.
        assert incumbent is not None
        current_cost = incumbent.total
        delta = current_cost - choice.cost
        threshold = self.spec.hysteresis * max(current_cost, _EPS)
        switched = choice.order != current and delta > threshold
        if switched:
            # Exact state handoff: only the visitation order changes;
            # the side hash tables are never touched.
            join.set_plan(choice.order)
            self.switches += 1
        self.reopt_count += 1
        self.last_cost_delta = delta if switched else 0.0
        if switched:
            self.cumulative_cost_delta += delta
        self.decisions.append(
            Decision(
                at_ms=now,
                boundary=self.boundaries,
                previous=current,
                chosen=choice.order if switched else current,
                switched=switched,
                current_cost=current_cost,
                best_cost=choice.cost,
                stats=tuple(stats),
                choice=choice,
            )
        )
        return self.cost_model.planning_cost(len(choice.candidates))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        return {
            "reopt.count": float(self.reopt_count),
            "switches": float(self.switches),
            "boundaries": float(self.boundaries),
            "last_cost_delta": self.last_cost_delta,
            "cumulative_cost_delta": self.cumulative_cost_delta,
        }

    def decision_log(self) -> List[Dict[str, object]]:
        return [decision.as_dict() for decision in self.decisions]
