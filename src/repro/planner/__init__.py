"""Cost-based adaptive planner for multi-way punctuated joins.

The paper evaluates PJoin with a fixed probe order.  For n-way joins
the order matters: each arriving tuple probes the other n-1 sides in
sequence, a miss ends the pipeline early, and punctuation cadence
decides how much state each side holds when probed.  This package
chooses — and at runtime *re*-chooses — that order:

* :mod:`~repro.planner.spec` — configuration (:class:`PlannerSpec`,
  ``static`` or ``adaptive``);
* :mod:`~repro.planner.stats` — rolling per-stream statistics from the
  live obs-layer counters;
* :mod:`~repro.planner.cost` — the virtual-time cost model with the
  punctuation-driven state-savings discount;
* :mod:`~repro.planner.plans` — candidate enumeration (exhaustive for
  n <= 4, greedy beyond) and the explainable :class:`PlanChoice`;
* :mod:`~repro.planner.reopt` — re-optimization at punctuation-aligned
  purge boundaries with exact (zero-copy) state handoff;
* :mod:`~repro.planner.presets` — named n-way workloads for
  ``repro plan`` and ``fig_nary_adaptive``.
"""

from repro.planner.spec import (
    ADAPTIVE,
    PLANNER_MODES,
    STATIC,
    PlannerSpec,
    validate_order,
)
from repro.planner.stats import StatsCollector, StreamStats
from repro.planner.cost import CandidateCost, PlannerCostModel
from repro.planner.plans import (
    EXHAUSTIVE_LIMIT,
    PlanChoice,
    candidate_orders,
    choose_plan,
    greedy_order,
)
from repro.planner.reopt import Decision, Reoptimizer
from repro.planner.presets import PRESETS, get_preset, preset_names

__all__ = [
    "STATIC",
    "ADAPTIVE",
    "PLANNER_MODES",
    "PlannerSpec",
    "validate_order",
    "StreamStats",
    "StatsCollector",
    "PlannerCostModel",
    "CandidateCost",
    "EXHAUSTIVE_LIMIT",
    "candidate_orders",
    "greedy_order",
    "choose_plan",
    "PlanChoice",
    "Decision",
    "Reoptimizer",
    "PRESETS",
    "get_preset",
    "preset_names",
]
