"""Per-layer metrics of a traced run.

Times and call counts come from the spans (see ``tracing.py``); ratios
come from the counters the run's operators already keep.  Each metric
names the layer it belongs to and what it should move end to end (see
README.md for the map).  The metric list is ``per_layer`` in
``BENCHMARK.json``: a ``<span>.self_ms`` or ``<span>.calls`` metric is
read from the span summary, the rest are computed here.
"""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.run import metric_units
from perfbench.workloads import Workload, inner_joins

# Layers paper_pjoin must never call into: it is the no-change
# workload for every feature layer.
BYPASSED_ON_PAPER_PJOIN = ("memory.", "skew.", "shard.", "planner.", "resilience.")


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 where the layer did no work (den == 0)."""
    return float(num) / float(den) if den else 0.0


def _sum(counters: List[Dict[str, Any]], key: str) -> float:
    return float(sum(c.get(key, 0) or 0 for c in counters))


def layer_metrics(
    run: Any,
    summary: Dict[str, Dict[str, float]],
    items: int,
    root_ms: float,
    generate_ms: float,
    spans: int,
    purge_scanned: int,
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_pct``."""
    ops = inner_joins(run.join)
    counters = [op.counters() for op in ops]
    join_counters = run.join.counters()
    router = getattr(run.join, "router", None)
    router_counters = router.counters() if router is not None else {}
    out: Dict[str, float] = {}
    for name in metric_units("per_layer"):
        for suffix, field in ((".self_ms", "self_ms"), (".calls", "calls")):
            if name.endswith(suffix):
                span = name[: -len(suffix)]
                out[name] = float(summary.get(span, {}).get(field, 0.0))
    tuples_in = _sum(counters, "tuples_in")
    duration = run.duration_ms
    probes = _sum(counters, "probes")
    matches = _sum(counters, "probe_matches")
    if not probes:  # the n-ary join keeps per-side probe counters
        probes = sum(v for c in counters for k, v in c.items() if k.endswith(".probe_count"))
        matches = sum(v for c in counters for k, v in c.items() if k.endswith(".match_count"))
    shard_items = [op.items_processed for op in ops]
    reopts = float(join_counters.get("planner.reopt.count", 0.0))
    out.update(
        {
            "sim.events_per_item": _ratio(
                run.manifest["engine"]["events_executed"], items
            ),
            "operators.queue_max": float(max(op.max_queue_length for op in ops)),
            "operators.busy_ratio": _ratio(
                sum(op.busy_time for op in ops), duration * len(ops)
            ),
            "operators.results_per_item": _ratio(run.results, items),
            "core.purge.discard_ratio": _ratio(
                _sum(counters, "tuples_purged"), purge_scanned
            ),
            "core.drop_ratio": _ratio(
                _sum(counters, "tuples_dropped_on_fly"), tuples_in
            ),
            "storage.matches_per_probe": _ratio(matches, probes),
            "resilience.dead_letters": float(sum(len(op.dead_letters or ()) for op in ops)),
            "memory.spills": _sum(counters, "governor.spills"),
            "memory.refault_ratio": _ratio(
                _sum(counters, "governor.tuples_faulted"),
                _sum(counters, "governor.tuples_spilled"),
            ),
            "skew.moved_per_split": _ratio(
                _sum(counters, "skew.entries_moved"), _sum(counters, "skew.splits")
            ),
            "skew.hot_activations": float(router_counters.get("hot_activations", 0)),
            "skew.replicas_per_item": _ratio(
                router_counters.get("replica_copies", 0), items
            ),
            "shard.imbalance": (
                _ratio(max(shard_items), sum(shard_items) / len(shard_items))
                if router is not None
                else 0.0
            ),
            "planner.switch_ratio": _ratio(
                join_counters.get("planner.switches", 0.0), reopts
            ),
            "workloads.generate.self_ms": generate_ms,
            "experiments.run.ms": root_ms,
            "trace.spans": float(spans),
        }
    )
    return out


def trace_gate_failures(
    workload: Workload, summary: Dict[str, Dict[str, float]]
) -> List[str]:
    """Engagement gates that need call counts from the trace."""
    failures = []
    if workload.name == "paper_pjoin":
        for span, stats in sorted(summary.items()):
            if span.startswith(BYPASSED_ON_PAPER_PJOIN) and stats["calls"]:
                failures.append(
                    f"paper_pjoin: {int(stats['calls'])} calls into {span}"
                )
    return failures
