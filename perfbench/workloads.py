"""The four benchmark workloads, as data.

Each :class:`Workload` names the input generator, the join under test
and the feature layers switched on for it.  A workload exists because
it is the only one that runs at least one layer (see README.md):

* ``paper_pjoin``  -- memory join, probe, emit, sink, index, propagation;
  every feature layer off, so the fast path runs;
* ``xjoin_budget`` -- XJoin and the memory governor (spill/fault-in);
* ``zipf_shards``  -- lazy purge, skew layer, in-sim shards, quarantine;
* ``nary_drift``   -- the n-ary join and the adaptive planner.

Everything here drives the public API: the ``repro.workloads``
generators, ``run_join_experiment`` with the stock factories, and the
``sharding``/``governed``/``skewed`` contexts.  The layers are fields,
so a test can switch one off and watch its engagement gate fail.
"""

from __future__ import annotations

import contextlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import PJoinConfig
from repro.experiments.harness import (
    governed,
    nary_pjoin_factory,
    pjoin_factory,
    run_join_experiment,
    sharding,
    skewed,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec
from repro.operators import fastpath
from repro.planner import PlannerSpec, get_preset
from repro.sim.costs import CostModel
from repro.skew.manager import SkewSpec
from repro.workloads import generate_nary_workload, generate_workload

# Wraps a stock factory; the benchmark uses it to stamp or trace the
# join right after the harness builds it.
FactoryHook = Callable[[Any], Any]

# Virtual ms between the state samples that state_mean_tuples averages.
SAMPLE_INTERVAL_MS = 200.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input and the join configuration."""

    name: str
    join: str  # "pjoin", "xjoin" or "nary"
    tuples_per_stream: int
    # Stamp every K-th input item the join finishes (K fixed so a run
    # has at least MIN_BLOCKS blocks).
    stamp_every: int
    punct_spacing: float = 40.0
    active_values: int = 10
    zipf_exponent: Optional[float] = None
    config: PJoinConfig = PJoinConfig()
    # Governor budget as a share of one stream's tuples.
    budget_share: Optional[float] = None
    shards: Optional[int] = None
    skew: Optional[SkewSpec] = None
    planner: Optional[PlannerSpec] = None
    cost_overrides: Optional[Dict[str, float]] = None
    # State samples are scheduled until end_time * horizon_factor + 1 s
    # of virtual time; it must reach end-of-stream (the benchmark
    # checks), or state_mean_tuples would average an early window only.
    horizon_factor: float = 4.0

    def generate(self, seed: int) -> Any:
        """The seeded input; the same seed always gives the same input."""
        if self.join == "nary":
            spec = get_preset("nary_drift").with_overrides(
                n_tuples_per_stream=self.tuples_per_stream, seed=seed
            )
            return generate_nary_workload(spec)
        return generate_workload(
            n_tuples_per_stream=self.tuples_per_stream,
            punct_spacing_a=self.punct_spacing,
            punct_spacing_b=self.punct_spacing,
            active_values=self.active_values,
            zipf_exponent=self.zipf_exponent,
            seed=seed,
        )

    def factory(self) -> Any:
        if self.join == "xjoin":
            return xjoin_factory()
        if self.join == "nary":
            return nary_pjoin_factory(config=self.config, planner=self.planner)
        return pjoin_factory(self.config)

    def run(self, workload: Any, hook: FactoryHook, keep_items: bool = False) -> Any:
        """One run call: plan build, simulation and manifest build.

        *hook* wraps the stock factory so the benchmark can reach the
        built join (stamps, spans) without touching the program.
        """
        cost_model = (
            CostModel().with_overrides(**self.cost_overrides)
            if self.cost_overrides
            else None
        )
        with contextlib.ExitStack() as stack:
            if self.budget_share is not None:
                budget = self.tuples_per_stream * self.budget_share
                stack.enter_context(governed(GovernorSpec(budget_tuples=budget)))
            if self.shards is not None:
                stack.enter_context(sharding(self.shards))
            if self.skew is not None:
                stack.enter_context(skewed(self.skew))
            return run_join_experiment(
                hook(self.factory()),
                workload,
                label=f"perfbench:{self.name}",
                sample_interval_ms=SAMPLE_INTERVAL_MS,
                cost_model=cost_model,
                keep_items=keep_items,
                horizon_factor=self.horizon_factor,
            )


def inner_joins(join: Any) -> List[Any]:
    """The operators that handle input items: the shards, or the join."""
    shards = getattr(join, "shards", None)
    return list(shards) if shards is not None else [join]


def engagement_failures(workload: Workload, run: Any) -> List[str]:
    """Check that the layers this workload stresses really did work."""
    join = run.join
    failures: List[str] = []
    counters = join.counters()
    if workload.name == "paper_pjoin":
        # The no-change workload for every feature layer: a plain PJoin
        # on its fast path (strict check inlined, no governor, no skew).
        if type(join).__name__ != "PJoin":
            failures.append(f"paper_pjoin: join is {type(join).__name__}, not PJoin")
        elif join.governor is not None or join.skew is not None:
            failures.append("paper_pjoin: a feature layer is attached")
        elif not fastpath.is_fastpath(inspect.unwrap(vars(join).get("handle"))):
            failures.append("paper_pjoin: the fast path is not installed")
    elif workload.name == "xjoin_budget":
        if not counters.get("governor.spills"):
            failures.append("xjoin_budget: the governor never spilled")
    elif workload.name == "zipf_shards":
        if not counters.get("skew.splits"):
            failures.append("zipf_shards: no bucket ever split")
        router = getattr(join, "router", None)
        router_counters = router.counters() if router is not None else {}
        if not router_counters.get("hot_activations"):
            failures.append("zipf_shards: no hot key was activated")
        shards = getattr(join, "shards", None) or []
        if len(shards) < 2 or any(shard.tuples_in == 0 for shard in shards):
            failures.append("zipf_shards: a shard received no tuples")
    elif workload.name == "nary_drift":
        if not counters.get("planner.switches"):
            failures.append("nary_drift: the planner never switched plans")
    return failures


def dead_letter_count(run: Any) -> int:
    """Tuples of the valid input the joins dead-lettered."""
    return sum(len(op.dead_letters or ()) for op in inner_joins(run.join))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_pjoin",
            join="pjoin",
            tuples_per_stream=2000,
            stamp_every=3,
            config=PJoinConfig(
                purge_threshold=1,
                index_building="eager",
                propagation_mode="push_pairs",
            ),
        ),
        Workload(
            name="xjoin_budget",
            join="xjoin",
            tuples_per_stream=2000,
            stamp_every=3,
            budget_share=1 / 16,
            # Charged governor I/O keeps the join busy until about 25
            # times the input's end time.
            horizon_factor=50.0,
        ),
        Workload(
            name="zipf_shards",
            join="pjoin",
            tuples_per_stream=1000,
            stamp_every=2,
            punct_spacing=10.0,
            active_values=48,
            zipf_exponent=1.4,
            config=PJoinConfig(purge_threshold=10, fault_policy="quarantine"),
            shards=2,
            # Lazily purged shards hold little state: buckets split from 8
            # entries, and keys count as hot from a 2% share, so both
            # mechanisms engage on every seed.
            skew=SkewSpec(
                adaptive=True,
                hot_keys=True,
                hot_key_share=0.02,
                min_split_occupancy=8,
            ),
        ),
        Workload(
            name="nary_drift",
            join="nary",
            tuples_per_stream=1500,
            stamp_every=4,
            config=PJoinConfig(purge_threshold=8),
            planner=PlannerSpec(mode="adaptive", reopt_interval=2),
            cost_overrides={"probe_per_candidate": 0.04},
        ),
    )
}
