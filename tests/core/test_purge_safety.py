"""No purge removes a tuple that a later tuple could still join (§3.4).

The purge-safety shadow (:mod:`tests.core.purge_safety`) records the
join values every purge removes and fails on a later tuple from another
stream that carries one.  These tests run it over the configurations of
the four benchmark workloads, built at small scale through the public
API (``run_join_experiment`` with the stock factories and the
``governed``/``sharding``/``skewed`` contexts), and check that the
shadow does see an unsafe purge.  The differential test in
``test_purge_candidates.py`` runs it over its drawn configurations too.
"""

import contextlib
from collections import Counter

import pytest

from repro.core.config import PJoinConfig
from repro.core.purge import purge_side
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
from repro.planner import PlannerSpec, get_preset
from repro.sim.costs import CostModel
from repro.skew.manager import SkewSpec
from repro.workloads import generate_nary_workload, generate_workload
from repro.workloads.reference import reference_join_multiset
from tests.core.purge_safety import PurgeSafetyShadow

TUPLES = 300


def paper_pjoin(seed):
    workload = generate_workload(
        n_tuples_per_stream=TUPLES, punct_spacing_a=40, punct_spacing_b=40,
        active_values=10, seed=seed,
    )
    config = PJoinConfig(
        purge_threshold=1, index_building="eager", propagation_mode="push_pairs"
    )
    return pjoin_factory(config), workload, [], None


def xjoin_budget(seed):
    workload = generate_workload(
        n_tuples_per_stream=TUPLES, punct_spacing_a=40, punct_spacing_b=40,
        active_values=10, seed=seed,
    )
    layers = [governed(GovernorSpec(budget_tuples=TUPLES / 16))]
    return xjoin_factory(), workload, layers, None


def zipf_shards(seed):
    workload = generate_workload(
        n_tuples_per_stream=TUPLES, punct_spacing_a=10, punct_spacing_b=10,
        active_values=48, zipf_exponent=1.4, seed=seed,
    )
    skew = SkewSpec(
        adaptive=True, hot_keys=True, hot_key_share=0.02, min_split_occupancy=8
    )
    config = PJoinConfig(purge_threshold=10, fault_policy="quarantine")
    return pjoin_factory(config), workload, [sharding(2), skewed(skew)], None


def nary_drift(seed):
    spec = get_preset("nary_drift").with_overrides(
        n_tuples_per_stream=TUPLES, seed=seed
    )
    factory = nary_pjoin_factory(
        config=PJoinConfig(purge_threshold=8),
        planner=PlannerSpec(mode="adaptive", reopt_interval=2),
    )
    costs = CostModel().with_overrides(probe_per_candidate=0.04)
    return factory, generate_nary_workload(spec), [], costs


WORKLOADS = {
    "paper_pjoin": paper_pjoin,
    "xjoin_budget": xjoin_budget,
    "zipf_shards": zipf_shards,
    "nary_drift": nary_drift,
}


def run_shadowed(factory, workload, layers, cost_model, shadow):
    def build(plan, workload):
        join = factory(plan, workload)
        shadow.attach_all(join)
        return join

    with contextlib.ExitStack() as stack:
        for layer in layers:
            stack.enter_context(layer)
        return run_join_experiment(
            build, workload, cost_model=cost_model, keep_items=True
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_configurations_purge_safely(name, seed):
    factory, workload, layers, cost_model = WORKLOADS[name](seed)
    shadow = PurgeSafetyShadow()
    run = run_shadowed(factory, workload, layers, cost_model, shadow)
    assert shadow.violations == []
    if name == "xjoin_budget":
        assert shadow.purged_entries == 0  # XJoin never purges
    else:
        assert shadow.purged_entries > 0
    if name != "nary_drift":
        expected = reference_join_multiset(
            workload.schedule_a, workload.schedule_b,
            workload.schemas[0], workload.schemas[1],
        )
        assert Counter(dict(run.sink.result_multiset())) == expected


def test_shadow_sees_a_purge_by_the_victims_own_punctuations():
    """Purging by a side's own store is unsafe; the shadow must say so."""
    factory, workload, layers, cost_model = paper_pjoin(0)

    def unsafe(plan, workload):
        join = factory(plan, workload)
        purge = join._components["state_purge"]

        def purge_also_by_own_store(event):
            cost = purge(event)
            for side in join.sides:
                purge_side(side, side, join.engine.now)
            return cost

        join._components["state_purge"] = purge_also_by_own_store
        return join

    shadow = PurgeSafetyShadow()
    run_shadowed(unsafe, workload, layers, cost_model, shadow)
    assert shadow.violations
