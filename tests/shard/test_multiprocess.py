"""The multiprocess backend agrees with the in-simulator backend."""

import pytest

from repro.core.config import PJoinConfig
from repro.experiments.harness import pjoin_factory, run_join_experiment
from repro.checkpoint.recovery import run_checkpointed_shard
from repro.shard.backend import (
    ShardPlan,
    ShardWorkerPool,
    fork_available,
    run_sharded,
)
from repro.tuples.tuple import Tuple
from repro.workloads.generator import generate_workload

CONFIG = PJoinConfig(purge_threshold=1, propagation_mode="push_count")


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        n_tuples_per_stream=800, punct_spacing_a=40, punct_spacing_b=40,
        seed=23,
    )


@pytest.fixture(scope="module")
def base(workload):
    return run_join_experiment(
        pjoin_factory(CONFIG), workload, label="base", keep_items=True
    )


def base_punct_multiset(run):
    counts = {}
    for punct in run.sink.punctuations:
        key = punct.patterns[0]
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestShardPlan:
    def test_every_tuple_lands_on_exactly_one_shard(self, workload):
        plan = ShardPlan(workload, 4)
        for side in (0, 1):
            sharded = sum(
                sum(1 for _t, item in plan.schedules[k][side]
                    if isinstance(item, Tuple))
                for k in range(4)
            )
            original = len(workload.tuples(side))
            assert sharded == original

    def test_constant_punctuations_are_not_duplicated(self, workload):
        # End-of-stream markers are appended by the sources at run time,
        # so the planned schedules hold tuples and punctuations only —
        # and each constant punctuation lands on exactly one shard.
        plan = ShardPlan(workload, 4)
        for side in (0, 1):
            sharded = sum(
                sum(1 for _t, item in plan.schedules[k][side]
                    if not isinstance(item, Tuple))
                for k in range(4)
            )
            assert sharded == len(workload.punctuations(side))

    def test_registrations_cover_every_exploitable_punctuation(self, workload):
        plan = ShardPlan(workload, 4)
        expected = len(workload.punctuations(0)) + len(workload.punctuations(1))
        assert len(plan.registrations) == expected


class TestMultiprocessEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_unsharded_reference(self, workload, base, k):
        outcome = run_sharded(workload, k, config=CONFIG)
        assert outcome.results == base.results
        assert outcome.result_multiset() == base.sink.result_multiset()
        assert outcome.punctuation_multiset() == base_punct_multiset(base)
        assert outcome.punctuations_unaligned == 0

    def test_counters_aggregate_to_unsharded_flow(self, workload, base):
        outcome = run_sharded(workload, 4, config=CONFIG)
        base_counters = base.join.counters()
        for name in ("tuples_in", "results_produced", "tuples_purged",
                     "probes", "probe_matches"):
            assert outcome.counters[name] == base_counters[name], name

    def test_results_ordered_by_virtual_time(self, workload):
        outcome = run_sharded(workload, 2, config=CONFIG)
        times = [ts for _values, ts in outcome.result_items]
        assert times == sorted(times)


class TestWorkerPool:
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_pool_is_reusable_and_deterministic(self, workload):
        plan = ShardPlan(workload, 2)
        pool = ShardWorkerPool(plan, config=CONFIG, keep_items=False)
        try:
            first = pool.run()
            second = pool.run()
        finally:
            pool.close()
        assert first.results == second.results
        assert first.events == second.events
        assert first.counters == second.counters

    def test_inline_worker_matches_pool_worker(self, workload):
        # run_checkpointed_shard is the exact function the forked
        # workers execute; running it inline must give the same outcome.
        plan = ShardPlan(workload, 2)
        inline = [
            run_checkpointed_shard(
                shard, plan.schedules[shard][0], plan.schedules[shard][1],
                workload, CONFIG, True,
            )
            for shard in range(2)
        ]
        outcome = run_sharded(workload, 2, config=CONFIG)
        assert sum(o["result_count"] for o in inline) == outcome.results
        assert sum(o["events"] for o in inline) == outcome.events
