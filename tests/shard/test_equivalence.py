"""The sharded stack's equivalence guarantee (in-simulator backend).

* K=1 is byte-identical to the unsharded operator: same result tuples
  with the same virtual timestamps, same punctuations, same engine
  event count.
* K>1 produces the identical result multiset and the identical multiset
  of merged output punctuations, and aggregated flow counters match the
  unsharded run — in particular the purge counters, which pins the
  "shards never purge a tuple the unsharded operator would keep"
  invariant observably.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import PJoinConfig
from repro.experiments.harness import (
    pjoin_factory,
    run_join_experiment,
    shj_factory,
    sharding,
    xjoin_factory,
)
from repro.shard.merger import AlignedMerger
from repro.workloads.generator import generate_workload

# Counters that must sum across shards to the unsharded values on
# constant-punctuation workloads (timing counters legitimately differ).
FLOW_COUNTERS = (
    "tuples_in",
    "results_produced",
    "insertions",
    "tuples_purged",
    "probes",
    "probe_matches",
    "punctuations_in",
)


def run_pair(config, workload, k, keep_items=True):
    base = run_join_experiment(
        pjoin_factory(config), workload, label="base", keep_items=keep_items
    )
    with sharding(k):
        shard = run_join_experiment(
            pjoin_factory(config), workload, label=f"k{k}",
            keep_items=keep_items,
        )
    return base, shard


def signature(run):
    return (
        [(t.values, t.ts) for t in run.sink.results],
        [(tuple(p.patterns), p.ts) for p in run.sink.punctuations],
    )


def punct_multiset(run):
    counts = {}
    for p in run.sink.punctuations:
        key = tuple(p.patterns)
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        n_tuples_per_stream=1200, punct_spacing_a=30, punct_spacing_b=30,
        seed=17,
    )


class TestSingleShardByteIdentity:
    def test_results_and_punctuations_identical(self, workload):
        config = PJoinConfig(purge_threshold=1, propagation_mode="push_count")
        base, k1 = run_pair(config, workload, 1)
        assert signature(base) == signature(k1)

    def test_engine_event_count_identical(self, workload):
        base, k1 = run_pair(PJoinConfig(purge_threshold=1), workload, 1)
        assert (
            base.manifest["engine"]["events_executed"]
            == k1.manifest["engine"]["events_executed"]
        )


class TestMultiShardEquivalence:
    @pytest.mark.parametrize("k", [2, 4])
    def test_result_multiset_identical(self, workload, k):
        base, shard = run_pair(PJoinConfig(purge_threshold=1), workload, k)
        assert shard.sink.result_multiset() == base.sink.result_multiset()

    @pytest.mark.parametrize("k", [2, 4])
    def test_merged_punctuations_identical(self, workload, k):
        config = PJoinConfig(purge_threshold=1, propagation_mode="push_count")
        base, shard = run_pair(config, workload, k)
        assert base.punctuations_out > 0
        assert punct_multiset(shard) == punct_multiset(base)

    @pytest.mark.parametrize("k", [2, 4])
    def test_flow_counters_match(self, workload, k):
        base, shard = run_pair(PJoinConfig(purge_threshold=1), workload, k)
        base_counters = base.join.counters()
        shard_counters = shard.join.counters()
        for name in FLOW_COUNTERS:
            assert shard_counters[name] == base_counters[name], name

    def test_virtual_completion_shrinks_with_shards(self, workload):
        # K shards model K cores: per-shard state (and so probe cost)
        # is ~1/K, so the sharded run finishes earlier on the virtual
        # clock once the join is the bottleneck.
        base, shard = run_pair(PJoinConfig(purge_threshold=1), workload, 4)
        assert shard.duration_ms <= base.duration_ms

    def test_no_tuple_purged_that_unsharded_keeps(self, workload):
        # Direct statement of the purge-soundness invariant: summed
        # across shards, exactly as many tuples were purged as the
        # unsharded operator purged — none extra, none early enough to
        # lose results (the result multiset equality pins the latter).
        base, shard = run_pair(PJoinConfig(purge_threshold=1), workload, 4)
        assert (
            shard.join.counters()["tuples_purged"]
            == base.join.counters()["tuples_purged"]
        )
        assert shard.sink.result_multiset() == base.sink.result_multiset()


class TestBatchedMergeDelivery:
    """The merger's one-call outbox path against per-item delivery."""

    @pytest.mark.parametrize("keep_items", [True, False])
    @pytest.mark.parametrize("mode", ["push_pairs", "push_count"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_manifest_and_items_identical(
        self, workload, k, mode, keep_items, monkeypatch
    ):
        config = PJoinConfig(purge_threshold=1, propagation_mode=mode)

        def run():
            with sharding(k):
                result = run_join_experiment(
                    pjoin_factory(config), workload, label=f"k{k}",
                    keep_items=keep_items,
                )
            sink = result.sink
            return result, (
                signature(result),
                sink.tuple_arrival_times,
                sink.punctuation_arrival_times,
            )

        batched, batched_items = run()
        monkeypatch.setattr(AlignedMerger, "_accepts_batches", False)
        per_item, per_item_items = run()
        assert batched.join.merger.punctuations_merged > 0
        assert batched.manifest == per_item.manifest
        assert batched_items == per_item_items


class TestOtherJoinKinds:
    @pytest.mark.parametrize("factory", [xjoin_factory, shj_factory])
    def test_sharded_variants_reproduce_results(self, workload, factory):
        base = run_join_experiment(
            factory(), workload, label="base", keep_items=True
        )
        with sharding(2):
            shard = run_join_experiment(
                factory(), workload, label="k2", keep_items=True
            )
        assert shard.sink.result_multiset() == base.sink.result_multiset()


class TestSeededWorkloadProperty:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=5),
        spacing=st.sampled_from([10, 25, 50]),
    )
    def test_equivalence_over_random_workloads(self, seed, k, spacing):
        workload = generate_workload(
            n_tuples_per_stream=400,
            punct_spacing_a=spacing,
            punct_spacing_b=spacing,
            seed=seed,
        )
        config = PJoinConfig(purge_threshold=1, propagation_mode="push_count")
        base, shard = run_pair(config, workload, k)
        assert shard.sink.result_multiset() == base.sink.result_multiset()
        assert punct_multiset(shard) == punct_multiset(base)
        assert (
            shard.join.counters()["tuples_purged"]
            == base.join.counters()["tuples_purged"]
        )


class TestManifestIntegration:
    def test_sharded_manifest_has_per_shard_namespaces(self, workload):
        with sharding(2):
            run = run_join_experiment(
                pjoin_factory(PJoinConfig(purge_threshold=1)), workload,
                label="sharded",
            )
        counters = run.manifest["counters"]
        assert "pjoin.shard0" in counters
        assert "pjoin.shard1" in counters
        assert "pjoin.router" in counters
        assert "pjoin.merge" in counters
