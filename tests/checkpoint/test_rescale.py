"""Live rescaling: quiesce, migrate, resume — output stays exact.

A mid-run ``K1 -> K2`` rescale splits/merges checkpointed partitions
across the new shard set at a punctuation-cover boundary.  Whatever
the direction (scale-up, scale-down, same-size reshuffle) and whatever
the memory regime (pure in-memory or spilled disk tiers), the full run
must reproduce the unsharded result multiset; under eager purge with
propagation the merged punctuation multiset is exact too.
"""

from collections import Counter

import pytest

from repro.checkpoint.rescale import RescalePlan
from repro.core.config import PJoinConfig
from repro.errors import RecoveryError
from repro.experiments.harness import pjoin_factory, run_join_experiment
from repro.shard.backend import run_sharded
from repro.workloads.generator import generate_workload


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        n_tuples_per_stream=240,
        punct_spacing_a=12,
        punct_spacing_b=12,
        seed=11,
    )


def unsharded(workload, config):
    run = run_join_experiment(
        pjoin_factory(config), workload, label="base", keep_items=True
    )
    puncts = Counter(p.patterns[0] for p in run.sink.punctuations)
    return run.sink.result_multiset(), puncts


class TestRescalePlan:
    @pytest.mark.parametrize("counts_at", [(0, 5.0), (2, -1.0)])
    def test_invalid_values_raise(self, counts_at):
        with pytest.raises(RecoveryError):
            RescalePlan(*counts_at)


class TestRescaleEquivalence:
    @pytest.mark.parametrize("k1,k2", [(2, 3), (4, 2), (2, 2), (1, 3)])
    def test_result_multiset_matches_unsharded(self, workload, k1, k2):
        config = PJoinConfig(purge_threshold=1, propagation_mode="push_count")
        base_results, base_puncts = unsharded(workload, config)
        outcome = run_sharded(
            workload,
            k1,
            rescale=RescalePlan(k2, workload.end_time / 2),
            config=config,
            checkpoint_every=2,
        )
        assert Counter(outcome.result_multiset()) == Counter(base_results)
        assert Counter(outcome.punctuation_multiset()) == base_puncts
        assert outcome.counters["rescale.shards_before"] == k1
        assert outcome.counters["rescale.shards_after"] == k2
        assert outcome.counters["rescale.migrated_tuples"] >= 0

    @pytest.mark.parametrize("k1,k2", [(2, 3), (3, 2)])
    def test_spilled_state_migrates_exactly(self, workload, k1, k2):
        # A tight memory threshold forces disk-resident entries at the
        # cut; migration must carry their departure stamps or the
        # dedupe rules double-produce (or drop) disk pairs.
        config = PJoinConfig(purge_threshold=3, memory_threshold=30)
        base_results, _ = unsharded(workload, config)
        outcome = run_sharded(
            workload,
            k1,
            rescale=RescalePlan(k2, workload.end_time / 2),
            config=config,
            checkpoint_every=2,
        )
        assert Counter(outcome.result_multiset()) == Counter(base_results)

    def test_early_cut_migrates_little_late_cut_much(self, workload):
        config = PJoinConfig(purge_threshold=1)
        early = run_sharded(
            workload, 2, rescale=RescalePlan(3, 0.0), config=config,
        )
        late = run_sharded(
            workload,
            2,
            rescale=RescalePlan(3, workload.end_time * 0.9),
            config=config,
        )
        base_results, _ = unsharded(workload, config)
        assert Counter(early.result_multiset()) == Counter(base_results)
        assert Counter(late.result_multiset()) == Counter(base_results)
        assert early.counters["rescale.cut_ts"] < late.counters["rescale.cut_ts"]

    def test_no_boundary_after_cut_time_raises(self, workload):
        with pytest.raises(RecoveryError, match="boundary"):
            run_sharded(
                workload,
                2,
                rescale=RescalePlan(3, workload.end_time * 10),
                config=PJoinConfig(purge_threshold=1),
            )
