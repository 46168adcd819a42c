"""MemoryGovernor unit tests: demotion, fault-back, pinning, policies."""

import math

import pytest

from repro.core.config import PJoinConfig
from repro.experiments.harness import (
    governed,
    nary_pjoin_factory,
    pjoin_factory,
    run_join_experiment,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec
from repro.memory.governor import MemoryGovernor
from repro.planner import get_preset
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import PartitionedHashTable, stable_hash
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple
from repro.workloads import generate_nary_workload, generate_workload

SCHEMA = Schema.of("key", "seq")


def make_tuple(key, seq=0, ts=0.0):
    return Tuple(SCHEMA, (key, seq), ts=ts, validate=False)


def make_governor(budget, policy="lru", n_partitions=4, sides=1):
    cost_model = CostModel()
    disk = SimulatedDisk(cost_model)
    governor = MemoryGovernor(budget, policy=policy, disk=disk)
    tables = []
    for side in range(sides):
        table = PartitionedHashTable(n_partitions=n_partitions)
        governor.register_side(side, table)
        tables.append(table)
    return governor, tables


def fill(table, keys, ts=0.0):
    for seq, key in enumerate(keys):
        table.insert(make_tuple(key, seq, ts), key, ts)


class TestUnlimitedFastPath:
    def test_every_hook_is_free_and_stateless(self):
        governor, (table,) = make_governor(math.inf)
        fill(table, range(50))
        assert governor.fault_in(0, 3) == 0.0
        assert governor.after_insert(0, 3) == 0.0
        assert governor.fault_in_all() == 0.0
        assert governor.recency == {}
        assert governor.spills == 0 and governor.faults == 0
        assert table.memory_count == 50 and table.cold_count == 0

    def test_counters_omit_infinite_budget(self):
        governor, _ = make_governor(math.inf)
        counters = governor.counters()
        assert "budget_tuples" not in counters
        assert counters["spills"] == 0


class TestEnforcement:
    def test_over_budget_insert_demotes_down_to_budget(self):
        governor, (table,) = make_governor(8.0)
        fill(table, range(16))
        governor.after_insert(0, 15)
        assert table.memory_count <= 8
        assert table.cold_count == 16 - table.memory_count
        assert governor.spills > 0
        assert governor.tuples_spilled == table.cold_count
        assert governor.counters()["budget_tuples"] == 8.0

    def test_spill_charges_disk_write_cost(self):
        governor, (table,) = make_governor(4.0)
        fill(table, range(12))
        cost = governor.after_insert(0, 11)
        assert cost > 0.0
        assert governor.spill_time_ms == pytest.approx(cost)
        assert governor.disk.tuples_written == governor.tuples_spilled

    def test_fault_in_promotes_cold_bucket_and_charges_reads(self):
        governor, (table,) = make_governor(4.0)
        fill(table, range(12))
        governor.after_insert(0, 11)
        cold_before = table.cold_count
        assert cold_before > 0
        # Touch every key so each cold bucket faults back in.
        cost = sum(governor.fault_in(0, key) for key in range(12))
        assert cost > 0.0
        assert table.cold_count == 0
        assert governor.tuples_faulted == cold_before
        assert governor.disk.tuples_read == cold_before

    def test_round_trip_preserves_entries_and_order(self):
        governor, (table,) = make_governor(4.0)
        fill(table, range(12))
        before = [(e.tup.values, e.join_hash, e.ats, e.dts)
                  for e in table.iter_all()]
        governor.after_insert(0, 11)
        governor.fault_in_all()
        after = [(e.tup.values, e.join_hash, e.ats, e.dts)
                 for e in table.iter_all()]
        assert sorted(after) == sorted(before)
        # dts untouched: demotion never closes a residency interval.
        assert all(d == math.inf for _v, _h, _a, d in after)

    def test_eviction_never_demotes_pinned_bucket(self):
        governor, (table,) = make_governor(1.0, n_partitions=2)
        fill(table, range(8))
        # Pin bucket of key 0 as an in-flight probe would.
        governor.fault_in(0, 0)
        pinned = table.partition_for(0)
        governor._enforce()
        assert pinned.memory_count > 0  # the probed bucket stayed warm
        # Unpinned buckets were fair game.
        assert table.cold_count > 0

    def test_all_pinned_denies_eviction_instead_of_violating(self):
        governor, (table,) = make_governor(1.0, n_partitions=1)
        fill(table, range(6))
        governor.fault_in(0, 0)  # the only bucket is now pinned
        governor._enforce()
        assert governor.evictions_denied == 1
        assert table.cold_count == 0
        # after_insert clears pins, so the next enforcement succeeds.
        governor.after_insert(0, 0)
        governor._enforce()
        assert table.memory_count <= 1


class TestPinRelease:
    """Pins shield one item's buckets; nothing may outlive the item."""

    def test_release_pins_unshields_faulted_bucket(self):
        governor, (table,) = make_governor(1.0, n_partitions=1)
        fill(table, range(6))
        governor.fault_in(0, 0)  # e.g. a probe whose tuple is then dropped
        governor.release_pins()
        governor._enforce()
        assert governor.evictions_denied == 0
        assert table.memory_count == 0

    @pytest.mark.parametrize("algo", ["pjoin", "nary"])
    def test_dropped_tuples_leave_no_stale_pins(self, algo):
        # Both joins drop covered tuples on the fly after probing; on
        # these inputs the probed buckets' stale pins used to deny
        # evictions (6 and 8 times).
        config = PJoinConfig(purge_threshold=1)
        if algo == "pjoin":
            factory, budget = pjoin_factory(config), 125.0
            workload = generate_workload(
                n_tuples_per_stream=2000, punct_spacing_a=40,
                punct_spacing_b=40, seed=3,
            )
        else:
            factory, budget = nary_pjoin_factory(config=config), 60.0
            workload = generate_nary_workload(
                get_preset("nary_drift").with_overrides(
                    n_tuples_per_stream=500, seed=3
                )
            )
        with governed(GovernorSpec(budget)):
            run = run_join_experiment(factory, workload, label="pins")
        counters = run.join.counters()
        assert run.join.tuples_dropped_on_fly > 0
        assert counters["governor.spills"] > 0
        assert counters["governor.evictions_denied"] == 0

    @pytest.mark.parametrize(
        "factory, background",
        [
            (lambda: pjoin_factory(PJoinConfig(purge_threshold=1,
                                               memory_threshold=60)),
             "disk_join_runs"),
            (lambda: xjoin_factory(memory_threshold=60), "stage2_runs"),
        ],
        ids=["pjoin-disk-join", "xjoin-stage2"],
    )
    def test_no_pin_survives_an_item_or_background_task(
        self, factory, background
    ):
        workload = generate_workload(
            n_tuples_per_stream=600, punct_spacing_a=40, punct_spacing_b=40,
            seed=7,
        )
        stale = []

        def checked_factory(plan, workload):
            join = factory()(plan, workload)
            handle = join.handle

            def checked_handle(item, port):
                # Background work runs between items: its pins show here.
                stale.append(set(join.governor._pins))
                cost = handle(item, port)
                stale.append(set(join.governor._pins))
                return cost

            join.handle = checked_handle
            return join

        # Cheap items leave the join idle between arrivals, so the
        # reactive disk-join stages run.
        with governed(GovernorSpec(100.0)):
            run = run_join_experiment(
                checked_factory, workload, label="pins",
                cost_model=CostModel().scaled(0.01),
            )
        assert getattr(run.join, background) > 0
        assert not any(stale)
        assert not run.join.governor._pins  # the clean-up join's too

    def test_cleanup_join_leaves_no_pins(self):
        # XJoin's clean-up join faults every cold bucket back in.
        workload = generate_workload(
            n_tuples_per_stream=600, punct_spacing_a=40, punct_spacing_b=40,
            seed=7,
        )
        with governed(GovernorSpec(40.0)):
            run = run_join_experiment(xjoin_factory(), workload, label="pins")
        governor = run.join.governor
        assert governor.spills > 0 and governor.cold_size() == 0
        assert not governor._pins


class TestPolicies:
    def test_lru_picks_least_recently_touched(self):
        governor, (table,) = make_governor(1.0, policy="lru", n_partitions=4)
        # One tuple per bucket (keys 0..3 hash to distinct buckets mod 4
        # via stable_hash; derive keys from the table's own mapping).
        by_bucket = {}
        key = 0
        while len(by_bucket) < 4:
            bucket = stable_hash(key) % 4
            if bucket not in by_bucket:
                by_bucket[bucket] = key
                table.insert(make_tuple(key), key, 0.0)
            key += 1
        keys = [by_bucket[b] for b in sorted(by_bucket)]
        for k in keys:
            governor.fault_in(0, k)
        governor._pins.clear()
        candidates = [
            (governor._by_key[0], p)
            for p in table.partitions if p.memory_count
        ]
        _, victim = governor.policy.select(candidates, governor)
        assert victim is table.partition_for(keys[0])

    def test_largest_partition_first(self):
        governor, (table,) = make_governor(
            1.0, policy="largest-partition-first", n_partitions=2
        )
        fill(table, [0] * 5 + [1])
        candidates = [
            (governor._by_key[0], p)
            for p in table.partitions if p.memory_count
        ]
        _, victim = governor.policy.select(candidates, governor)
        assert victim is table.partition_for(0)

    def test_punctuation_aware_prefers_covered_buckets(self):
        cost_model = CostModel()
        governor = MemoryGovernor(
            1.0, policy="punctuation-aware", disk=SimulatedDisk(cost_model)
        )
        table = PartitionedHashTable(n_partitions=2)
        governor.register_side(0, table, covered_by=lambda value: value == 1)
        fill(table, [0] * 5 + [1])  # bucket(1) is covered but smaller
        candidates = [
            (governor._by_key[0], p)
            for p in table.partitions if p.memory_count
        ]
        _, victim = governor.policy.select(candidates, governor)
        assert victim is table.partition_for(1)

    def test_punctuation_aware_degrades_to_largest_without_coverage(self):
        governor, (table,) = make_governor(
            1.0, policy="punctuation-aware", n_partitions=2
        )
        fill(table, [0] * 5 + [1])
        candidates = [
            (governor._by_key[0], p)
            for p in table.partitions if p.memory_count
        ]
        _, victim = governor.policy.select(candidates, governor)
        assert victim is table.partition_for(0)


class TestRegistration:
    def test_duplicate_side_rejected(self):
        governor, _ = make_governor(10.0)
        with pytest.raises(ValueError):
            governor.register_side(0, PartitionedHashTable())

    def test_usage_spans_sides(self):
        governor, (a, b) = make_governor(100.0, sides=2)
        fill(a, range(3))
        fill(b, range(5))
        assert governor.usage() == 8

    def test_stats_include_policy_and_budget(self):
        governor, _ = make_governor(10.0, policy="largest-partition-first")
        stats = governor.stats()
        assert stats["policy"] == "largest-partition-first"
        assert stats["budget"] == "10"


class TestSpecBuildIntegration:
    def test_spec_build_round_trip(self):
        spec = GovernorSpec(16.0, policy="punctuation-aware")
        governor = spec.build(CostModel())
        assert governor.budget_tuples == 16.0
        assert governor.policy_name == "punctuation-aware"
