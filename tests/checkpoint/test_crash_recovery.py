"""Crash recovery reproduces the fault-free run, from any crash point.

The central property: a seeded crash before the Nth delivery — for
*any* N — followed by restore-from-latest-checkpoint and replay of the
unacknowledged suffix yields exactly the reference join multiset.  The
in-flight log unit tests pin the bounded-replay bookkeeping, and the
worker pool smoke drives the real fork/respawn path.
"""

from collections import Counter
from multiprocessing.process import BaseProcess

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint.recovery import (
    CrashSpec,
    cover_cut_times,
    run_checkpointed_shard,
    run_shard_with_recovery,
)
from repro.core.config import PJoinConfig
from repro.errors import OperatorError, RecoveryError
from repro.experiments.harness import pjoin_factory, run_join_experiment
from repro.shard import backend
from repro.shard.backend import fork_available, run_sharded
from repro.shard.router import InFlightLog
from repro.workloads.generator import generate_workload
from repro.workloads.reference import reference_join_multiset

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIGS = {
    "eager": PJoinConfig(purge_threshold=1),
    "spill": PJoinConfig(purge_threshold=3, memory_threshold=40),
}


def small_workload(seed=3):
    return generate_workload(
        n_tuples_per_stream=120,
        punct_spacing_a=10,
        punct_spacing_b=10,
        seed=seed,
    )


def result_multiset(outcome):
    return Counter(values for values, _ts in outcome["results"])


@pytest.fixture(scope="module")
def workload():
    return small_workload()


@pytest.fixture(scope="module")
def reference(workload):
    return reference_join_multiset(
        workload.schedule_a, workload.schedule_b,
        workload.schemas[0], workload.schemas[1],
    )


class TestCheckpointedRun:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_segmented_run_matches_reference(
        self, workload, reference, config_name
    ):
        outcome = run_checkpointed_shard(
            0, workload.schedule_a, workload.schedule_b, workload,
            config=CONFIGS[config_name], checkpoint_every=2,
        )
        assert result_multiset(outcome) == reference
        assert outcome["counters"]["checkpoint.checkpoints_saved"] > 0
        assert outcome["counters"]["checkpoint.checkpoint_bytes"] > 0

    def test_checkpoint_io_is_charged(self, workload):
        outcome = run_checkpointed_shard(
            0, workload.schedule_a, workload.schedule_b, workload,
            config=CONFIGS["eager"], checkpoint_every=2,
        )
        assert outcome["counters"]["checkpoint.save_time_ms"] > 0

    def test_without_an_interval_one_segment_and_no_store(
        self, workload, reference
    ):
        outcome = run_checkpointed_shard(
            0, workload.schedule_a, workload.schedule_b, workload,
            config=CONFIGS["spill"],
        )
        assert result_multiset(outcome) == reference
        assert not [k for k in outcome["counters"] if k.startswith("checkpoint.")]
        assert "final_state" not in outcome

    def test_interval_is_checked_before_the_scan(self):
        class Unscannable:
            def __iter__(self):
                raise AssertionError("the schedule was scanned")

        with pytest.raises(RecoveryError, match="must be >= 1, got 0"):
            cover_cut_times([Unscannable()], ["key"], 0)


class TestCrashAtAnyIndex:
    @SETTINGS
    @given(
        crash_after=st.integers(1, 250),
        config_name=st.sampled_from(sorted(CONFIGS)),
    )
    def test_recovery_reproduces_reference(self, crash_after, config_name):
        workload = small_workload()
        reference = reference_join_multiset(
            workload.schedule_a, workload.schedule_b,
            workload.schemas[0], workload.schemas[1],
        )
        outcome = run_shard_with_recovery(
            0, workload.schedule_a, workload.schedule_b, workload,
            config=CONFIGS[config_name], checkpoint_every=2,
            crash_after=crash_after,
        )
        assert result_multiset(outcome) == reference
        total = len(workload.schedule_a) + len(workload.schedule_b)
        if crash_after <= total:
            assert outcome["counters"]["recovery.crashes_detected"] == 1
            assert outcome["counters"]["recovery.workers_respawned"] == 1
            assert outcome["counters"]["recovery.events_replayed"] > 0

    def test_crash_before_first_checkpoint_cold_starts(
        self, workload, reference
    ):
        outcome = run_shard_with_recovery(
            0, workload.schedule_a, workload.schedule_b, workload,
            config=CONFIGS["eager"], checkpoint_every=2, crash_after=1,
        )
        assert result_multiset(outcome) == reference
        total = len(workload.schedule_a) + len(workload.schedule_b)
        assert outcome["counters"]["recovery.events_replayed"] == total

    def test_crash_spec_validates(self):
        with pytest.raises(RecoveryError, match="after_items"):
            CrashSpec(0, 0)


class TestInFlightLog:
    def test_ack_trims_prefix_and_suffix_shrinks(self):
        log = InFlightLog([1, 2, 3, 4], [5, 6])
        assert log.retained == 6
        log.ack(2, 1)
        assert log.base == (2, 1)
        assert log.suffix() == ([3, 4], [6])
        assert log.retained == 3
        assert log.items_retired == 3

    def test_ack_is_cumulative_and_idempotent(self):
        log = InFlightLog([1, 2, 3], [4, 5, 6])
        log.ack(1, 1)
        log.ack(1, 1)  # same positions again: nothing more trimmed
        assert log.items_retired == 2
        log.ack(3, 2)
        assert log.suffix() == ([], [6])

    def test_ack_backwards_raises(self):
        log = InFlightLog([1, 2], [3])
        log.ack(2, 1)
        with pytest.raises(OperatorError, match="backwards"):
            log.ack(1, 1)

    def test_ack_beyond_end_raises(self):
        log = InFlightLog([1, 2], [3])
        with pytest.raises(OperatorError, match="beyond"):
            log.ack(3, 0)

    def test_counters(self):
        log = InFlightLog([1], [2, 3])
        log.ack(1, 2)
        assert log.counters() == {
            "acks": 1, "items_retired": 3, "items_retained": 0,
        }


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestSupervisedBackend:
    def test_worker_crash_recovers_to_unsharded_multiset(self, workload):
        config = PJoinConfig(purge_threshold=1, propagation_mode="push_count")
        base = run_join_experiment(
            pjoin_factory(config), workload, label="base", keep_items=True
        )
        outcome = run_sharded(
            workload, 2, config=config, keep_items=True,
            checkpoint_every=2, crash=CrashSpec(0, 40),
        )
        assert outcome.result_multiset() == base.sink.result_multiset()
        assert outcome.counters["recovery.crashes_detected"] == 1
        assert outcome.counters["recovery.workers_respawned"] == 1
        assert outcome.counters["recovery.checkpoints_taken"] > 0
        assert outcome.counters["recovery.events_replayed"] > 0

    def test_crash_shard_out_of_range_raises(self, workload):
        with pytest.raises(RecoveryError, match="out of range"):
            run_sharded(workload, 2, crash=CrashSpec(5, 10))

    def test_worker_exception_is_raised_not_respawned(
        self, workload, monkeypatch
    ):
        # The same input raises again on every respawn, so the
        # supervisor must surface the worker's own error at once.
        monkeypatch.setattr(
            backend, "run_checkpointed_shard", failing_on_shard(1)
        )
        with pytest.raises(RecoveryError) as excinfo:
            run_sharded(workload, 2, checkpoint_every=2)
        message = str(excinfo.value)
        assert "worker raised" in message
        assert "RuntimeError: planted failure on shard 1" in message
        assert "died" not in message


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_plain_run_raises_the_worker_error(workload, monkeypatch):
    # No checkpoints and no crash: the supervisor still names the shard
    # and carries its traceback, and starts no replacement worker.
    started = []
    start = BaseProcess.start

    def counting_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(backend, "run_checkpointed_shard", failing_on_shard(1))
    monkeypatch.setattr(BaseProcess, "start", counting_start)
    with pytest.raises(RecoveryError) as excinfo:
        run_sharded(workload, 2)
    message = str(excinfo.value)
    assert message.startswith("shard 1 worker raised:\nTraceback")
    assert "RuntimeError: planted failure on shard 1" in message
    assert len(started) == 2


def failing_on_shard(failing):
    """The per-shard runner, raising on shard *failing* only."""
    run = backend.run_checkpointed_shard

    def run_or_fail(shard_index, *args, **kwargs):
        if shard_index == failing:
            raise RuntimeError(f"planted failure on shard {shard_index}")
        return run(shard_index, *args, **kwargs)

    return run_or_fail
