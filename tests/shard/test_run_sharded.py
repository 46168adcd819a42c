"""The one sharded runner: its refusals and its in-process loop."""

from multiprocessing.process import BaseProcess

import pytest

from repro.checkpoint.recovery import CrashSpec
from repro.checkpoint.rescale import RescalePlan
from repro.core.config import PJoinConfig
from repro.errors import ConfigError, RecoveryError
from repro.experiments.harness import pjoin_factory, run_join_experiment
from repro.shard import backend
from repro.shard.backend import fork_available, run_sharded
from repro.workloads.generator import generate_workload

CONFIG = PJoinConfig(purge_threshold=1, propagation_mode="push_count")


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        n_tuples_per_stream=120, punct_spacing_a=10, punct_spacing_b=10,
        seed=3,
    )


def forbid_workers(monkeypatch):
    """Fail the test if any worker process starts from here on."""

    def start(process):
        pytest.fail(f"a worker process started: {process!r}")

    monkeypatch.setattr(BaseProcess, "start", start)


@pytest.fixture
def no_workers(monkeypatch):
    forbid_workers(monkeypatch)


class TestRefusals:
    @pytest.mark.parametrize("n_shards", [0, -1])
    def test_no_shards(self, workload, no_workers, n_shards):
        with pytest.raises(ConfigError, match="need at least one shard"):
            run_sharded(workload, n_shards)

    def test_checkpoint_interval_below_one(self, workload, no_workers):
        with pytest.raises(RecoveryError, match="must be >= 1, got 0"):
            run_sharded(workload, 2, checkpoint_every=0)

    @pytest.mark.parametrize("shard", [2, -1])
    def test_crash_shard_out_of_range(self, workload, no_workers, shard):
        with pytest.raises(RecoveryError, match="out of range"):
            run_sharded(workload, 2, crash=CrashSpec(shard, 10))

    def test_crash_with_rescale(self, workload, no_workers):
        with pytest.raises(ConfigError, match="both crash and rescale"):
            run_sharded(
                workload, 2, crash=CrashSpec(0, 10),
                rescale=RescalePlan(3, workload.end_time / 2),
            )


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestInProcess:
    """Without ``fork`` the shards run in turn here: the same outcome."""

    @pytest.mark.parametrize(
        "tuples, spacing, seed, every, crash",
        [
            # recovery_smoke's input: the crash precedes the first cut.
            (1200, 40.0, 42, 4, CrashSpec(0, 80)),
            (1200, 40.0, 42, None, None),
            # The crash follows a checkpoint, which recovery resumes.
            (120, 10.0, 3, 2, CrashSpec(0, 40)),
        ],
    )
    def test_matches_the_forked_run(
        self, monkeypatch, tuples, spacing, seed, every, crash
    ):
        workload = generate_workload(
            n_tuples_per_stream=tuples, punct_spacing_a=spacing,
            punct_spacing_b=spacing, seed=seed,
        )

        def run():
            return run_sharded(
                workload, 2, config=CONFIG, checkpoint_every=every,
                crash=crash,
            )

        forked = run()
        monkeypatch.setattr(backend, "fork_available", lambda: False)
        forbid_workers(monkeypatch)
        in_process = run()
        rows = []
        for outcome in (forked, in_process):
            assert outcome.counters["recovery.crashes_detected"] == (
                crash is not None
            )
            rows.append((
                outcome.results, outcome.punctuations_out,
                outcome.duration_ms, outcome.events,
            ))
        assert rows[0] == rows[1]
        assert forked.result_multiset() == in_process.result_multiset()
        assert forked.punctuation_multiset() == in_process.punctuation_multiset()
        assert forked.counters == in_process.counters


def test_punctuations_do_not_depend_on_kept_items():
    """Shard sinks keep every output punctuation, so a run without kept
    result items merges the same punctuations as one with them."""
    workload = generate_workload(n_tuples_per_stream=400, seed=42)
    plain = run_sharded(workload, 2, config=CONFIG, keep_items=False)
    kept = run_sharded(workload, 2, config=CONFIG, keep_items=True)
    unsharded = run_join_experiment(pjoin_factory(CONFIG), workload)
    assert plain.result_items == []
    assert plain.results == kept.results == unsharded.results
    assert kept.punctuations_out > 0
    assert plain.punctuations_out == kept.punctuations_out
    assert plain.punctuations_out == unsharded.punctuations_out
    assert plain.punctuation_multiset() == kept.punctuation_multiset()
