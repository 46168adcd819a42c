"""Unit tests for the experiment harness."""

import pickle

import pytest

from repro.core.config import PJoinConfig
from repro.errors import ConfigError
from repro.experiments.harness import (
    RunOptions,
    active_options,
    pjoin_factory,
    run_join_experiment,
    run_options,
    shj_factory,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec
from repro.planner import PlannerSpec
from repro.skew.manager import SkewSpec
from repro.workloads.generator import generate_workload


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        n_tuples_per_stream=600, punct_spacing_a=10, punct_spacing_b=10, seed=4
    )


def test_collects_all_series(workload):
    run = run_join_experiment(pjoin_factory(), workload, label="p")
    assert set(run.series) == {
        "state_total",
        "state_a",
        "state_b",
        "output",
        "punct_output",
    }
    assert len(run.state_series) > 0


def test_series_trimmed_at_eos(workload):
    run = run_join_experiment(pjoin_factory(), workload)
    assert run.state_series.times[-1] <= run.duration_ms


def test_summary_fields(workload):
    run = run_join_experiment(pjoin_factory(), workload, label="mine")
    summary = run.summary()
    assert summary["label"] == "mine"
    assert summary["results"] == run.results
    assert summary["duration_ms"] == run.duration_ms


def test_factories_build_expected_operators(workload):
    from repro.core.pjoin import PJoin
    from repro.operators.shj import SymmetricHashJoin
    from repro.operators.xjoin import XJoin

    assert isinstance(
        run_join_experiment(pjoin_factory(PJoinConfig()), workload).join, PJoin
    )
    assert isinstance(run_join_experiment(xjoin_factory(), workload).join, XJoin)
    assert isinstance(
        run_join_experiment(shj_factory(), workload).join, SymmetricHashJoin
    )


def test_all_factories_agree_on_results(workload):
    results = {
        label: run_join_experiment(factory, workload).results
        for label, factory in [
            ("pjoin", pjoin_factory()),
            ("xjoin", xjoin_factory()),
            ("shj", shj_factory()),
        ]
    }
    assert len(set(results.values())) == 1


def test_output_rate_windows(workload):
    run = run_join_experiment(pjoin_factory(), workload)
    assert run.output_rate_first_half() > 0
    assert run.output_rate_second_half() > 0


def test_keep_items_retains_results(workload):
    run = run_join_experiment(pjoin_factory(), workload, keep_items=True)
    assert len(run.sink.results) == run.results


class TestRunOptions:
    def test_nested_block_replaces_named_fields_then_restores(self, workload):
        spec = GovernorSpec(budget_tuples=100)
        assert active_options() == RunOptions()
        with run_options(shards=2) as outer:
            with run_options(governor=spec) as inner:
                assert active_options() is inner
                assert inner == RunOptions(shards=2, governor=spec)
                run = run_join_experiment(pjoin_factory(), workload)
            assert active_options() is outer
            # A whole value replaces every field, the outer ones too.
            with run_options(RunOptions(batch_size=4)):
                assert active_options() == RunOptions(batch_size=4)
            with pytest.raises(RuntimeError):
                with run_options(shards=3):
                    raise RuntimeError("restore on the way out")
            assert active_options() is outer
        assert active_options() == RunOptions()
        assert len(run.join.shards) == 2
        assert all(shard.governor is not None for shard in run.join.shards)

    @pytest.mark.parametrize(
        "fields", [{"shards": 0}, {"batch_size": 0}, {"batch_size": -3}]
    )
    def test_counts_below_one_rejected(self, fields):
        with pytest.raises(ConfigError):
            RunOptions(**fields)
        with pytest.raises(ConfigError):
            with run_options(**fields):
                pass
        assert active_options() == RunOptions()

    def test_build_fields_survive_pickle(self):
        options = RunOptions(
            shards=2,
            governor=GovernorSpec(budget_tuples=100, policy="skew-aware"),
            skew=SkewSpec(hot_keys=True),
            planner=PlannerSpec(mode="adaptive", reopt_interval=3),
            batch_size=8,
        )
        assert pickle.loads(pickle.dumps(options)) == options
