"""ParallelSweepRunner: serial and parallel runs are byte-identical.

The ISSUE contract: for any jobs count, the exported figure JSON — runs,
samples, per-operator counters, checks — must equal the serial export
byte for byte, with the ``jobs`` manifest stamp as the only difference.
"""

import json

import pytest

from repro.errors import PerfError
from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.export import figure_to_dict
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.harness import RunOptions, active_options, run_options
from repro.memory.budget import GovernorSpec
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.perf.parallel import ParallelSweepRunner, _execute_point
from repro.resilience.chaos import run_chaos
from repro.resilience.policy import QUARANTINE
from repro.skew.manager import SkewSpec

SCALE = 0.05


def _figure_bytes(result):
    """Canonical figure JSON with the ``jobs`` stamp stripped."""
    exported = figure_to_dict(result)
    for run in exported["runs"]:
        run["manifest"].pop("jobs", None)
    return json.dumps(exported, sort_keys=True)


@pytest.fixture(scope="module")
def serial_figures():
    return {
        name: _figure_bytes(ALL_FIGURES[name](scale=SCALE))
        for name in ("figure5", "figure8")
    }


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("name", ["figure5", "figure8"])
def test_parallel_figure_json_byte_identical(serial_figures, name, jobs):
    runner = ParallelSweepRunner(jobs)
    result = runner.run_experiment(name, scale=SCALE)
    for run in result.runs:
        assert run.manifest["jobs"] == jobs
    # (_figure_bytes pops the stamp, so the byte comparison goes last.)
    assert _figure_bytes(result) == serial_figures[name]


def test_parallel_counters_identical(serial_figures):
    # Per-operator counters, specifically: the deepest determinism probe.
    serial = json.loads(serial_figures["figure5"])
    parallel = figure_to_dict(
        ParallelSweepRunner(2).run_experiment("figure5", scale=SCALE)
    )
    for s_run, p_run in zip(serial["runs"], parallel["runs"]):
        assert s_run["manifest"]["counters"] == p_run["manifest"]["counters"]


# One build field of the run options each, as the CLI flags set them.
RUN_OPTIONS = {
    "shards": RunOptions(shards=2),
    "governor": RunOptions(governor=GovernorSpec(budget_tuples=100)),
    "skew": RunOptions(skew=SkewSpec()),
}


@pytest.mark.parametrize("option", sorted(RUN_OPTIONS))
@pytest.mark.parametrize("name", ["figure8", "fig_nary_adaptive"])
def test_run_options_reach_the_workers(name, option):
    with run_options(RUN_OPTIONS[option]):
        serial = _figure_bytes(ALL_FIGURES[name](scale=SCALE))
        parallel = ParallelSweepRunner(2).run_experiment(name, scale=SCALE)
    assert _figure_bytes(parallel) == serial


def test_sharded_ablation_matches_serial():
    ablation = ALL_ABLATIONS["ablation_index_building"]
    with run_options(shards=2):
        serial = _figure_bytes(ablation(scale=SCALE))
        parallel = ParallelSweepRunner(2).run_experiment(
            "ablation_index_building", scale=SCALE
        )
    assert _figure_bytes(parallel) == serial


def test_worker_runs_under_the_options_it_is_passed():
    # Called in-process, outside any run_options block: the argument,
    # not inherited process state, must shard the run.
    run = _execute_point("figure8", SCALE, 0, RunOptions(shards=2))
    assert len(run.join.shards) == 2
    assert active_options() == RunOptions()


@pytest.mark.parametrize("observer", ["tracer", "profiler"])
def test_observers_refused_across_processes(observer):
    value = Tracer() if observer == "tracer" else Profiler()
    with run_options(**{observer: value}):
        with pytest.raises(PerfError, match="tracer or profiler"):
            ParallelSweepRunner(2).run_experiment("figure8", scale=SCALE)
        result = ParallelSweepRunner(1).run_experiment("figure8", scale=SCALE)
    assert result.runs


def _chaos_fingerprint(run):
    manifest = dict(run.manifest)
    manifest.pop("jobs", None)
    return json.dumps(
        {"summary": run.summary, "manifest": manifest}, sort_keys=True
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_chaos_matches_serial(jobs):
    serial = [
        _chaos_fingerprint(run_chaos(name, policy=QUARANTINE))
        for name in ("gentle", "disorder")
    ]
    runner = ParallelSweepRunner(jobs)
    runs = runner.run_chaos_scenarios(["gentle", "disorder"], policy=QUARANTINE)
    assert [_chaos_fingerprint(run) for run in runs] == serial
    assert [run.manifest["jobs"] for run in runs] == [jobs, jobs]


def test_jobs_must_be_positive():
    with pytest.raises(PerfError):
        ParallelSweepRunner(0)


def test_unknown_experiment_rejected():
    with pytest.raises(PerfError):
        ParallelSweepRunner(2).run_experiment("not_a_figure")
