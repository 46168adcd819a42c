"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402
from perfbench.child import UNATTRIBUTED_MAX_SHARE, run_once  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Small enough to run in well under a second, large enough that every
# workload's layers still engage.
TINY = {
    "paper_pjoin": {"tuples_per_stream": 300},
    "xjoin_budget": {"tuples_per_stream": 300},
    "zipf_shards": {"tuples_per_stream": 400},
    "nary_drift": {"tuples_per_stream": 600},
}


def tiny_run(name, tmp_path, traced=False, **overrides):
    return run_once(
        name, 7, traced, tmp_path, min_blocks=1, overrides={**TINY[name], **overrides}
    )


@pytest.mark.parametrize("name", [w["name"] for w in bench.spec()["workloads"]])
def test_every_metric_prints_with_name_and_unit(name, tmp_path, capsys):
    untraced = tiny_run(name, tmp_path)
    assert untraced["failures"] == []
    seeds = [untraced["seed"]]
    result = bench.aggregate(name, 7, seeds, [untraced])
    line = bench.contract_line(result, traced=False)
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    units = bench.metric_units("end_to_end")
    assert set(line["metrics"]) == set(units)
    for metric, value in line["metrics"].items():
        assert value["unit"] == units[metric]
        assert value["value"] > 0
    traced = tiny_run(name, tmp_path, traced=True)
    assert traced["failures"] == []
    bench.add_trace(result, traced)
    assert result["layer_metrics"]["trace.overhead_pct"] != 0
    line = bench.contract_line(result, traced=True)
    layer_units = bench.metric_units("per_layer")
    assert {m: v["unit"] for m, v in line["metrics"].items()} == layer_units
    bench.print_summary(result, traced=True)
    printed = capsys.readouterr().out
    for metric in {**units, **layer_units}:
        assert metric in printed
    assert Path(traced["trace_file"]).is_file()


def test_times_are_scaled_to_the_reference_machine_speed(tmp_path):
    record = tiny_run("paper_pjoin", tmp_path)
    assert record["calibration_s"] > 0
    # The same run on a machine running at half speed: every wall time
    # and the calibration job take twice as long.
    slow = {**record, "calibration_s": 2 * record["calibration_s"]}
    for key in ("wall_s", "setup_s", "block_ms_p50", "block_ms_p99"):
        slow[key] = 2 * record[key]
    fast = bench.aggregate("paper_pjoin", 7, [record["seed"]], [record])
    halved = bench.aggregate("paper_pjoin", 7, [record["seed"]], [slow])
    for metric in ("tuples_per_s", "block_ms_p50", "block_ms_p99", "setup_s"):
        assert halved["metrics"][metric] == pytest.approx(fast["metrics"][metric])
        assert halved["unscaled"][metric] != pytest.approx(fast["unscaled"][metric])


def test_self_times_add_up_to_the_root_span(tmp_path):
    traced = tiny_run("zipf_shards", tmp_path, traced=True)
    total = sum(stats["self_ms"] for stats in traced["summary"].values())
    assert total == pytest.approx(traced["root_ms"], rel=1e-9)
    assert traced["summary"]["experiments.run"]["calls"] == 1
    assert traced["summary"]["core.handle"]["calls"] > 0
    assert 0 < traced["unattributed_share"] <= UNATTRIBUTED_MAX_SHARE


def test_time_no_stage_claims_fails_the_traced_run(tmp_path, monkeypatch):
    # The sum of self times always equals the root; what can go wrong
    # is that the wrapped stages stop covering the run.
    from perfbench import tracing

    loop_only = tuple(e for e in tracing.ENTRY_POINTS if e[3] == "sim.loop")
    monkeypatch.setattr(tracing, "ENTRY_POINTS", loop_only)
    monkeypatch.setattr(tracing.SpanRecorder, "attach_join", lambda *args: None)
    traced = tiny_run("paper_pjoin", tmp_path, traced=True)
    assert traced["unattributed_share"] > UNATTRIBUTED_MAX_SHARE
    assert any("in no stage" in f for f in traced["failures"]), traced["failures"]


def test_samples_that_stop_before_end_of_stream_fail_the_run(tmp_path):
    # XJoin's charged I/O runs far past the input; with the default
    # horizon state_mean_tuples would average an early window only.
    record = tiny_run("xjoin_budget", tmp_path, horizon_factor=4.0)
    assert any("state samples stop" in f for f in record["failures"]), record["failures"]


def test_a_corrupted_result_fails_and_counts_as_failed(tmp_path, monkeypatch):
    from repro.operators.binary import BinaryHashJoin

    emit_joins = BinaryHashJoin.emit_joins

    def lossy(self, new_tuple, entries, new_side):
        return emit_joins(self, new_tuple, entries[1:], new_side)

    monkeypatch.setattr(BinaryHashJoin, "emit_joins", lossy)
    record = tiny_run("paper_pjoin", tmp_path)
    assert any("oracle says" in f for f in record["failures"])
    result = bench.aggregate("paper_pjoin", 7, [record["seed"]], [record])
    line = bench.contract_line(result, traced=False)
    assert not line["correct"]
    assert (line["attempted"], line["failed"]) == (1, 1)
    traced = tiny_run("paper_pjoin", tmp_path, traced=True)
    assert "result multiset differs from the oracle" in traced["failures"]


@pytest.mark.parametrize(
    "name, overrides, gate",
    [
        ("xjoin_budget", {"budget_share": None}, "never spilled"),
        ("zipf_shards", {"skew": None}, "no bucket ever split"),
        ("zipf_shards", {"shards": None}, "no hot key"),
        ("nary_drift", {"planner": None}, "never switched"),
    ],
)
def test_a_layer_turned_off_fails_its_engagement_gate(name, overrides, gate, tmp_path):
    record = tiny_run(name, tmp_path, **overrides)
    assert any(gate in f for f in record["failures"]), record["failures"]


def test_paper_pjoin_gate_catches_a_feature_layer(tmp_path):
    from repro.core.config import PJoinConfig

    config = PJoinConfig(
        purge_threshold=1,
        index_building="eager",
        propagation_mode="push_pairs",
        fault_policy="quarantine",
    )
    record = tiny_run("paper_pjoin", tmp_path, config=config)
    assert "paper_pjoin: the fast path is not installed" in record["failures"]
    traced = tiny_run("paper_pjoin", tmp_path, traced=True, config=config)
    assert any("calls into resilience.admit" in f for f in traced["failures"])


def test_the_same_seed_gives_the_same_input():
    workload = WORKLOADS["zipf_shards"]
    from perfbench.oracle import input_identity

    first = input_identity(workload.generate(3))
    assert first == input_identity(workload.generate(3))
    assert first["digest"] != input_identity(workload.generate(4))["digest"]


def test_nway_oracle_matches_the_binary_reference():
    from perfbench.oracle import nway_join_multiset, result_count, result_multiset

    data = WORKLOADS["paper_pjoin"].generate(5)
    assert nway_join_multiset(data) == result_multiset(data)
    assert result_count(data) == sum(result_multiset(data).values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_pjoin",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
