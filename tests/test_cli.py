"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert "figure14" in out
        assert "ablation_purge_sweep" in out


class TestFigures:
    def test_runs_named_figure(self, capsys):
        assert main(["figures", "figure6", "--scale", "0.06"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "Shape checks" in out

    def test_unknown_name_fails(self, capsys):
        assert main(["figures", "figure99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_no_names_without_all_fails(self, capsys):
        assert main(["figures"]) == 2
        assert "nothing to run" in capsys.readouterr().err


class TestDemo:
    def test_demo_prints_comparison(self, capsys):
        code = main(
            ["demo", "--tuples", "400", "--spacing-a", "10",
             "--spacing-b", "10", "--purge-threshold", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PJoin-5" in out
        assert "XJoin" in out


class TestTrace:
    def test_trace_prints_timeline_and_stats(self, capsys):
        code = main(
            ["trace", "--tuples", "200", "--purge-threshold", "3",
             "--max-events", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "purge(" in out
        assert "join statistic" in out
        assert "results_produced" in out

    def test_trace_with_memory_threshold(self, capsys):
        code = main(
            ["trace", "--tuples", "300", "--memory-threshold", "40",
             "--max-events", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relocate(" in out or "disk_join(" in out


class TestTraceExports:
    def test_trace_writes_chrome_jsonl_and_manifest(self, capsys, tmp_path):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        manifest = tmp_path / "manifest.json"
        code = main(
            ["trace", "--tuples", "200", "--purge-threshold", "3",
             "--max-events", "3",
             "--chrome", str(chrome), "--jsonl", str(jsonl),
             "--manifest", str(manifest)]
        )
        assert code == 0
        import json

        from repro.obs.export import validate_chrome_trace

        validate_chrome_trace(json.loads(chrome.read_text()))
        assert jsonl.read_text().strip()
        data = json.loads(manifest.read_text())
        assert data["counters"]["pjoin"]["probes"] > 0

    def test_trace_unknown_target_fails(self, capsys):
        assert main(["trace", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestMetrics:
    def test_metrics_prints_counter_registry(self, capsys):
        code = main(["metrics", "--tuples", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "probes" in out
        assert "tuples_purged" in out
        assert "disk.write_ops" in out

    def test_obs_aliases_work(self, capsys):
        assert main(["obs", "metrics", "--tuples", "100"]) == 0
        assert "probes" in capsys.readouterr().out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_obs_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "trace" in out and "metrics" in out


class TestPlan:
    def test_list_presets(self, capsys):
        assert main(["plan", "--list"]) == 0
        out = capsys.readouterr().out
        assert "nary_drift" in out
        assert "nary_uniform" in out

    def test_runs_and_prints_planner_report(self, capsys):
        code = main(["plan", "nary_uniform", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "planner counters" in out
        assert "planner.reopt.count" in out
        assert "boundaries" in out
        assert "probe order" in out

    def test_check_verifies_equivalence(self, capsys):
        code = main(["plan", "nary_uniform", "--scale", "0.01", "--check"])
        assert code == 0
        assert "reproduced" in capsys.readouterr().out

    def test_explain_prints_candidate_tables(self, capsys):
        code = main(["plan", "nary_uniform", "--scale", "0.01", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "candidates scored" in out

    def test_unknown_preset_fails(self, capsys):
        assert main(["plan", "nosuch"]) == 2
        assert "unknown planner preset" in capsys.readouterr().err


class TestRunFlagsWithJobs:
    def test_all_run_flags_cross_jobs(self, assert_jobs_match_serial):
        assert assert_jobs_match_serial(
            "figure8", "fig_nary_adaptive", "ablation_index_building",
            "--scale", "0.05", "--shards", "2", "--memory-budget", "100",
            "--batch-size", "8", "--planner", "adaptive",
        ) == 0


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "figure8", "--jobs", "0"],
            ["chaos", "gentle", "--jobs", "0"],
            ["figures", "figure8", "--shards", "0"],
            ["demo", "--shards", "0"],
            ["figures", "figure8", "--batch-size", "0"],
            ["demo", "--batch-size", "-1"],
            ["bench", "--batch-size", "0"],
            ["profile", "fig5", "--batch-size", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_count_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err
