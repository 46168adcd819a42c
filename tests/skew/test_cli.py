"""CLI surface of the skew layer: `repro skew` and `--planner` with `--jobs`."""

import json

from repro.cli import main


class TestSkewCommand:
    def test_smoke_passes_and_prints_tables(self, capsys):
        code = main(["skew", "--tuples", "800", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive" in out and "sharded hot-key" in out
        assert "adaptive.splits" in out
        assert "hotkey.hot_activations" in out

    def test_variants_stay_equivalent(self, capsys):
        assert main(["skew", "--tuples", "800"]) == 0
        assert "MISMATCH" not in capsys.readouterr().out

    def test_single_shard_is_rejected(self, capsys):
        assert main(["skew", "--tuples", "200", "--shards", "1"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_check_fails_on_missing_golden(self, tmp_path, capsys):
        code = main(
            ["skew", "--tuples", "800", "--check", str(tmp_path)]
        )
        assert code == 1
        assert "missing golden" in capsys.readouterr().err

    def test_check_reports_drift_per_key(self, tmp_path, capsys):
        (tmp_path / "skew_smoke.json").write_text(
            json.dumps({"results": -1})
        )
        code = main(["skew", "--tuples", "800", "--check", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "drift in skew_smoke.results" in err
        assert "skew smoke FAILED" in err


class TestPlannerWithJobs:
    def test_adaptive_planner_crosses_jobs(self, assert_jobs_match_serial):
        assert assert_jobs_match_serial(
            "figure6", "fig_nary_adaptive", "--scale", "0.06",
            "--planner", "adaptive",
        ) == 0


class TestGoldenGate:
    def test_default_parameters_match_committed_golden(self):
        """The committed golden matches a default-parameter run.

        This is the same gate CI's skew-smoke job runs; keeping it in
        the suite means drift is caught before a push, not after.
        """
        assert main(["skew", "--check", "tests/goldens"]) == 0
