"""The ``repro shard`` command and the ``--shards`` experiment flag."""

from repro.cli import main


class TestShardCommand:
    def test_equivalence_check_passes(self, capsys):
        code = main([
            "shard", "--tuples", "500", "--purge-threshold", "1",
            "--shards", "1,2", "--backend", "both", "--propagate", "--check",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "unsharded" in out
        assert "K=1" in out and "K=2" in out
        assert "MISMATCH" not in out
        assert "check passed" in out

    def test_sim_backend_only(self, capsys):
        code = main(["shard", "--tuples", "300", "--shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sim" in out
        assert " mp " not in out

    def test_bad_shard_list_rejected(self, capsys):
        code = 0
        try:
            code = main(["shard", "--shards", "0"])
        except SystemExit as exc:  # argparse exits on bad type
            code = exc.code
        assert code == 2


class TestFiguresShardFlag:
    def test_figures_run_sharded(self, capsys):
        # figure8's shape check (lazy purge stays bounded) is robust to
        # the earlier virtual completion sharding brings; tighter
        # figure-5-style ratio checks can shift marginally under K>1.
        assert main(
            ["figures", "figure8", "--scale", "0.05", "--shards", "2"]
        ) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_shards_combine_with_jobs(self, assert_jobs_match_serial):
        assert assert_jobs_match_serial(
            "figure8", "ablation_memory_threshold", "--scale", "0.05",
            "--shards", "2",
        ) == 0


class TestDemoShardFlag:
    def test_demo_runs_sharded(self, capsys):
        code = main(
            ["demo", "--tuples", "300", "--spacing-a", "10",
             "--spacing-b", "10", "--shards", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PJoin" in out and "XJoin" in out
