"""The benchmark-regression harness: report schema, gate, CLI."""

import json

import pytest

from repro.perf.bench import (
    BENCH_CASES,
    BENCH_FORMAT,
    _peak_rss_kb,
    baseline_payload,
    compare_reports,
    main as bench_main,
    render_report,
    run_bench,
    run_case,
)

REPORT_KEYS = {
    "bench_format", "rev", "created_unix", "quick", "scale", "repeat",
    "machine", "workloads",
}
CASE_KEYS = {"events", "results", "virtual_ms", "wall_s", "events_per_s",
             "peak_rss_kb"}


@pytest.fixture(scope="module")
def tiny_report():
    # chaos_disorder ignores scale and finishes in a few hundredths of a
    # second — ideal for schema tests.
    return run_bench(scale=1.0, cases=["chaos_disorder"])


class TestReportSchema:
    def test_top_level_schema(self, tiny_report):
        assert set(tiny_report) == REPORT_KEYS
        assert tiny_report["bench_format"] == BENCH_FORMAT
        machine = tiny_report["machine"]
        assert {"platform", "python", "implementation", "machine",
                "cpu_count"} <= set(machine)

    def test_case_schema(self, tiny_report):
        case = tiny_report["workloads"]["chaos_disorder"]
        assert set(case) == CASE_KEYS
        assert case["events"] > 0
        assert case["results"] > 0
        assert case["wall_s"] > 0
        assert case["events_per_s"] == pytest.approx(
            case["events"] / case["wall_s"]
        )

    def test_report_is_json_serialisable(self, tiny_report):
        assert json.loads(json.dumps(tiny_report)) == tiny_report

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            run_bench(cases=["nope"])

    def test_repeat_keeps_one_measurement(self):
        case = run_case(BENCH_CASES["chaos_disorder"], scale=1.0, repeat=2)
        assert set(case) == CASE_KEYS


def _case(wall_s, events=100, results=10):
    return {
        "wall_s": wall_s,
        "events": events,
        "results": results,
        "events_per_s": events / wall_s,
        "virtual_ms": 1.0,
        "peak_rss_kb": 1000,
    }


def _report(wall_s, scale=1.0, **case_kwargs):
    return {
        "rev": "test",
        "scale": scale,
        "workloads": {"fig5_pjoin": _case(wall_s, **case_kwargs)},
    }


class TestComparisonGate:
    def test_same_speed_passes(self):
        cmp = compare_reports(_report(1.0), _report(1.0))
        assert cmp["ok"]
        entry = cmp["workloads"]["fig5_pjoin"]
        assert entry["ok"]
        assert entry["wall_s_delta_pct"] == 0.0
        assert entry["events_match"] and entry["results_match"]

    def test_slowdown_beyond_gate_fails(self):
        cmp = compare_reports(_report(2.5), _report(1.0), max_slowdown=2.0)
        assert not cmp["ok"]
        assert not cmp["workloads"]["fig5_pjoin"]["ok"]

    def test_slowdown_within_gate_passes(self):
        cmp = compare_reports(_report(1.8), _report(1.0), max_slowdown=2.0)
        assert cmp["ok"]

    def test_scale_mismatch_is_an_error(self):
        cmp = compare_reports(_report(1.0, scale=0.5), _report(1.0))
        assert not cmp["ok"]
        assert "scale mismatch" in cmp["error"]

    def test_outcome_drift_is_flagged(self):
        cmp = compare_reports(_report(1.0, events=99), _report(1.0))
        entry = cmp["workloads"]["fig5_pjoin"]
        assert not entry["events_match"]
        assert "note" in entry

    def test_missing_baseline_case_is_tolerated(self):
        baseline = {"rev": "old", "scale": 1.0, "workloads": {}}
        cmp = compare_reports(_report(1.0), baseline)
        assert cmp["ok"]
        assert cmp["workloads"]["fig5_pjoin"]["note"] == "no baseline case"


class TestBenchCli:
    def test_unknown_case_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--cases", "nope"])
        assert excinfo.value.code == 2
        assert "argument --cases: invalid choice" in capsys.readouterr().err

    def test_writes_report_and_compares(self, tmp_path):
        out = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        # Best of 3 on both sides, as CI's quick gates time: one run
        # each would gate a single wall-clock reading at 2x another.
        rc = bench_main([
            "--cases", "chaos_disorder", "--repeat", "3", "--out", str(out),
            "--baseline", str(baseline), "--update-baseline",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) - {"comparison"} == REPORT_KEYS
        assert baseline.exists()
        # Committed baselines carry no host-specific metadata.
        baseline_report = json.loads(baseline.read_text())
        assert "machine" not in baseline_report
        assert "comparison" not in baseline_report
        # Second run now compares against the captured baseline.
        rc = bench_main([
            "--cases", "chaos_disorder", "--repeat", "3", "--out", str(out),
            "--baseline", str(baseline),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["comparison"]["ok"]
        # Determinism cross-check: the rerun produced identical events.
        assert report["comparison"]["workloads"]["chaos_disorder"][
            "events_match"
        ]

    def test_committed_baseline_is_schema_valid(self):
        from pathlib import Path

        baseline_path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "bench_baseline.json"
        )
        baseline = json.loads(baseline_path.read_text())
        assert baseline["bench_format"] == BENCH_FORMAT
        assert set(BENCH_CASES) == set(baseline["workloads"])
        assert "machine" not in baseline
        for case in baseline["workloads"].values():
            assert CASE_KEYS <= set(case)


class TestBaselinePayload:
    def test_strips_machine_and_comparison(self, tiny_report):
        report = dict(tiny_report)
        report["comparison"] = {"ok": True}
        payload = baseline_payload(report)
        assert "machine" not in payload
        assert "comparison" not in payload
        assert payload["workloads"] == report["workloads"]
        assert payload["scale"] == report["scale"]

    def test_compare_ignores_machine(self, tiny_report):
        # A machine-less baseline (as committed) compares cleanly
        # against a full report from any host.
        comparison = compare_reports(tiny_report, baseline_payload(tiny_report))
        assert comparison["ok"]

    def test_render_handles_machineless_reports(self, tiny_report):
        rendered = render_report(baseline_payload(tiny_report))
        assert "bench @" in rendered

    def test_strips_layer_matrix(self, tiny_report):
        # Matrix numbers are host wall times — they would churn every
        # committed baseline for no gating value.
        report = dict(tiny_report)
        report["layer_matrix"] = {"preset": "fig5_pjoin", "variants": {}}
        assert "layer_matrix" not in baseline_payload(report)


class TestPeakRss:
    def test_current_platform_value(self):
        peak = _peak_rss_kb()
        # POSIX CI and dev machines report a positive KiB count; the
        # contract elsewhere is "int or None", never garbage.
        assert peak is None or (isinstance(peak, int) and peak > 0)

    def test_missing_resource_module_degrades_to_none(self, monkeypatch):
        import repro.perf.bench as bench

        monkeypatch.setattr(bench, "resource", None)
        assert _peak_rss_kb() is None

    def test_getrusage_failure_degrades_to_none(self, monkeypatch):
        import repro.perf.bench as bench

        class Broken:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(_who):
                raise OSError("unsupported")

        monkeypatch.setattr(bench, "resource", Broken)
        assert _peak_rss_kb() is None

    def test_zero_ru_maxrss_degrades_to_none(self, monkeypatch):
        import repro.perf.bench as bench

        class Zero:
            RUSAGE_SELF = 0

            class _Usage:
                ru_maxrss = 0

            @staticmethod
            def getrusage(_who):
                return Zero._Usage()

        monkeypatch.setattr(bench, "resource", Zero)
        assert _peak_rss_kb() is None

    def test_report_serialises_none_rss(self, tiny_report, monkeypatch):
        import repro.perf.bench as bench

        monkeypatch.setattr(bench, "resource", None)
        case = run_case(BENCH_CASES["chaos_disorder"], scale=1.0)
        assert case["peak_rss_kb"] is None
        assert json.loads(json.dumps(case))["peak_rss_kb"] is None
        # render_report shows "-" instead of crashing on None.
        report = dict(tiny_report)
        report["workloads"] = {"chaos_disorder": case}
        assert "-" in render_report(report)


def _matrix(overheads, preset="fig5_pjoin"):
    return {
        "preset": preset,
        "scale": 1.0,
        "repeat": 1,
        "variants": {
            name: {
                "features": [] if name == "none" else [name],
                "wall_s": 1.0,
                "events_per_s": 100.0,
                "events": 100,
                "results": 10,
                "virtual_ms": 1.0,
                "overhead_pct": pct,
            }
            for name, pct in overheads.items()
        },
    }


class TestLayerMatrixDiff:
    def test_diff_present_when_both_reports_carry_matrix(self):
        current = _report(1.0)
        current["layer_matrix"] = _matrix({"none": 0.0, "obs": 5.0})
        baseline = _report(1.0)
        baseline["layer_matrix"] = _matrix({"none": 0.0, "obs": 2.0})
        cmp = compare_reports(current, baseline)
        assert cmp["ok"]  # informational, never gates
        assert cmp["layer_matrix"]["obs"]["delta_pct"] == 3.0
        assert cmp["layer_matrix"]["obs"]["baseline_overhead_pct"] == 2.0

    def test_old_format_baseline_without_matrix_is_graceful(self):
        current = _report(1.0)
        current["layer_matrix"] = _matrix({"none": 0.0, "obs": 5.0})
        cmp = compare_reports(current, _report(1.0))
        assert cmp["ok"]
        assert "layer_matrix" not in cmp

    def test_preset_mismatch_skips_diff(self):
        current = _report(1.0)
        current["layer_matrix"] = _matrix({"obs": 5.0})
        baseline = _report(1.0)
        baseline["layer_matrix"] = _matrix({"obs": 2.0}, preset="fig8_pjoin_lazy")
        assert "layer_matrix" not in compare_reports(current, baseline)

    def test_render_report_includes_matrix_and_diff_column(self):
        report = _report(1.0)
        report["layer_matrix"] = _matrix({"none": 0.0, "obs": 5.0})
        report["comparison"] = {
            "baseline_rev": "old", "max_slowdown": 2.0, "ok": True,
            "workloads": {},
            "layer_matrix": {
                "obs": {"overhead_pct": 5.0, "baseline_overhead_pct": 2.0,
                        "delta_pct": 3.0},
            },
        }
        rendered = render_report(report)
        assert "layer-cost matrix" in rendered
        assert "vs baseline" in rendered
        assert "+3.0pp" in rendered

    def test_render_report_matrix_without_comparison(self):
        report = _report(1.0)
        report["layer_matrix"] = _matrix({"none": 0.0})
        rendered = render_report(report)
        assert "layer-cost matrix" in rendered
