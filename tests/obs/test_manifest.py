"""Run manifests: structure, counter diffing and the acceptance run."""

import json

from repro.core.config import PJoinConfig
from repro.experiments.harness import (
    pjoin_factory,
    run_join_experiment,
    run_options,
)
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.manifest import MANIFEST_VERSION, diff_counters
from repro.obs.trace import Tracer
from repro.sim.costs import CostModel
from repro.workloads.generator import generate_workload


def small_workload(seed=3, n=400):
    return generate_workload(
        n_tuples_per_stream=n, punct_spacing_a=10, punct_spacing_b=20,
        seed=seed,
    )


class TestManifestStructure:
    def test_manifest_fields(self):
        run = run_join_experiment(
            pjoin_factory(PJoinConfig(purge_threshold=5)),
            small_workload(),
            label="m",
            cost_model=CostModel().scaled(0.01),
        )
        manifest = run.manifest
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["label"] == "m"
        assert manifest["join_type"] == "PJoin"
        assert manifest["config"]["purge_threshold"] == 5
        assert manifest["workload"]["n_tuples_per_stream"] == 400
        assert manifest["seed"] == 3
        assert manifest["duration_ms"] == run.duration_ms
        assert manifest["engine"]["events_executed"] > 0
        # The last sample lands at or before end-of-stream delivery.
        assert 0 < manifest["series_final"]["output"] <= run.results
        assert set(manifest["counters"]) >= {"pjoin", "sink"}
        assert manifest["counters"]["pjoin"]["probes"] > 0

    def test_manifest_is_json_serialisable(self):
        run = run_join_experiment(
            pjoin_factory(), small_workload(n=100),
            cost_model=CostModel().scaled(0.01),
        )
        round_tripped = json.loads(json.dumps(run.manifest))
        assert round_tripped == run.manifest


class TestDiffCounters:
    OLD = {"counters": {"pjoin": {"probes": 100, "purge_runs": 0,
                                  "label": "x", "same": 5}}}
    NEW = {"counters": {"pjoin": {"probes": 150, "purge_runs": 3,
                                  "label": "y", "same": 5}}}

    def test_reports_relative_change(self):
        rows = diff_counters(self.OLD, self.NEW)
        by_counter = {row[1]: row for row in rows}
        assert by_counter["probes"][2:] == (100.0, 150.0, 0.5)

    def test_zero_to_nonzero_is_infinite(self):
        rows = diff_counters(self.OLD, self.NEW)
        by_counter = {row[1]: row for row in rows}
        assert by_counter["purge_runs"][4] == float("inf")

    def test_skips_unchanged_and_non_numeric(self):
        counters = {row[1] for row in diff_counters(self.OLD, self.NEW)}
        assert "same" not in counters
        assert "label" not in counters

    def test_threshold_filters_small_moves(self):
        rows = diff_counters(self.OLD, self.NEW, threshold=0.6)
        assert {row[1] for row in rows} == {"purge_runs"}

    def test_operators_only_in_one_manifest_are_ignored(self):
        rows = diff_counters(self.OLD, {"counters": {"other": {"probes": 1}}})
        assert rows == []


class TestAcceptanceRun:
    """The ISSUE's acceptance bar: a fig08-like memory-constrained run."""

    def run_traced(self):
        tracer = Tracer()
        with run_options(tracer=tracer):
            run = run_join_experiment(
                pjoin_factory(
                    PJoinConfig(purge_threshold=5, memory_threshold=60)
                ),
                small_workload(n=600),
                label="fig08-like",
                cost_model=CostModel().scaled(0.01),
            )
        return run, tracer

    def test_manifest_has_nonzero_probe_purge_and_disk_counters(self):
        run, _tracer = self.run_traced()
        counters = run.manifest["counters"]["pjoin"]
        assert counters["probes"] > 0
        assert counters["tuples_purged"] > 0
        assert counters["purge_runs"] > 0
        assert counters["disk.tuples_written"] > 0
        assert counters["disk.bytes_written"] > 0

    def test_chrome_trace_is_well_formed(self):
        _run, tracer = self.run_traced()
        events = to_chrome_trace(tracer)
        assert events, "traced run produced no events"
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        validate_chrome_trace(events)  # raises on unmatched B/E pairs


class TestZeroCostWhenOff:
    """Tracing must not change the simulation, and off means off."""

    def run_once(self, tracer=None):
        with run_options(tracer=tracer):
            return run_join_experiment(
                pjoin_factory(
                    PJoinConfig(purge_threshold=5, memory_threshold=60)
                ),
                small_workload(n=300),
                cost_model=CostModel().scaled(0.01),
            )

    def test_traced_and_untraced_runs_are_identical(self):
        untraced = self.run_once()
        traced = self.run_once(Tracer())
        assert untraced.results == traced.results
        assert untraced.duration_ms == traced.duration_ms
        assert (untraced.manifest["engine"]["events_executed"]
                == traced.manifest["engine"]["events_executed"])
        assert untraced.manifest["counters"] == traced.manifest["counters"]
        assert len(traced.tracer.events) > 0

    def test_no_tracer_attribute_when_off(self):
        run = self.run_once()
        assert run.tracer is None
        assert not hasattr(run.join.engine, "tracer")


class TestTracingContext:
    def test_context_applies_to_runs_inside_the_block(self):
        with run_options(tracer=Tracer()) as options:
            run = run_join_experiment(
                pjoin_factory(PJoinConfig(purge_threshold=3)),
                small_workload(n=100),
                cost_model=CostModel().scaled(0.01),
            )
        assert run.tracer is options.tracer
        assert len(options.tracer.events) > 0

    def test_context_restores_previous_state(self):
        with run_options(tracer=Tracer()):
            pass
        run = run_join_experiment(
            pjoin_factory(), small_workload(n=50),
            cost_model=CostModel().scaled(0.01),
        )
        assert run.tracer is None
