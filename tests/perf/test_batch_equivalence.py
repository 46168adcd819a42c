"""Equivalence suite for micro-batched sources.

Batching is a performance change that must be invisible in the
results: an experiment run with any source batch size must produce
**byte-identical** output — full run manifest (engine event count,
every per-operator counter), figure JSON, and the collected result
tuples — compared to item-at-a-time execution.  This suite is that
proof.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.errors import ContractViolationError
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.export import save_figure_json
from repro.experiments.harness import (
    pjoin_factory,
    run_join_experiment,
    run_options,
)
from repro.operators.sink import Sink
from repro.profiling.presets import resolve_preset
from repro.query.plan import QueryPlan
from repro.workloads.faults import (
    delay_punctuations,
    inject_duplicates,
    inject_punctuation_violation,
)
from repro.workloads.generator import GeneratedWorkload

PRESETS = ["fig5_pjoin", "fig5_xjoin", "fig5_shj", "fig8_pjoin_lazy"]
SCALE = 0.12


def run_preset(name, scale=SCALE, keep_items=False, batch_size=1):
    preset = resolve_preset(name)
    with run_options(batch_size=batch_size):
        return run_join_experiment(
            preset.factory(),
            preset.workload(scale),
            label=name,
            keep_items=keep_items,
        )


def chaos_workload(scale=SCALE):
    """A contract-legal but hostile workload: duplicates + laggy puncts."""
    preset = resolve_preset("fig5_pjoin")
    wl = preset.workload(scale)
    chaos_a = inject_duplicates(wl.schedule_a, fraction=0.2, seed=11)
    chaos_b = delay_punctuations(wl.schedule_b, delay_ms=40.0)
    return GeneratedWorkload(wl.spec, chaos_a, chaos_b)


# ---------------------------------------------------------------------------
# Micro-batched sources equal item-at-a-time sources
# ---------------------------------------------------------------------------


class TestBatchedEquivalence:
    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("batch", [2, 16, 64])
    def test_manifest_identical(self, name, batch):
        base = run_preset(name)
        batched = run_preset(name, batch_size=batch)
        assert base.manifest == batched.manifest

    def test_results_identical_with_kept_items(self):
        base = run_preset("fig5_pjoin", keep_items=True)
        batched = run_preset("fig5_pjoin", keep_items=True, batch_size=64)
        assert [t.values for t in base.sink.results] == [
            t.values for t in batched.sink.results
        ]
        assert [t.ts for t in base.sink.results] == [
            t.ts for t in batched.sink.results
        ]

    def test_batching_context_applies(self):
        preset = resolve_preset("fig5_pjoin")
        base = run_preset("fig5_pjoin")
        with run_options(batch_size=32):
            ctx = run_join_experiment(
                preset.factory(), preset.workload(SCALE), label="fig5_pjoin"
            )
        assert base.manifest == ctx.manifest

    def test_figure_json_byte_identical_batched(self, tmp_path):
        base_path = tmp_path / "base.json"
        batched_path = tmp_path / "batched.json"
        save_figure_json(ALL_FIGURES["figure5"](scale=0.06), base_path)
        with run_options(batch_size=64):
            save_figure_json(ALL_FIGURES["figure5"](scale=0.06), batched_path)
        assert base_path.read_bytes() == batched_path.read_bytes()

    def test_chaos_workload_identical_batched(self):
        wl = chaos_workload()
        factory = pjoin_factory(PJoinConfig(purge_threshold=2))
        base = run_join_experiment(factory, wl, label="chaos")
        with run_options(batch_size=16):
            batched = run_join_experiment(factory, wl, label="chaos")
        assert base.manifest == batched.manifest


class TestBatchSizeProperty:
    """Hypothesis: ANY batch size replays the default execution."""

    _baseline = None

    @classmethod
    def baseline(cls):
        if cls._baseline is None:
            cls._baseline = run_preset("fig5_pjoin", scale=0.06).manifest
        return cls._baseline

    @settings(max_examples=12, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=500))
    def test_any_batch_size_is_byte_identical(self, batch):
        run = run_preset("fig5_pjoin", scale=0.06, batch_size=batch)
        assert run.manifest == self.baseline()


# ---------------------------------------------------------------------------
# Schema interning (rides along with the batched hot path)
# ---------------------------------------------------------------------------


class TestSchemaInterning:
    def test_repeated_builds_share_output_schema(self):
        first = run_preset("fig5_pjoin", scale=0.06)
        second = run_preset("fig5_pjoin", scale=0.06)
        assert first.join.out_schema is second.join.out_schema

    def test_manifest_json_stable_under_interning(self):
        run = run_preset("fig5_pjoin", scale=0.06)
        again = run_preset("fig5_pjoin", scale=0.06)
        assert json.dumps(run.manifest, sort_keys=True) == json.dumps(
            again.manifest, sort_keys=True
        )


# ---------------------------------------------------------------------------
# The strict contract check under the item handler
# ---------------------------------------------------------------------------


def test_strict_violation_still_raises():
    preset = resolve_preset("fig5_pjoin")
    wl = preset.workload(SCALE)
    corrupted = inject_punctuation_violation(
        wl.schedule_a, wl.schemas[0], wl.join_fields[0]
    )
    bad = GeneratedWorkload(wl.spec, corrupted.schedule, wl.schedule_b)
    plan = QueryPlan()
    join = PJoin(
        plan.engine,
        plan.cost_model,
        wl.schemas[0],
        wl.schemas[1],
        wl.join_fields[0],
        wl.join_fields[1],
    )
    join.connect(Sink(plan.engine, plan.cost_model))
    plan.add_source(bad.schedule_a, join, port=0, name="A")
    plan.add_source(bad.schedule_b, join, port=1, name="B")
    with pytest.raises(ContractViolationError):
        plan.run()
    assert join.validator.violations == 1
