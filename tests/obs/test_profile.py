"""The hot-path profiler: attribution math, harness integration, identity.

The headline contracts under test:

* exclusive (self-time) attribution telescopes — the per-layer self
  times sum to exactly the total profiled span, for any call tree;
* profiling is applied by shadowing instances and fully reversed by
  ``restore()``, so an unprofiled run carries *no* hooks and shared
  objects (the cost model) do not leak instrumentation across runs;
* a profiled run is deterministically identical to an unprofiled one:
  same manifest, byte-identical figure JSON.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.experiments.export import save_figure_json
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.harness import (
    active_options,
    nary_pjoin_factory,
    pjoin_factory,
    run_join_experiment,
    run_options,
    shj_factory,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec
from repro.obs.profile import LAYERS, PROFILE_VERSION, Profiler
from repro.obs.trace import Tracer
from repro.operators import fastpath
from repro.planner import get_preset
from repro.workloads import generate_nary_workload
from repro.workloads.generator import generate_workload


class FakeClock:
    """Deterministic ns clock: each reading advances by a fixed step."""

    def __init__(self, step: int = 10):
        self.t = 0
        self.step = step

    def __call__(self) -> int:
        self.t += self.step
        return self.t


def small_workload(n=300, spacing=10.0, seed=7):
    return generate_workload(
        n_tuples_per_stream=n,
        punct_spacing_a=spacing,
        punct_spacing_b=spacing,
        seed=seed,
    )


def nary_workload():
    spec = get_preset("nary_drift").with_overrides(n_tuples_per_stream=200, seed=3)
    return generate_nary_workload(spec)


class TestAttribution:
    def test_single_frame(self):
        prof = Profiler(clock=FakeClock(step=10))
        fn = prof.wrap(lambda: None, "site", "core")
        fn()
        # Two clock readings 10ns apart: 10ns of exclusive time.
        assert prof.self_ns[("site", "core")] == 10
        assert prof.calls[("site", "core")] == 1
        assert prof.total_ns == 10

    def test_nested_frames_are_exclusive(self):
        prof = Profiler(clock=FakeClock(step=10))
        inner = prof.wrap(lambda: None, "inner", "core")
        outer = prof.wrap(inner, "outer", "shard")
        outer()
        # The outer frame is charged only its own time; inner time is
        # subtracted, and outer + inner == total exactly.
        inner_ns = prof.self_ns[("inner", "core")]
        outer_ns = prof.self_ns[("outer", "shard")]
        assert inner_ns > 0 and outer_ns > 0
        assert inner_ns + outer_ns == prof.total_ns

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            Profiler().wrap(lambda: None, "site", "nope")

    def test_wrapped_exception_still_attributed(self):
        prof = Profiler(clock=FakeClock())

        def boom():
            raise RuntimeError("x")

        fn = prof.wrap(boom, "site", "core")
        with pytest.raises(RuntimeError):
            fn()
        assert prof.calls[("site", "core")] == 1
        assert prof.total_ns > 0

    @given(st.recursive(st.just([]),
                        lambda children: st.lists(children, max_size=3),
                        max_leaves=12))
    def test_self_times_sum_to_total_for_any_call_tree(self, tree):
        """Property: attribution telescopes exactly, whatever the shape."""
        prof = Profiler(clock=FakeClock(step=3))

        def execute(node, depth):
            layer = LAYERS[depth % len(LAYERS)]
            fn = prof.wrap(
                lambda: [execute(child, depth + 1) for child in node],
                f"site{depth}", layer,
            )
            fn()

        for top in [tree] if not isinstance(tree, list) else (tree or [[]]):
            execute(top, 0)
        assert sum(prof.self_ns.values()) == prof.total_ns

    def test_snapshot_schema(self):
        # A millisecond-scale step, so the rounded snapshot is non-zero.
        prof = Profiler(clock=FakeClock(step=10_000_000))
        prof.wrap(lambda: None, "site", "core")()
        snap = prof.snapshot()
        assert snap["profile_version"] == PROFILE_VERSION
        assert set(snap["layers"]) == set(LAYERS)
        assert snap["sites"][0]["source"] == "site"
        assert snap["total_ms"] > 0


class TestInstrumentAndRestore:
    def run_once(self, factory, workload, obs=False, **features):
        profiler = Profiler()
        tracer = Tracer() if obs else None
        with run_options(profiler=profiler, tracer=tracer, **features):
            run = run_join_experiment(factory, workload, label="profiled")
        return run, profiler

    def test_layers_attributed_on_pjoin(self):
        factory = pjoin_factory(PJoinConfig(purge_threshold=1))
        run, profiler = self.run_once(factory, small_workload(), obs=True)
        layers = profiler.snapshot()["layers"]
        assert layers["core"]["self_ms"] > 0
        assert layers["core"]["calls"] > 0
        assert layers["obs"]["calls"] > 0
        # Histograms recorded in virtual time.
        assert profiler.histograms["result_latency_ms"].count > 0
        assert profiler.histograms["probe_cost_ms"].count > 0

    def test_purge_lag_recorded_for_pjoin(self):
        factory = pjoin_factory(PJoinConfig(purge_threshold=1))
        _, profiler = self.run_once(factory, small_workload())
        assert profiler.histograms["purge_lag_ms"].count > 0

    def test_latency_and_purge_lag_recorded_for_nary(self):
        # The n-ary join has no emit_joins and no purge component table:
        # its emitter and _purge_all carry the shadows.
        factory = nary_pjoin_factory(PJoinConfig(purge_threshold=8))
        run, profiler = self.run_once(factory, nary_workload())
        assert run.results > 0 and run.join.purge_runs > 0
        assert profiler.histograms["result_latency_ms"].count == run.results
        assert profiler.histograms["purge_lag_ms"].count > 0
        for attr in ("_emit_combinations", "_purge_all", "_handle_punctuation"):
            assert attr not in vars(run.join), f"leaked shadow: {attr}"

    def test_shard_layer_attributed_under_sharding(self):
        factory = pjoin_factory(PJoinConfig(purge_threshold=1))
        _, profiler = self.run_once(factory, small_workload(), shards=2)
        snapshot = profiler.snapshot()
        layers = snapshot["layers"]
        assert layers["shard"]["calls"] > 0
        assert layers["core"]["calls"] > 0
        # The merger takes shard outboxes through accept_batch; its time
        # must stay in the shard layer.  on_finish is one call, so more
        # than one means the outboxes were attributed too.
        merge_calls = sum(
            site["calls"]
            for site in snapshot["sites"]
            if site["source"] == "pjoin.merge" and site["layer"] == "shard"
        )
        assert merge_calls > 1

    @pytest.mark.parametrize("factory", [xjoin_factory(), shj_factory()],
                             ids=["xjoin", "shj"])
    def test_other_join_algorithms_profile_too(self, factory):
        run, profiler = self.run_once(factory, small_workload())
        assert profiler.snapshot()["layers"]["core"]["calls"] > 0
        assert profiler.histograms["result_latency_ms"].count > 0

    @pytest.mark.parametrize("obs", [True, False], ids=["traced", "untraced"])
    def test_restore_leaves_only_the_built_handler(self, obs):
        factory = pjoin_factory(PJoinConfig(purge_threshold=1))
        run, _ = self.run_once(factory, small_workload(), obs=obs)
        join = run.join
        # Profiling shadowed the join's item handler for the run;
        # restore() must hand it back, not delete it, and leave no other
        # instance shadow behind.
        handle = vars(join)["handle"]
        assert fastpath.is_fastpath(handle)
        assert not getattr(handle, "__repro_profiled__", False)
        for attr in ("on_finish", "emit_joins", "_handle_punctuation"):
            assert attr not in vars(join), f"leaked shadow: {attr}"

    @pytest.mark.parametrize(
        "factory,workload",
        [
            (pjoin_factory(), small_workload),
            (xjoin_factory(), small_workload),
            (shj_factory(), small_workload),
            (nary_pjoin_factory(), nary_workload),
        ],
        ids=["pjoin", "xjoin", "shj", "nary"],
    )
    def test_governor_hooks_attributed(self, factory, workload):
        """Every governed tuple reaches the governor through its shadow.

        A handler holding ``governor.fault_in`` as a method bound at
        build would bypass the profiler's instance shadow, and the
        governor layer would miss the per-tuple hooks.
        """
        run, profiler = self.run_once(
            factory, workload(), governor=GovernorSpec(50)
        )
        join = run.join
        if isinstance(join, NaryPJoin):
            probes = sum(join.side_probe_count)
            inserts = sum(join.side_tuples_in) - join.tuples_dropped_on_fly
        else:
            probes, inserts = join.probes, join.insertions
        # fault_in before every probe, after_insert after every insert.
        governor_calls = profiler.snapshot()["layers"]["governor"]["calls"]
        assert governor_calls >= probes + inserts > 0

    def test_no_profiler_active_outside_context(self):
        assert active_options().profiler is None
        prof = Profiler()
        with run_options(profiler=prof):
            assert active_options().profiler is prof
        assert active_options().profiler is None


class TestProfiledEqualsUnprofiled:
    def test_manifest_identical(self):
        workload = small_workload()
        factory = pjoin_factory(PJoinConfig(purge_threshold=1))
        plain = run_join_experiment(factory, workload, label="run")
        with run_options(profiler=Profiler()):
            profiled = run_join_experiment(factory, workload, label="run")
        assert plain.profile is None
        assert profiled.profile is not None
        # The profile rides on the run object, never inside the manifest.
        assert profiled.manifest == plain.manifest

    def test_figure_json_byte_identical(self, tmp_path):
        """The acceptance bar: profiled figure JSON is byte-identical."""
        plain_path = tmp_path / "plain.json"
        profiled_path = tmp_path / "profiled.json"
        save_figure_json(ALL_FIGURES["figure5"](scale=0.06), plain_path)
        with run_options(profiler=Profiler()):
            save_figure_json(ALL_FIGURES["figure5"](scale=0.06), profiled_path)
        assert profiled_path.read_bytes() == plain_path.read_bytes()

    def test_cost_model_shared_across_runs_stays_clean(self):
        # The second (unprofiled) run must not see the first run's
        # probe-cost interceptor: same virtual outcome either way.
        workload = small_workload(n=150)
        factory = pjoin_factory(PJoinConfig(purge_threshold=1))
        with run_options(profiler=Profiler()):
            run_join_experiment(factory, workload, label="first")
        after = run_join_experiment(factory, workload, label="second")
        before = run_join_experiment(factory, workload, label="second")
        assert after.manifest == before.manifest
