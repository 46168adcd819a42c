"""Run one join over one workload and collect the paper's metrics.

The harness assembles the plan ``sources → join → sink``, samples state
sizes and cumulative output over virtual time, runs the simulation to
completion and returns an :class:`ExperimentRun` with everything the
figures need: time series, final counters and derived statistics.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    Optional,
)

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.core.pjoin import PJoin
from repro.core.registry import EventListenerRegistry
from repro.errors import ConfigError
from repro.memory.budget import GovernorSpec
from repro.planner.spec import PlannerSpec
from repro.metrics.collector import MetricsCollector
from repro.metrics.series import TimeSeries
from repro.obs.manifest import build_manifest
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.operators.base import Operator
from repro.operators.shj import SymmetricHashJoin
from repro.operators.sink import Sink
from repro.operators.xjoin import XJoin
from repro.query.plan import QueryPlan
from repro.sim.costs import CostModel
from repro.workloads.generator import GeneratedWorkload

if TYPE_CHECKING:
    from repro.skew.manager import SkewSpec

# A factory builds the join under test inside the experiment's plan.
JoinFactory = Callable[[QueryPlan, GeneratedWorkload], Operator]


@dataclass(frozen=True)
class RunOptions:
    """How every experiment run is built and observed.

    The build fields switch feature layers on in the stock factories;
    each default is the plain build.  ``shards`` builds the K-shard
    stack (K=1 replays the unsharded execution exactly), ``governor``
    attaches a memory governor (split across shards), and ``skew``
    attaches the skew layer to PJoin.

    ``tracer`` and ``profiler`` are observers: live objects that
    collect the events and timings of every run they see, so they stay
    in the process that holds them (the parallel sweep runner refuses
    them).  Install a value with :func:`run_options`; the factories and
    :func:`execute_join_experiment` read it once per run.
    """

    shards: Optional[int] = None
    governor: Optional[GovernorSpec] = None
    skew: Optional[SkewSpec] = None
    tracer: Optional[Tracer] = None
    profiler: Optional[Profiler] = None

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ConfigError(f"need at least one shard, got {self.shards}")


_OPTIONS = RunOptions()

# Interceptor installed by intercepting_runs(); when set, every
# run_join_experiment call is routed through it instead of executing.
_RUN_INTERCEPTOR: Optional[Callable[..., Any]] = None


@contextlib.contextmanager
def run_options(
    options: Optional[RunOptions] = None, **changes: Any
) -> Iterator[RunOptions]:
    """Run every experiment in this block under *options*.

    Without *options* the block keeps the active value and replaces
    only the fields named in *changes*, so nested blocks compose:
    ``run_options(governor=spec)`` inside ``run_options(shards=2)``
    builds governed shards.  Yields the installed value; the previous
    one is restored on exit.
    """
    global _OPTIONS
    previous = _OPTIONS
    _OPTIONS = dataclasses.replace(
        options if options is not None else previous, **changes
    )
    try:
        yield _OPTIONS
    finally:
        _OPTIONS = previous


def active_options() -> RunOptions:
    """The run options installed by the innermost :func:`run_options`."""
    return _OPTIONS


# perfbench/workloads.py enters these three; they stay as wrappers
# until perfbench enters run_options itself.
def governed(spec: Optional[GovernorSpec]) -> ContextManager[RunOptions]:
    """``run_options(governor=spec)``."""
    return run_options(governor=spec)


def sharding(n_shards: Optional[int]) -> ContextManager[RunOptions]:
    """``run_options(shards=n_shards)``."""
    return run_options(shards=n_shards)


def skewed(spec: Optional[SkewSpec]) -> ContextManager[RunOptions]:
    """``run_options(skew=spec)``."""
    return run_options(skew=spec)


def positive_int(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1.

    The CLI's counts (``--jobs``, ``--shards``, ``--tuples``,
    ``--purge-threshold``, ``--repeat`` ...) use it, so a bad count
    exits 2 with a usage message (argparse reports the ``ValueError``).
    """
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


@contextlib.contextmanager
def intercepting_runs(interceptor: Callable[..., Any]) -> Iterator[None]:
    """Route every ``run_join_experiment`` call to *interceptor*.

    The parallel sweep runner (:mod:`repro.perf.parallel`) uses this to
    re-drive an unmodified experiment function while substituting each
    of its runs: the interceptor receives exactly the arguments of
    :func:`run_join_experiment` and its return value is returned to the
    experiment function.  Call :func:`execute_join_experiment` from
    inside an interceptor to really execute a run.
    """
    global _RUN_INTERCEPTOR
    previous = _RUN_INTERCEPTOR
    _RUN_INTERCEPTOR = interceptor
    try:
        yield
    finally:
        _RUN_INTERCEPTOR = previous


class ExperimentRun:
    """Everything measured in one experiment run."""

    def __init__(
        self,
        label: str,
        join: Operator,
        sink: Sink,
        series: Dict[str, TimeSeries],
        duration_ms: float,
        manifest: Optional[Dict[str, Any]] = None,
        tracer: Optional[Tracer] = None,
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.label = label
        self.join = join
        self.sink = sink
        self.series = series
        self.duration_ms = duration_ms
        self.manifest = manifest or {}
        self.tracer = tracer
        # Profiler snapshot (repro profile); kept OFF the manifest so
        # profiled runs stay byte-identical to unprofiled ones.
        self.profile = profile

    # -- metric accessors ----------------------------------------------------

    @property
    def state_series(self) -> TimeSeries:
        """Total join-state size over time (Figures 5/6/8/10/13)."""
        return self.series["state_total"]

    @property
    def output_series(self) -> TimeSeries:
        """Cumulative result tuples over time (Figures 7/9/11/12)."""
        return self.series["output"]

    @property
    def punctuation_output_series(self) -> TimeSeries:
        """Cumulative propagated punctuations over time (Figure 14)."""
        return self.series["punct_output"]

    @property
    def results(self) -> int:
        return self.sink.tuple_count

    @property
    def punctuations_out(self) -> int:
        return self.sink.punctuation_count

    def result_multiset(self) -> Dict[tuple, int]:
        return self.sink.result_multiset()

    def punctuation_multiset(self) -> Dict[Any, int]:
        return self.sink.punctuation_multiset()

    def mean_state(self) -> float:
        return self.state_series.time_weighted_mean()

    def max_state(self) -> float:
        return self.state_series.maximum()

    def output_rate_first_half(self) -> float:
        """Mean output rate (tuples/ms) over the first half of the run."""
        return self._window_rate(0.0, 0.5)

    def output_rate_second_half(self) -> float:
        """Mean output rate (tuples/ms) over the second half of the run."""
        return self._window_rate(0.5, 1.0)

    def _window_rate(self, frac_start: float, frac_end: float) -> float:
        series = self.output_series
        if len(series) < 2:
            return 0.0
        t0 = series.times[0]
        span = series.times[-1] - t0
        if span <= 0:
            return 0.0
        start, end = t0 + frac_start * span, t0 + frac_end * span
        produced = series.value_at(end) - series.value_at(start)
        return produced / (end - start)

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for report tables."""
        return {
            "label": self.label,
            "results": self.results,
            "mean_state": self.mean_state(),
            "max_state": self.max_state(),
            "rate_first_half": self.output_rate_first_half(),
            "rate_second_half": self.output_rate_second_half(),
            "punctuations_out": self.punctuations_out,
            "duration_ms": self.duration_ms,
        }

    def __repr__(self) -> str:
        return (
            f"ExperimentRun({self.label!r}, results={self.results}, "
            f"mean_state={self.mean_state():.1f})"
        )


def run_join_experiment(
    factory: JoinFactory,
    workload: GeneratedWorkload,
    label: str = "",
    sample_interval_ms: float = 200.0,
    cost_model: Optional[CostModel] = None,
    keep_items: bool = False,
    horizon_factor: float = 4.0,
) -> ExperimentRun:
    """Execute one join over one workload and return its measurements.

    The active :class:`RunOptions` (see :func:`run_options`) decide how
    the join is built and whether a tracer or profiler watches the run.

    Parameters
    ----------
    factory:
        Builds the join under test (see :func:`pjoin_factory` etc.).
    workload:
        A :class:`~repro.workloads.generator.GeneratedWorkload`.
    sample_interval_ms:
        Virtual-time distance between metric samples.
    keep_items:
        Retain every result tuple in the sink (tests need this; large
        benchmark runs do not).
    horizon_factor:
        Metrics are pre-scheduled until ``end_time * horizon_factor`` so
        a saturated join that lags behind its inputs is still sampled;
        samples after the sink's end-of-stream record nothing.
    """
    if _RUN_INTERCEPTOR is not None:
        return _RUN_INTERCEPTOR(
            factory,
            workload,
            label=label,
            sample_interval_ms=sample_interval_ms,
            cost_model=cost_model,
            keep_items=keep_items,
            horizon_factor=horizon_factor,
        )
    return execute_join_experiment(
        factory,
        workload,
        label=label,
        sample_interval_ms=sample_interval_ms,
        cost_model=cost_model,
        keep_items=keep_items,
        horizon_factor=horizon_factor,
    )


def execute_join_experiment(
    factory: JoinFactory,
    workload: GeneratedWorkload,
    label: str = "",
    sample_interval_ms: float = 200.0,
    cost_model: Optional[CostModel] = None,
    keep_items: bool = False,
    horizon_factor: float = 4.0,
) -> ExperimentRun:
    """The un-interceptable body of :func:`run_join_experiment`."""
    options = _OPTIONS
    tracer = options.tracer
    plan = QueryPlan(cost_model=cost_model)
    if tracer is not None:
        plan.engine.tracer = tracer
    join = factory(plan, workload)
    sink = Sink(plan.engine, plan.cost_model, keep_items=keep_items)
    join.connect(sink)
    # One source per stream: binary workloads expose ("A", "B"), n-ary
    # workloads ("S0", "S1", ...) — the wiring is shape-agnostic.
    schedules = workload.schedules
    names = getattr(workload, "stream_names", None) or tuple(
        chr(ord("A") + i) for i in range(len(schedules))
    )
    for port, (schedule, source_name) in enumerate(zip(schedules, names)):
        plan.add_source(schedule, join, port=port, name=source_name)
    collector = MetricsCollector(plan.engine, interval_ms=sample_interval_ms)
    collector.register_gauge("state_total", join.total_state_size)
    for port, source_name in enumerate(names):
        collector.register_gauge(
            f"state_{source_name.lower()}",
            (lambda p: lambda: join.state_size(p))(port),
        )
    collector.register_gauge("output", lambda: sink.tuple_count)
    collector.register_gauge("punct_output", lambda: sink.punctuation_count)
    collector.end_of_stream = lambda: sink.eos_time
    collector.start(horizon_ms=workload.end_time * horizon_factor + 1000.0)
    profiler = options.profiler
    if profiler is not None:
        profiler.instrument_run(join, sink, plan.engine, plan.cost_model)
    try:
        plan.run()
    finally:
        if profiler is not None:
            # Shared objects (the cost model, a tracer reused across
            # runs) must not carry timing shadows into later runs.
            profiler.restore()
    run_label = label or type(join).__name__
    duration = sink.eos_time if sink.eos_time >= 0 else plan.engine.now
    # Composite joins (the sharded stack) expose their instrumented
    # sub-operators for the manifest's counter registry.
    sub_operators = getattr(join, "manifest_operators", None)
    manifest = build_manifest(
        run_label,
        join,
        sink,
        plan.engine,
        workload=workload,
        series=collector.series,
        duration_ms=duration,
        extra_operators=sub_operators() if sub_operators is not None else None,
    )
    return ExperimentRun(
        run_label,
        join,
        sink,
        collector.series,
        duration_ms=duration,
        manifest=manifest,
        tracer=tracer,
        profile=profiler.snapshot() if profiler is not None else None,
    )


# ---------------------------------------------------------------------------
# Join factories
# ---------------------------------------------------------------------------


def _binary_args(plan: QueryPlan, workload: GeneratedWorkload) -> tuple:
    """Engine, cost model, schemas and join fields of a binary join."""
    return (
        plan.engine,
        plan.cost_model,
        workload.schemas[0],
        workload.schemas[1],
        workload.join_fields[0],
        workload.join_fields[1],
    )


def pjoin_factory(
    config: Optional[PJoinConfig] = None,
    registry: Optional[EventListenerRegistry] = None,
) -> JoinFactory:
    """A factory producing a PJoin with the given configuration.

    The active :class:`RunOptions` attach their governor and skew
    layer; with ``shards`` set the factory builds the K-shard PJoin
    stack instead (each shard gets the same config).
    """

    def build(plan: QueryPlan, workload: GeneratedWorkload) -> Operator:
        options = _OPTIONS
        if options.shards is not None:
            from repro.shard.operator import sharded_pjoin

            return sharded_pjoin(
                *_binary_args(plan, workload),
                options.shards,
                config=config,
                registry=registry,
                governor=options.governor,
                skew=options.skew,
            )
        return PJoin(
            *_binary_args(plan, workload),
            config=config,
            registry=registry,
            governor=options.governor,
            skew=options.skew,
        )

    return build


def xjoin_factory(memory_threshold: Optional[int] = None) -> JoinFactory:
    """A factory producing the XJoin comparator (sharded when active)."""

    def build(plan: QueryPlan, workload: GeneratedWorkload) -> Operator:
        options = _OPTIONS
        if options.shards is not None:
            from repro.shard.operator import sharded_xjoin

            return sharded_xjoin(
                *_binary_args(plan, workload),
                options.shards,
                memory_threshold=memory_threshold,
                governor=options.governor,
            )
        return XJoin(
            *_binary_args(plan, workload),
            memory_threshold=memory_threshold,
            governor=options.governor,
        )

    return build


def shj_factory() -> JoinFactory:
    """A factory producing the symmetric hash join (sharded when active)."""

    def build(plan: QueryPlan, workload: GeneratedWorkload) -> Operator:
        options = _OPTIONS
        if options.shards is not None:
            from repro.shard.operator import sharded_shj

            return sharded_shj(
                *_binary_args(plan, workload),
                options.shards,
                governor=options.governor,
            )
        return SymmetricHashJoin(
            *_binary_args(plan, workload), governor=options.governor
        )

    return build


def nary_pjoin_factory(
    config: Optional[PJoinConfig] = None,
    planner: Optional[PlannerSpec] = None,
) -> JoinFactory:
    """A factory producing an n-ary PJoin over all workload streams.

    ``planner`` plans its probe order; ``None`` builds the unplanned
    operator.
    """

    def build(plan: QueryPlan, workload: GeneratedWorkload) -> Operator:
        return NaryPJoin(
            plan.engine,
            plan.cost_model,
            workload.schemas,
            workload.join_fields,
            config=config,
            governor=_OPTIONS.governor,
            planner=planner,
        )

    return build


def run_nary_experiment(
    workload: Any,
    config: Optional[PJoinConfig] = None,
    planner: Optional[PlannerSpec] = None,
    **kwargs: Any,
) -> ExperimentRun:
    """Run an n-ary PJoin over an n-stream workload.

    A thin veneer over :func:`run_join_experiment` — interception
    (parallel sweeps) and the run options compose exactly as for
    binary experiments.
    """
    return run_join_experiment(
        nary_pjoin_factory(config=config, planner=planner), workload, **kwargs
    )
