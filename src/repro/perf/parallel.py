"""Parallel sweep execution: one worker process per experiment point.

Every figure/ablation in the study is a *sweep*: a handful of
independent, fully-seeded ``run_join_experiment`` calls followed by
checks over the collected results.  The runner exploits that structure
without modifying any experiment function, in three passes:

1. **plan** — re-drive the experiment function with a placeholder
   interceptor (:func:`repro.experiments.harness.intercepting_runs`)
   to count its runs and record their labels;
2. **execute** — fan the points out across a
   :class:`~concurrent.futures.ProcessPoolExecutor`; each worker
   re-drives the same function, skips every point but its own, and
   ships the finished :class:`ExperimentRun` back (pickled);
3. **merge** — re-drive the function once more, substituting the
   worker results call-by-call, so checks and figure assembly run on
   exactly the objects a serial run would have produced.

Every worker runs under the parent's :class:`RunOptions`, passed as an
argument, so its build fields (shards, governor and skew) reach each
point.  The tracer and profiler do not: they collect events in the
process that holds them, so the runner refuses them with ``jobs > 1``.

Because each point is a deterministic simulation and pickling preserves
its measurements exactly, serial and parallel sweeps yield
byte-identical figure JSON.  The only trace of parallelism is a
``jobs`` key stamped into each run manifest — excluded from
equivalence comparisons by convention.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional

from repro.errors import PerfError
from repro.experiments.harness import (
    RunOptions,
    active_options,
    execute_join_experiment,
    intercepting_runs,
    run_options,
)


def _experiment_registry() -> Dict[str, Callable[..., Any]]:
    # Imported lazily: figures/ablations import the harness this module
    # hooks into, and the CLI imports both.
    from repro.experiments.ablations import ALL_ABLATIONS
    from repro.experiments.figures import ALL_FIGURES

    return {**ALL_FIGURES, **ALL_ABLATIONS}


class _PlanCaptured(Exception):
    """Internal: the experiment function touched a placeholder result."""


class _PointComplete(Exception):
    """Internal: a worker finished its assigned sweep point."""

    def __init__(self, run: Any) -> None:
        super().__init__("sweep point complete")
        self.run = run


class _RunPlaceholder:
    """Stands in for an :class:`ExperimentRun` during the planning pass.

    Experiment functions issue all of their runs before reading any
    result (the sweep structure this runner relies on); the first
    attribute access therefore marks the end of the sweep's run calls
    and aborts the pass via :class:`_PlanCaptured`.
    """

    __slots__ = ("index", "label")

    def __init__(self, index: int, label: str) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "label", label)

    def __getattr__(self, name: str) -> Any:
        raise _PlanCaptured()


def _plan_sweep(fn: Callable[..., Any], scale: float) -> List[str]:
    """Count *fn*'s run calls at *scale*; returns their labels in order."""
    labels: List[str] = []

    def interceptor(factory: Any, workload: Any, **kwargs: Any) -> Any:
        labels.append(kwargs.get("label", ""))
        return _RunPlaceholder(len(labels) - 1, kwargs.get("label", ""))

    try:
        with intercepting_runs(interceptor):
            fn(scale=scale)
    except _PlanCaptured:
        pass
    return labels


def _execute_point(
    name: str, scale: float, index: int, options: RunOptions
) -> Any:
    """Worker entry: run only sweep point *index* of experiment *name*."""
    fn = _experiment_registry()[name]
    state = {"calls": -1}

    def interceptor(factory: Any, workload: Any, **kwargs: Any) -> Any:
        state["calls"] += 1
        if state["calls"] == index:
            raise _PointComplete(
                execute_join_experiment(factory, workload, **kwargs)
            )
        return _RunPlaceholder(state["calls"], kwargs.get("label", ""))

    try:
        with run_options(options), intercepting_runs(interceptor):
            fn(scale=scale)
    except _PointComplete as done:
        return done.run
    except _PlanCaptured:
        pass
    raise PerfError(
        f"experiment {name!r} never executed sweep point {index} "
        f"(only {state['calls'] + 1} runs at scale {scale})"
    )


def run_chaos_point(name: str, policy: str, seed: Optional[int]) -> Any:
    """Worker entry for chaos scenarios (module-level for pickling)."""
    from repro.resilience.chaos import run_chaos

    return run_chaos(name, policy=policy, seed=seed)


class ParallelSweepRunner:
    """Fan a figure/ablation sweep out over *jobs* worker processes.

    ``jobs=1`` executes the experiment function directly (no pool, no
    interception) — the serial path, plus the ``jobs`` manifest stamp.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise PerfError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    # -- figures / ablations -------------------------------------------

    def run_experiment(self, name: str, scale: float = 1.0) -> Any:
        """Run one experiment preset; returns its ``FigureResult``."""
        registry = _experiment_registry()
        if name not in registry:
            raise PerfError(f"unknown experiment {name!r}")
        fn = registry[name]
        if self.jobs == 1:
            return self._stamp(fn(scale=scale))
        options = active_options()
        if options.tracer is not None or options.profiler is not None:
            raise PerfError(
                "a tracer or profiler records in its own process and "
                "cannot follow runs into workers; run with jobs=1"
            )
        labels = _plan_sweep(fn, scale)
        if not labels:
            return self._stamp(fn(scale=scale))
        results = self._execute_points(name, scale, len(labels), options)
        return self._stamp(self._merge(fn, scale, labels, results))

    def _execute_points(
        self, name: str, scale: float, count: int, options: RunOptions
    ) -> Dict[int, Any]:
        results: Dict[int, Any] = {}
        with ProcessPoolExecutor(max_workers=min(self.jobs, count)) as pool:
            futures = {
                pool.submit(_execute_point, name, scale, index, options): index
                for index in range(count)
            }
            wait(futures, return_when=FIRST_EXCEPTION)
            for future, index in futures.items():
                results[index] = future.result()  # re-raises worker errors
        return results

    def _merge(
        self,
        fn: Callable[..., Any],
        scale: float,
        labels: List[str],
        results: Dict[int, Any],
    ) -> Any:
        """Re-drive *fn*, substituting worker results call-by-call."""
        state = {"calls": -1}

        def interceptor(factory: Any, workload: Any, **kwargs: Any) -> Any:
            state["calls"] += 1
            index = state["calls"]
            if index >= len(labels) or kwargs.get("label", "") != labels[index]:
                raise PerfError(
                    f"sweep drifted between planning and merge at call "
                    f"{index} (label {kwargs.get('label', '')!r}); the "
                    "experiment function is not deterministic"
                )
            return results[index]

        with intercepting_runs(interceptor):
            return fn(scale=scale)

    def _stamp(self, figure: Any) -> Any:
        for run in figure.runs:
            run.manifest["jobs"] = self.jobs
        return figure

    # -- chaos scenarios -----------------------------------------------

    def run_chaos_scenarios(
        self,
        names: List[str],
        policy: str,
        seed: Optional[int] = None,
    ) -> List[Any]:
        """Run chaos presets (one worker each); order follows *names*."""
        if self.jobs == 1 or len(names) <= 1:
            runs = [run_chaos_point(name, policy, seed) for name in names]
        else:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(names))
            ) as pool:
                futures = [
                    pool.submit(run_chaos_point, name, policy, seed)
                    for name in names
                ]
                runs = [future.result() for future in futures]
        for run in runs:
            run.manifest["jobs"] = self.jobs
        return runs

    def __repr__(self) -> str:
        return f"ParallelSweepRunner(jobs={self.jobs})"
