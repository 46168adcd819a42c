"""Hot-path wall-clock profiling with per-layer attribution.

The simulator's hot path stacks several feature layers on every tuple:
the core probe/insert/purge work, the observability spans, the
resilience contract validation, the memory governor's charge/fault-back
hooks and the shard routing.  ROADMAP item 1 ("make disabled features
free") needs to know which layer costs what — this module measures it.

Design: **zero hooks in the operators**.  Profiling is applied *from
outside*, after the plan is built, by shadowing the hot-path callables
with timing closures on the *instances* (``join.handle``,
``validator.admit``, ``governor.fault_in``, ``router.push``, …).  When
profiling is off nothing is shadowed, so the disabled path is literally
today's code — not a cheap branch, *no* branch — which is what lets
profiled-off builds stay within measurement noise of a build without
the profiler module at all.

Attribution is exclusive (self-time): a stack of open frames tracks
each frame's child time, so when a shard-layer frame (the router's
synchronous ``push``) contains core-layer frames (the shard operator's
``handle``), each layer is charged only its own nanoseconds.  By
construction the per-layer self times sum to exactly the total
profiled span.

Alongside the timers, three :class:`~repro.obs.histogram.
FixedBucketHistogram` latency distributions are recorded in *virtual*
time (hence fully deterministic): per-result latency (arrival of the
probing tuple to result emission), punctuation purge lag (punctuation
arrival to the purge run that exploits it) and per-probe cost.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.histogram import FixedBucketHistogram

PROFILE_VERSION = 1

#: The attribution layers, in reporting order.
LAYERS: Tuple[str, ...] = ("core", "obs", "resilience", "governor", "shard")

#: Histogram names -> resolution (ms per bucket unit).
_HISTOGRAMS: Dict[str, float] = {
    "result_latency_ms": 0.01,
    "purge_lag_ms": 0.01,
    "probe_cost_ms": 0.0001,
}

#: Governor hooks on the operators' hot and purge paths.
_GOVERNOR_HOOKS = ("fault_in", "after_insert", "fault_in_partition", "fault_in_all")


class Profiler:
    """Scoped wall-clock timers with exclusive per-layer attribution.

    One profiler instruments one run: :meth:`instrument_run` shadows
    the hot-path callables, the simulation executes, :meth:`restore`
    removes every shadow (shared objects like a cost model must not
    leak instrumentation into later runs) and :meth:`snapshot` returns
    the JSON-ready measurement.

    ``clock`` is injectable for tests (defaults to
    :func:`time.perf_counter_ns`).
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock: Callable[[], int] = clock or time.perf_counter_ns
        # (source, layer) -> exclusive nanoseconds / call count.
        self.self_ns: Dict[Tuple[str, str], int] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        # Total nanoseconds spent inside top-level profiled frames.
        self.total_ns = 0
        # Open frames; each entry is a one-element list [child_ns].
        self._stack: List[List[int]] = []
        self._undo: List[Callable[[], None]] = []
        self.histograms: Dict[str, FixedBucketHistogram] = {
            name: FixedBucketHistogram(resolution_ms=resolution)
            for name, resolution in _HISTOGRAMS.items()
        }

    # ------------------------------------------------------------------
    # Scoped timing
    # ------------------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], source: str, layer: str) -> Callable[..., Any]:
        """A timing closure around *fn*, attributed to (source, layer)."""
        if layer not in LAYERS:
            raise ValueError(f"unknown profiling layer {layer!r}; use one of {LAYERS}")
        key = (source, layer)
        self_ns = self.self_ns
        calls = self.calls
        self_ns.setdefault(key, 0)
        calls.setdefault(key, 0)
        stack = self._stack
        clock = self._clock

        def profiled(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - begin
                stack.pop()
                self_ns[key] += elapsed - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.total_ns += elapsed

        # Tag the shadow so leak checks can tell a forgotten profiler
        # closure from a join's own item handler
        # (see repro.operators.fastpath).
        profiled.__repro_profiled__ = True  # type: ignore[attr-defined]
        return profiled

    # ------------------------------------------------------------------
    # Shadow installation (reversible)
    # ------------------------------------------------------------------

    _ABSENT = object()

    def _install(self, obj: Any, name: str, fn: Callable[..., Any]) -> None:
        """Shadow ``obj.name`` with *fn* on the instance; undoable.

        The undo restores whatever *instance* value the attribute held
        before — each join's item handler lives in the instance
        ``__dict__`` (see :mod:`repro.operators.fastpath`) and must
        survive a profiled run, so a plain ``delattr`` would leave the
        join without one.
        """
        try:
            prior = obj.__dict__.get(name, self._ABSENT)
        except AttributeError:  # __slots__ objects: nothing to preserve
            prior = self._ABSENT
        try:
            setattr(obj, name, fn)
        except AttributeError:
            # Frozen dataclasses (the cost model) veto setattr; the
            # instance __dict__ is still writable underneath.
            object.__setattr__(obj, name, fn)

        def undo(target: Any = obj, attr: str = name, value: Any = prior) -> None:
            if value is self._ABSENT:
                try:
                    delattr(target, attr)
                except AttributeError:
                    object.__delattr__(target, attr)
            else:
                try:
                    setattr(target, attr, value)
                except AttributeError:
                    object.__setattr__(target, attr, value)

        self._undo.append(undo)

    def _shadow(self, obj: Any, name: str, source: str, layer: str) -> None:
        self._install(obj, name, self.wrap(getattr(obj, name), source, layer))

    def restore(self) -> None:
        """Remove every installed shadow (reverse order)."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Instrumentation of a built plan
    # ------------------------------------------------------------------

    def instrument_run(
        self,
        join: Any,
        sink: Any,
        engine: Any,
        cost_model: Any = None,
    ) -> None:
        """Shadow the hot-path callables of one built plan.

        Handles both plain join operators and the sharded facade
        (router/shards/merger); the tracer (when attached) and the
        plan's cost model are instrumented once for the whole run.
        """
        tracer = getattr(engine, "tracer", None)
        if tracer is not None:
            for name in ("record", "begin", "end"):
                self._shadow(tracer, name, "tracer", "obs")
        if cost_model is not None:
            self._instrument_probe_cost(cost_model)
        shards = getattr(join, "shards", None)
        router = getattr(join, "router", None)
        merger = getattr(join, "merger", None)
        if shards is not None and router is not None and merger is not None:
            name = getattr(join, "name", "join")
            self._shadow(router, "push", f"{name}.router", "shard")
            for attr in ("handle", "accept_batch", "on_finish"):
                if hasattr(merger, attr):
                    self._shadow(merger, attr, f"{name}.merge", "shard")
            for shard in shards:
                self.instrument_operator(shard)
        else:
            self.instrument_operator(join)
        if sink is not None:
            source = getattr(sink, "name", type(sink).__name__)
            self._shadow(sink, "handle", source, "core")
            if hasattr(sink, "accept_batch"):
                self._shadow(sink, "accept_batch", source, "core")

    def instrument_operator(self, op: Any) -> None:
        """Shadow one join operator's hot path and its feature hooks."""
        source = getattr(op, "name", type(op).__name__)
        self._shadow(op, "handle", source, "core")
        if hasattr(op, "on_finish"):
            self._shadow(op, "on_finish", source, "core")
        validator = getattr(op, "validator", None)
        if validator is not None:
            for name in ("admit", "observe_punctuation"):
                if hasattr(validator, name):
                    self._shadow(validator, name, f"{source}.validator", "resilience")
        governor = getattr(op, "governor", None)
        if governor is not None:
            for name in _GOVERNOR_HOOKS:
                if hasattr(governor, name):
                    self._shadow(governor, name, f"{source}.governor", "governor")
        self._instrument_latency(op)
        self._instrument_purge_lag(op)

    # ------------------------------------------------------------------
    # Virtual-time histograms
    # ------------------------------------------------------------------

    def _instrument_probe_cost(self, cost_model: Any) -> None:
        original = getattr(cost_model, "probe_cost", None)
        if original is None:
            return
        hist = self.histograms["probe_cost_ms"]

        def probe_cost(candidates_in_bucket: int, matches: int) -> float:
            cost = original(candidates_in_bucket, matches)
            hist.record(cost)
            return cost

        self._install(cost_model, "probe_cost", probe_cost)

    def _instrument_latency(self, op: Any) -> None:
        """Record result latency: probing tuple's arrival -> emission."""
        engine = getattr(op, "engine", None)
        if engine is None:
            return
        hist = self.histograms["result_latency_ms"]
        emit_joins = getattr(op, "emit_joins", None)
        if emit_joins is not None:

            def profiled_emit_joins(new_tuple: Any, entries: Any, new_side: int) -> Any:
                if entries:
                    hist.record(engine.now - new_tuple.ts, count=len(entries))
                return emit_joins(new_tuple, entries, new_side)

            self._install(op, "emit_joins", profiled_emit_joins)
        emit_pair = getattr(op, "emit_pair", None)
        if emit_pair is not None:

            def profiled_emit_pair(entry_a: Any, entry_b: Any, a_side: int) -> Any:
                hist.record(engine.now - max(entry_a.tup.ts, entry_b.tup.ts))
                return emit_pair(entry_a, entry_b, a_side)

            self._install(op, "emit_pair", profiled_emit_pair)
        emit_combinations = getattr(op, "_emit_combinations", None)
        if emit_combinations is not None:

            def profiled_emit_combinations(tup: Any, side: int, match_lists: Any) -> Any:
                hist.record(engine.now - tup.ts, count=math.prod(map(len, match_lists)))
                return emit_combinations(tup, side, match_lists)

            self._install(op, "_emit_combinations", profiled_emit_combinations)

    def _instrument_purge_lag(self, op: Any) -> None:
        """Record punctuation arrival -> the purge run that exploits it.

        PJoin dispatches its purge component through the bound-method
        table built at construction, so the interceptor replaces the
        table entry, not the attribute; the n-ary join calls
        ``_purge_all`` through the instance.
        """
        engine = getattr(op, "engine", None)
        handle_punct = getattr(op, "_handle_punctuation", None)
        if engine is None or handle_punct is None:
            return
        components = getattr(op, "_components", None)
        if isinstance(components, dict):
            purge = components.get("state_purge")
        else:
            purge = getattr(op, "_purge_all", None)
        if purge is None:
            return
        hist = self.histograms["purge_lag_ms"]
        pending: List[float] = []

        def profiled_handle_punctuation(punct: Any, side: int) -> Any:
            pending.append(engine.now)
            return handle_punct(punct, side)

        def profiled_purge(*args: Any) -> Any:
            now = engine.now
            for arrived in pending:
                hist.record(now - arrived)
            pending.clear()
            return purge(*args)

        self._install(op, "_handle_punctuation", profiled_handle_punctuation)
        if not isinstance(components, dict):
            self._install(op, "_purge_all", profiled_purge)
            return
        components["state_purge"] = profiled_purge

        def undo_component(table: Dict[str, Any] = components, fn: Any = purge) -> None:
            table["state_purge"] = fn

        self._undo.append(undo_component)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, Any]]:
        """Per-layer exclusive time: ``{layer: {self_ns, calls}}``."""
        totals: Dict[str, Dict[str, Any]] = {
            layer: {"self_ns": 0, "calls": 0} for layer in LAYERS
        }
        for (source, layer), ns in self.self_ns.items():
            totals[layer]["self_ns"] += ns
            totals[layer]["calls"] += self.calls[(source, layer)]
        return totals

    def sites(self) -> List[Dict[str, Any]]:
        """Per-site breakdown, hottest first."""
        rows = [
            {
                "source": source,
                "layer": layer,
                "self_ms": round(ns / 1e6, 4),
                "calls": self.calls[(source, layer)],
            }
            for (source, layer), ns in self.self_ns.items()
        ]
        rows.sort(key=lambda row: (-float(row["self_ms"]), str(row["source"])))
        return rows

    def snapshot(self) -> Dict[str, Any]:
        """The JSON-ready measurement of one profiled run."""
        total_ns = self.total_ns
        layers: Dict[str, Dict[str, Any]] = {}
        for layer, totals in self.layer_totals().items():
            self_ns = int(totals["self_ns"])
            layers[layer] = {
                "self_ms": round(self_ns / 1e6, 4),
                "share": round(self_ns / total_ns, 4) if total_ns else 0.0,
                "calls": totals["calls"],
            }
        return {
            "profile_version": PROFILE_VERSION,
            "total_ms": round(total_ns / 1e6, 4),
            "layers": layers,
            "sites": self.sites(),
            "histograms": {
                name: hist.summary()
                for name, hist in self.histograms.items()
                if hist.count
            },
        }
