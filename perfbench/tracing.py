"""Span tracing of one run, applied from outside the program.

The traced run wraps each layer's entry points -- class methods,
module functions and the built join's own ``handle`` -- with a span
recorder.  A span has a name, a start, an end, a parent and the id of
the input item that caused it.  Spans stay in memory (flat integer
arrays) until the run ends; then they are written out and reduced to
per-span-name calls and self times.

A span's self time is its duration minus its children's durations, so
the self times of all spans under the root add up to the root exactly.

Item ids: a source admitting item *i*, or the join handling it, makes
*i* the current item; every event scheduled while *i* is current runs
with *i* current again, so deferred work (deliveries to the sink at
completion time) carries the id of the item that caused it.  Work no
input item caused (metric samples, timers) carries -1.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, class or None for a module function, attribute, span name).
# Span names are "<module>.<stage>"; the first component is the layer.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.engine", "SimulationEngine", "run", "sim.loop"),
    ("repro.streams.source", "StreamSource", "_schedule_next", "streams.admit"),
    ("repro.streams.source", "StreamSource", "_send_eos", "streams.admit"),
    ("repro.operators.base", "Operator", "push", "operators.queue"),
    ("repro.operators.base", "Operator", "_pump", "operators.queue"),
    ("repro.operators.base", "Operator", "_finish_item", "operators.queue"),
    ("repro.operators.binary", "BinaryHashJoin", "emit_joins", "operators.emit"),
    ("repro.operators.binary", "BinaryHashJoin", "emit_join", "operators.emit"),
    ("repro.operators.binary", "BinaryHashJoin", "emit_pair", "operators.emit"),
    ("repro.core.nary", "NaryPJoin", "_emit_combinations", "operators.emit"),
    ("repro.operators.sink", "Sink", "accept_batch", "operators.sink"),
    ("repro.operators.sink", "Sink", "handle", "operators.sink"),
    ("repro.operators.sink", "Sink", "on_finish", "operators.sink"),
    ("repro.operators.xjoin", "XJoin", "on_idle", "operators.xjoin"),
    ("repro.operators.xjoin", "XJoin", "_run_stage2", "operators.xjoin"),
    ("repro.operators.xjoin", "XJoin", "on_finish", "operators.xjoin"),
    ("repro.core.pjoin", "PJoin", "_component_state_purge", "core.purge"),
    ("repro.core.nary", "NaryPJoin", "_purge_all", "core.purge"),
    ("repro.core.pjoin", "PJoin", "_component_index_build", "core.index"),
    ("repro.core.nary", "NaryPJoin", "_index_build", "core.index"),
    ("repro.core.pjoin", "PJoin", "_component_propagate", "core.propagate"),
    ("repro.core.nary", "NaryPJoin", "_propagate", "core.propagate"),
    ("repro.core.pjoin", "PJoin", "_component_disk_join", "core.disk"),
    ("repro.core.pjoin", "PJoin", "_component_state_relocation", "core.disk"),
    ("repro.core.pjoin", "PJoin", "on_idle", "core.disk"),
    ("repro.core.pjoin", "PJoin", "on_finish", "core.disk"),
    ("repro.core.nary", "NaryPJoin", "on_finish", "core.disk"),
    ("repro.core.state", "JoinStateSide", "probe", "storage.probe"),
    ("repro.storage.hash_table", "PartitionedHashTable", "probe", "storage.probe"),
    ("repro.core.state", "JoinStateSide", "insert", "storage.insert"),
    ("repro.storage.hash_table", "PartitionedHashTable", "insert", "storage.insert"),
    ("repro.storage.hash_table", "PartitionedHashTable", "remove_value", "storage.remove"),
    ("repro.storage.hash_table", "PartitionedHashTable", "remove_where", "storage.remove"),
    ("repro.core.state", "JoinStateSide", "discard_entry", "storage.remove"),
    ("repro.core.state", "JoinStateSide", "buffer_entry", "storage.remove"),
    ("repro.core.state", "JoinStateSide", "clear_purge_buffer", "storage.remove"),
    ("repro.storage.hash_table", "PartitionedHashTable", "spill_partition", "storage.spill"),
    ("repro.storage.hash_table", "PartitionedHashTable", "demote_partition", "storage.spill"),
    ("repro.storage.hash_table", "PartitionedHashTable", "promote_partition", "storage.spill"),
    ("repro.punctuations.store", "PunctuationStore", "covers_value", "punctuations.covers"),
    ("repro.punctuations.store", "PunctuationStore", "covering_pids", "punctuations.covers"),
    ("repro.punctuations.store", "PunctuationStore", "first_covering", "punctuations.covers"),
    ("repro.punctuations.store", "PunctuationStore", "add", "punctuations.add"),
    ("repro.core.state", "JoinStateSide", "add_punctuation", "punctuations.add"),
    ("repro.resilience.validator", "ContractValidator", "admit", "resilience.admit"),
    ("repro.resilience.validator", "ContractValidator", "observe_punctuation", "resilience.admit"),
    ("repro.memory.governor", "MemoryGovernor", "fault_in", "memory.fault_in"),
    ("repro.memory.governor", "MemoryGovernor", "fault_in_partition", "memory.fault_in"),
    ("repro.memory.governor", "MemoryGovernor", "fault_in_all", "memory.fault_in"),
    ("repro.memory.governor", "MemoryGovernor", "after_insert", "memory.after_insert"),
    ("repro.skew.manager", "SkewManager", "observe", "skew.observe"),
    ("repro.skew.manager", "SkewManager", "maybe_restructure", "skew.restructure"),
    ("repro.skew.router", "HotKeyShardRouter", "_maybe_activate", "skew.hotkey"),
    ("repro.skew.router", "HotKeyShardRouter", "_note_punctuated", "skew.hotkey"),
    ("repro.shard.router", "ShardRouter", "push", "shard.route"),
    ("repro.skew.router", "HotKeyShardRouter", "push", "shard.route"),
    ("repro.shard.merger", "AlignedMerger", "handle", "shard.merge"),
    ("repro.planner.stats", "StatsCollector", "collect", "planner.stats"),
    ("repro.planner.reopt", "Reoptimizer", "_reoptimize", "planner.reopt"),
    ("repro.metrics.collector", "MetricsCollector", "_sample", "metrics.sample"),
    ("repro.experiments.harness", None, "build_manifest", "obs.manifest"),
)

# Scheduling calls get a span that also carries the current item id
# into the scheduled callback.
SCHEDULE_CALLS = ("schedule", "schedule_at")

ROOT = "experiments.run"

# The join's own handle: the join's stage in the layer table.
HANDLE_SPAN = {"XJoin": "operators.xjoin"}
DEFAULT_HANDLE_SPAN = "core.handle"


class SpanRecorder:
    """Records spans into flat arrays and installs reversible wrappers."""

    def __init__(self, item_ids: Optional[Dict[int, int]] = None) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self._stack: List[int] = [-1]
        # id(input item) -> item ordinal, for items of the input.
        self.item_ids = item_ids if item_ids is not None else {}
        self.current_item = -1
        self._undo: List[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* inside a span called *name*."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, items, stack = self.parent, self.item, self._stack
        clock = time.perf_counter_ns
        recorder = self

        def spanned(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(recorder.current_item)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return spanned

    def wrap_item(
        self, fn: Callable[..., Any], name: str, position: int = 0
    ) -> Callable[..., Any]:
        """A span around *fn* that makes its item argument current."""
        inner = self.wrap(fn, name)
        ids = self.item_ids
        recorder = self

        def admitting(*args: Any) -> Any:
            # Items the input does not hold (replicas, copies routed to
            # shards) keep the id of the input item that caused them.
            recorder.current_item = ids.get(id(args[position]), recorder.current_item)
            return inner(*args)

        admitting.__wrapped__ = fn  # type: ignore[attr-defined]
        return admitting

    def _carry(self, callback: Callable[[], None]) -> Callable[[], None]:
        item = self.current_item
        recorder = self

        def carried() -> None:
            recorder.current_item = item
            callback()

        return carried

    # -- installation -------------------------------------------------------

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        had = attr in vars(owner)
        prior = vars(owner).get(attr)
        setattr(owner, attr, value)

        def undo() -> None:
            if had:
                setattr(owner, attr, prior)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def install(self) -> None:
        """Wrap every entry point; call before the run call builds the plan."""
        for module_name, class_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self.replace(owner, attr, self.wrap(vars(owner)[attr], span))
        from repro.sim.engine import SimulationEngine
        from repro.streams.source import StreamSource

        for attr in SCHEDULE_CALLS:
            self._install_schedule(SimulationEngine, attr)
        inner_many = self.wrap(vars(SimulationEngine)["schedule_many"], "sim.schedule")
        carry = self._carry

        def schedule_many(engine: Any, events: Any) -> int:
            return inner_many(engine, [(t, carry(cb)) for t, cb in events])

        self.replace(SimulationEngine, "schedule_many", schedule_many)
        self.replace(
            StreamSource,
            "_emit",
            self.wrap_item(vars(StreamSource)["_emit"], "streams.admit", position=1),
        )

    def _install_schedule(self, engine_cls: Any, attr: str) -> None:
        inner = self.wrap(vars(engine_cls)[attr], "sim.schedule")
        carry = self._carry

        def schedule(engine: Any, when: float, callback: Callable[[], None]) -> None:
            return inner(engine, when, carry(callback))

        self.replace(engine_cls, attr, schedule)

    def attach_join(self, join: Any, inner: List[Any]) -> None:
        """Wrap the built join's item handler (fast path or layered)."""
        for op in inner:
            span = HANDLE_SPAN.get(type(op).__name__, DEFAULT_HANDLE_SPAN)
            handle = self.wrap_item(op.handle, span)
            self.replace(op, "handle", handle)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def root_index(self) -> int:
        rid = self._name_ids.get(ROOT)
        for index, nid in enumerate(self.name):
            if nid == rid and self.parent[index] == -1:
                return index
        raise ValueError("no root span recorded")

    def summary(self, root: int) -> Dict[str, Dict[str, float]]:
        """Per span name under *root*: calls and self time (ms).

        Self times of all names add up to the root span's duration.
        """
        n = len(self.start)
        child_ns = [0] * n
        under = [False] * n
        under[root] = True
        parents, starts, ends = self.parent, self.start, self.end
        for index in range(root + 1, n):
            parent = parents[index]
            if parent >= 0 and under[parent]:
                under[index] = True
                child_ns[parent] += ends[index] - starts[index]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        name = self.name
        for index in range(root, n):
            if under[index]:
                nid = name[index]
                parent = parents[index]
                # A call enters the stage from another one; re-entry
                # (a wrapper calling the table it wraps) is not a call.
                if parent < 0 or name[parent] != nid:
                    calls[nid] += 1
                self_ns[nid] += ends[index] - starts[index] - child_ns[index]
        return {
            name: {"calls": calls[nid], "self_ms": self_ns[nid] / 1e6}
            for nid, name in enumerate(self.names)
        }

    def span_ms(self, index: int) -> float:
        return (self.end[index] - self.start[index]) / 1e6

    def write(self, path: Path) -> None:
        """Write every span as gzipped TSV (times in ns from the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tparent\titem\tstart_ns\tend_ns\n")
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{self.names[self.name[index]]}\t{self.parent[index]}"
                    f"\t{self.item[index]}\t{self.start[index] - origin}"
                    f"\t{self.end[index] - origin}\n"
                )
