"""PJoin — the punctuation-exploiting stream join (paper Section 3).

PJoin is a binary hash-based equi-join built from six components that
the event-driven framework schedules:

1. **memory join** — per-tuple probing of the opposite in-memory state;
2. **state relocation** — flush the largest partition to (simulated)
   disk when the memory threshold is reached;
3. **disk join** — finish the left-over joins owed to disk-resident
   portions, clear the purge buffers, and purge disk-resident tuples;
4. **state purge** — apply the purge rules (1) eagerly or lazily;
5. **index build** — maintain the punctuation index incrementally;
6. **punctuation propagation** — release punctuations whose index
   count reached zero (Theorem 1) to the output stream.

The *memory join* runs on the operator's main per-item path; every
other component executes when the :class:`~repro.core.monitor.Monitor`
fires one of the Section 3.6 events and the event-listener registry
routes it here.  All component work is charged to the virtual clock,
so purge/propagation overhead trades off against probe savings exactly
as in the paper's experiments.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple as PyTuple

from repro.core.config import (
    INDEX_EAGER,
    PROPAGATE_OFF,
    PROPAGATE_PUSH_PAIRS,
    PROPAGATE_PUSH_TIME,
    PJoinConfig,
)
from repro.core.events import Event, PropagateRequestEvent, StreamEmptyEvent
from repro.core.monitor import Monitor
from repro.core.propagation import run_propagation
from repro.core.purge import PurgeCursor, PurgeResult, purge_side
from repro.core.registry import EventListenerRegistry, default_registry_for
from repro.core.state import JoinStateSide
from repro.errors import ConfigError, OperatorError
from repro.memory.budget import GovernorSpec
from repro.obs.trace import get_tracer
from repro.operators import fastpath
from repro.operators.binary import BinaryHashJoin
from repro.operators.dedupe import (
    already_produced,
    stage1_covered,
    stage2_covered_one_side,
)
from repro.punctuations.punctuation import Punctuation
from repro.resilience.policy import STRICT, TRUST
from repro.resilience.validator import ContractValidator
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.skew.replica import HotKeyReplica
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import stable_hash
from repro.storage.partition import HybridPartition, StateEntry
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

_NEG_INF = float("-inf")


class _ControlSignal:
    """An internal queue item carrying a framework event.

    Timer ticks and pull-mode requests are serialised through the
    operator's normal input queue, mirroring how the paper's second
    thread synchronises with the memory join on the shared state.
    """

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class PJoin(BinaryHashJoin):
    """The punctuation-exploiting binary hash equi-join.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.PJoinConfig`; defaults to eager
        purge with propagation off.
    registry:
        An :class:`~repro.core.registry.EventListenerRegistry`.  When
        omitted, one matching the config is derived (see
        :func:`~repro.core.registry.default_registry_for`); pass
        :func:`~repro.core.registry.table1_registry` for the paper's
        Table 1 wiring.
    disk:
        Shared :class:`~repro.storage.disk.SimulatedDisk`; a private one
        is created when omitted.
    governor:
        Optional :class:`~repro.memory.budget.GovernorSpec`; when given,
        a :class:`~repro.memory.governor.MemoryGovernor` polices this
        operator's memory-resident state against the spec's budget,
        charging spill/fault I/O through the operator's disk.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cost_model: CostModel,
        left_schema: Schema,
        right_schema: Schema,
        left_field: str,
        right_field: str,
        config: Optional[PJoinConfig] = None,
        registry: Optional[EventListenerRegistry] = None,
        disk: Optional[SimulatedDisk] = None,
        name: str = "pjoin",
        governor: Optional[GovernorSpec] = None,
        skew: Optional[Any] = None,
    ) -> None:
        self.config = config if config is not None else PJoinConfig()
        super().__init__(
            engine,
            cost_model,
            left_schema,
            right_schema,
            left_field,
            right_field,
            n_partitions=self.config.n_partitions,
            name=name,
        )
        # Skew layer (repro.skew): a SkewSpec attaches a frequency
        # sketch and adaptive (splittable) hash tables.  Unattached
        # joins build the stock tables and take the stock code paths.
        self.skew = None
        table_factory = None
        if skew is not None:
            from repro.skew.manager import SkewManager

            self.skew = SkewManager(skew, self.config.n_partitions)
            table_factory = self.skew.make_table
        self.sides = [
            JoinStateSide(
                left_schema, left_field, self.config.n_partitions,
                side_name="left", table_factory=table_factory,
            ),
            JoinStateSide(
                right_schema, right_field, self.config.n_partitions,
                side_name="right", table_factory=table_factory,
            ),
        ]
        # Keep the inherited helpers pointed at the real tables.
        self.states = [self.sides[0].table, self.sides[1].table]
        # Each side's purge cursor into the opposite store.
        self._purge_cursors = [
            PurgeCursor(
                self.sides[side], [self.sides[1 - side].store],
                by_value=self.config.on_the_fly_drop,
            )
            for side in (0, 1)
        ]
        # The punctuation-contract validator applies the configured
        # fault policy to every arriving tuple (resilience layer).
        self.validator = ContractValidator.for_sides(
            engine, name, self.config.fault_policy, self.sides
        )
        self.dead_letters = self.validator.dead_letters
        self.monitor = Monitor(self.config)
        self.registry = (
            registry if registry is not None else default_registry_for(self.config)
        )
        self.disk = disk if disk is not None else SimulatedDisk(cost_model)
        self.governor = None
        if governor is not None:
            self.governor = governor.build(
                cost_model, disk=self.disk, engine=engine,
                name=f"{name}.governor",
            )
            # A side's entries are purged by the *opposite* stream's
            # punctuations — that store drives punctuation-aware eviction.
            self.governor.register_side(
                0, self.sides[0].table,
                covered_by=self.sides[1].store.covers_value,
            )
            self.governor.register_side(
                1, self.sides[1].table,
                covered_by=self.sides[0].store.covers_value,
            )
            if self.skew is not None:
                # The skew-aware eviction policy scores victims by the
                # sketch's heat estimates; hand it the live sketch.
                self.governor.sketch = self.skew.sketch
        self._components = {
            "state_purge": self._component_state_purge,
            "state_relocation": self._component_state_relocation,
            "disk_join": self._component_disk_join,
            "index_build": self._component_index_build,
            "propagate": self._component_propagate,
        }
        # Propagated punctuations constrain the left join column of the
        # output schema.  Constraining only one column is sound (a result
        # with that value needs a partner from both inputs) and — unlike
        # constraining both columns — leaves the punctuation exploitable
        # by a downstream group-by on the join attribute, which must see
        # every non-group field as a wildcard.
        self._out_join_indices = (self.join_indices[0],)
        self._last_full_disk_join = _NEG_INF
        self._idle_check_pending = False
        # --- counters -----------------------------------------------------
        self.tuples_dropped_on_fly = 0
        self.replica_inserts = 0
        self.purge_runs = 0
        self.tuples_purged = 0
        self.disk_join_runs = 0
        self.propagation_runs = 0
        self.punctuations_propagated = 0
        self.spills = 0
        self.events_dispatched: Dict[str, int] = {}
        # Virtual time spent probing vs purging — the two sides of the
        # eager/lazy trade-off; read by the adaptive purge controller.
        self.probe_time_total = 0.0
        self.purge_time_total = 0.0
        # Propagation delay: punctuation arrival → release downstream.
        self.propagation_latency_total_ms = 0.0
        if self.config.propagation_mode == PROPAGATE_PUSH_TIME:
            self._arm_propagation_timer()
        self._install_handler()

    def __getstate__(self) -> Dict[str, Any]:
        return fastpath.strip_for_pickle(self.__dict__)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._install_handler()

    # ==================================================================
    # Event dispatch
    # ==================================================================

    def _trace(self, action: str, **details: Any) -> None:
        """Record a component action on the engine's tracer, if any."""
        tracer = getattr(self.engine, "tracer", None)
        if tracer is not None:
            tracer.record(self.engine.now, self.name, action, **details)

    def dispatch(self, event: Event) -> float:
        """Run the registry's listeners for *event*; return total cost."""
        name = event.event_name
        self.events_dispatched[name] = self.events_dispatched.get(name, 0) + 1
        # Inline tracer guard: with tracing off (the default) this must
        # not build the details dict a _trace(**kwargs) call would.
        tracer = getattr(self.engine, "tracer", None)
        if tracer is not None:
            tracer.record(self.engine.now, self.name, "event", type=name)
        cost = 0.0
        for listener in self.registry.listeners_for(event):
            component = self._components.get(listener)
            if component is None:  # pragma: no cover - registry validates
                raise OperatorError(f"unknown component {listener!r}")
            cost += component(event)
        return cost

    def _enqueue_control(self, event: Event) -> None:
        """Serialise a framework event through the input queue."""
        if self._finished:
            return
        self._queue.append((_ControlSignal(event), 0))
        if not self._busy:
            self._pump()

    def request_propagation(self, requester: str = "") -> None:
        """Pull-mode API: a downstream operator asks for punctuations."""
        self._enqueue_control(PropagateRequestEvent(requester=requester))

    def reconfigure(self, **overrides: Any) -> None:
        """Change thresholds at runtime (purge/memory/propagation).

        Only threshold-like options are adjustable mid-stream; structural
        options (partition count, schemas) are not.
        """
        allowed = {
            "purge_threshold",
            "memory_threshold",
            "propagate_count_threshold",
            "propagate_time_threshold_ms",
            "propagate_pairs_threshold",
            "disk_join_idle_ms",
        }
        unknown = set(overrides) - allowed
        if unknown:
            raise OperatorError(
                f"cannot reconfigure {sorted(unknown)}; adjustable thresholds "
                f"are {sorted(allowed)}"
            )
        self.config = self.config.with_overrides(**overrides)
        for key, value in overrides.items():
            setattr(self.monitor, key, value)

    def _arm_propagation_timer(self) -> None:
        interval = self.monitor.propagate_time_threshold_ms

        def tick() -> None:
            if self._finished:
                return
            event = self.monitor.on_propagation_timer(self.engine.now)
            if event is not None:
                self._enqueue_control(event)
            self.engine.schedule(self.monitor.propagate_time_threshold_ms, tick)

        self.engine.schedule(interval, tick)

    # ==================================================================
    # Item handling (memory join — the main thread)
    # ==================================================================

    def _install_handler(self) -> None:
        """Install this join's item handler as ``handle``."""
        on_tuple, layers = self._tuple_handler()

        def handle(item: Any, port: int) -> float:
            if isinstance(item, Tuple):
                return on_tuple(item, port)
            if isinstance(item, Punctuation):
                return self._handle_punctuation(item, port)
            if isinstance(item, _ControlSignal):
                return self.dispatch(item.event)
            if isinstance(item, HotKeyReplica):
                return self._handle_replica(item)
            return 0.0

        self.handle = fastpath.mark(handle, **layers)  # type: ignore[method-assign]

    def _tuple_handler(
        self,
    ) -> PyTuple[Callable[[Tuple, int], float], Dict[str, bool]]:
        """The memory join of one arriving tuple, and its layer flags.

        The optional layers present at build are bound in and absent
        ones left out: the contract check, the skew sketch and the
        memory governor.  Under ``strict``, the default, the check is
        one ``covers_value`` probe of the tuple's own store, with the
        validator consulted only on a violation; ``quarantine`` and
        ``repair`` hand every tuple to the validator, so their cost
        shows in the resilience layer.  The memory-threshold monitor is
        consulted only while a threshold is set, read at call time so
        :meth:`reconfigure` can set one mid-stream.  Each side's store
        and table are called directly: restore refills them in place.
        Hooks are reached through their owners at call time, so
        profiler shadows installed after build hold.  The flags name
        the layers bound in (see :func:`fastpath.mark`).
        """
        side0, side1 = self.sides
        store0, store1 = side0.store, side1.store
        table0, table1 = side0.table, side1.table
        ji0, ji1 = self.join_indices
        cost_model = self.cost_model
        tuple_overhead = cost_model.tuple_overhead
        drop_check = cost_model.drop_check
        insert_cost = cost_model.insert
        on_the_fly_drop = self.config.on_the_fly_drop
        engine = self.engine
        monitor = self.monitor
        validator = self.validator
        check_contract = validator.policy != TRUST
        strict = validator.policy == STRICT
        skew = self.skew
        governor = self.governor
        cursors = self._purge_cursors

        def on_tuple(tup: Tuple, side: int) -> float:
            if side == 0:
                value = tup.values[ji0]
                mine, my_store, other_store, other_table = (
                    side0, store0, store1, table1
                )
            else:
                value = tup.values[ji1]
                mine, my_store, other_store, other_table = (
                    side1, store1, store0, table0
                )
            cost = tuple_overhead
            if (
                check_contract
                and (not strict or my_store.covers_value(value))
                and not validator.admit(tup, value, side)
            ):
                return cost  # quarantined: the tuple must not probe or insert
            value_hash = stable_hash(value)
            if skew is not None:
                # O(1) counter bump riding the hash we just computed;
                # charged zero virtual time (see repro.skew.manager).
                skew.observe(value, value_hash)
            if governor is not None:
                # Fault any demoted entries of the target bucket back in
                # before probing, so the probe sees the full warm state.
                cost += governor.fault_in(1 - side, value, value_hash)
            # Memory join: probe the opposite state's memory portion.
            occupancy, matches = other_table.probe(value, value_hash)
            self.probes += 1
            self.probe_matches += len(matches)
            self.emit_joins(tup, matches, side)
            probe_cost = cost_model.probe_cost(occupancy, len(matches))
            self.probe_time_total += probe_cost
            cost += probe_cost
            # On-the-fly drop: if the opposite punctuations already cover
            # this value, no future opposite tuple can match it — the
            # tuple need not enter the state at all.  It must still be
            # kept when the opposite bucket has a disk portion it has not
            # joined with; the next purge run then tests its value.
            dropped = False
            if on_the_fly_drop:
                cost += drop_check
                if other_store.covers_value(value):
                    if other_table.partition_for(value, value_hash).disk_count == 0:
                        dropped = True
                        self.tuples_dropped_on_fly += 1
                    else:
                        cursors[side].note(value)
            if not dropped:
                mine.insert(tup, value, engine.now, value_hash)
                self.insertions += 1
                cost += insert_cost
                if governor is not None:
                    cost += governor.after_insert(side, value, value_hash)
                if monitor.memory_threshold is not None:
                    event = monitor.on_insert(
                        table0.memory_count + table1.memory_count
                    )
                    if event is not None:
                        cost += self.dispatch(event)
            elif governor is not None:
                governor.release_pins()
            return cost

        layers = {
            "resilience": not strict,
            "skew": skew is not None,
            "governor": governor is not None,
        }
        return on_tuple, layers

    def _handle_replica(self, replica: HotKeyReplica) -> float:
        """Insert-only admission of a hot-key state replica.

        The hot-key shard router replays a hot key's build-side history
        to non-home shards (see :mod:`repro.skew.router`).  Replicas
        never probe (the home shard already produced those pairs),
        never pass the contract validator (they are state copies, not
        stream arrivals) and fire no monitor events; they simply join
        the build side's state and pay one insert.  Their value may be
        covered already, so the next purge run tests it.
        """
        tup = replica.tup
        value = self.join_value(tup, 1)
        value_hash = stable_hash(value)
        self.sides[1].insert(tup, value, self.engine.now, value_hash)
        self._purge_cursors[1].note(value)
        self.insertions += 1
        self.replica_inserts += 1
        return self.cost_model.insert

    def _handle_punctuation(self, punct: Punctuation, side: int) -> float:
        cost = self.cost_model.punct_overhead
        state = self.sides[side]
        pid = state.add_punctuation(punct)
        exploited = pid is not None
        paired = False
        if exploited and self.config.propagation_mode == PROPAGATE_PUSH_PAIRS:
            join_pattern = punct.patterns[state.store.join_index]
            paired = self.sides[self.other(side)].store.has_equal_join_pattern(
                join_pattern
            )
        # Eager index building runs right upon receiving the punctuation
        # and is independent of the propagation strategy (Section 3.5).
        if exploited and self.config.index_building == INDEX_EAGER:
            cost += self._component_index_build(None)
        for event in self.monitor.on_punctuation(paired):
            cost += self.dispatch(event)
        return cost

    # ==================================================================
    # Component: state purge (Section 3.4)
    # ==================================================================

    def _component_state_purge(self, event: Optional[Event]) -> float:
        """One purge run over both states; returns its virtual cost."""
        now = self.engine.now
        tracer = get_tracer(self.engine)
        if tracer is not None:
            tracer.begin(now, self.name, "purge")
        total = PurgeResult()
        for side in (0, 1):
            result = purge_side(
                self.sides[side], self.sides[self.other(side)], now,
                self._purge_cursors[side],
            )
            if tracer is not None:
                tracer.record(
                    now, self.name, "hash_purge",
                    side=self.sides[side].side_name,
                    scanned=result.scanned,
                    discarded=result.discarded,
                    buffered=result.buffered,
                )
            total += result
        self.purge_runs += 1
        self.tuples_purged += total.removed
        cost = self.cost_model.purge_cost(total.scanned)
        if self.skew is not None:
            # Purge boundaries are the skew layer's restructure points:
            # the state just shrank to exactly the entries that still
            # matter, so splits/coalesces move the fewest entries here.
            moved = self.skew.maybe_restructure(now)
            if moved:
                cost += self.cost_model.purge_scan_per_tuple * moved
        self.purge_time_total += cost
        if tracer is not None:
            tracer.end(
                now,
                scanned=total.scanned,
                discarded=total.discarded,
                buffered=total.buffered,
                cost=cost,
            )
        return cost

    # ==================================================================
    # Component: state relocation (Section 3.3)
    # ==================================================================

    def _component_state_relocation(self, event: Optional[Event]) -> float:
        """Flush the largest memory partition(s) until under threshold."""
        threshold = self.monitor.memory_threshold
        if threshold is None:
            return 0.0
        cost = 0.0
        while self.memory_state_size() >= threshold:
            side, victim = self._largest_memory_partition()
            moved = self.sides[side].table.spill_partition(victim, self.engine.now)
            if moved == 0:
                break
            cost += self.disk.write(moved)
            self.spills += 1
            self._trace("relocate", side=side, partition=victim.index, moved=moved)
        return cost

    def _largest_memory_partition(self) -> PyTuple[int, HybridPartition]:
        left = self.sides[0].table.largest_memory_partition()
        right = self.sides[1].table.largest_memory_partition()
        if right.memory_count > left.memory_count:
            return 1, right
        return 0, left

    # ==================================================================
    # Component: disk join (Section 3.2)
    # ==================================================================

    def _has_pending_disk_work(self) -> bool:
        """Is there any left-over join or purge-buffer work to finish?"""
        if self.sides[0].purge_buffer or self.sides[1].purge_buffer:
            return True
        if self.spills == 0:
            # Disk portions only ever appear through state relocation;
            # without a spill the partition scan below cannot find work.
            # on_idle runs after every queue drain, so this early exit
            # is on the hot path.
            return False
        for side in (0, 1):
            other = self.other(side)
            for partition in self.sides[side].table.partitions_with_disk():
                opposite = self.sides[other].table.partitions[partition.index]
                last_probe = (
                    partition.probe_history[-1]
                    if partition.probe_history
                    else _NEG_INF
                )
                if opposite.last_insert_ts > last_probe:
                    return True
                if (
                    opposite.disk_count > 0
                    and max(partition.last_spill_ts, opposite.last_spill_ts)
                    > self._last_full_disk_join
                ):
                    return True
        return False

    def _component_disk_join(self, event: Optional[Event]) -> float:
        """A *full* disk join: finish every left-over join.

        Joins each disk portion with the opposite memory portion, the
        opposite purge buffer and the opposite disk portion (all with
        timestamp duplicate prevention), then discards purge-buffer
        entries (their debts are settled) and purges disk-resident
        tuples covered by the opposite punctuation set.
        """
        sides = self.sides
        now = self.engine.now
        if sides[0].disk_size == 0 and sides[1].disk_size == 0:
            # Nothing on disk: purge-buffer entries owe nothing.
            sides[0].clear_purge_buffer()
            sides[1].clear_purge_buffer()
            return 0.0
        tracer = get_tracer(self.engine)
        if tracer is not None:
            tracer.begin(
                now, self.name, "disk_join",
                disk_left=sides[0].disk_size, disk_right=sides[1].disk_size,
            )
        self.disk_join_runs += 1
        cost = 0.0
        emitted = 0
        buffer_by_partition = [self._buffer_by_partition(0), self._buffer_by_partition(1)]
        # Flat leaf count, not n_partitions: the skew layer's adaptive
        # tables keep both sides' leaf layouts identical (restructures
        # apply symmetrically), so pairing by flat index stays correct.
        n = len(self.sides[0].table.partitions)
        for index in range(n):
            part = [sides[0].table.partitions[index], sides[1].table.partitions[index]]
            if part[0].disk_count == 0 and part[1].disk_count == 0:
                continue
            if tracer is not None:
                tracer.record(
                    now, self.name, "disk_partition",
                    index=index,
                    disk_left=part[0].disk_count,
                    disk_right=part[1].disk_count,
                )
            cost += self.disk.read(part[0].disk_count)
            cost += self.disk.read(part[1].disk_count)
            for side in (0, 1):
                other = self.other(side)
                if part[side].disk_count == 0:
                    continue
                if self.governor is not None:
                    # The disk portion probes the opposite warm memory;
                    # fault demoted entries back first.
                    cost += self.governor.fault_in_partition(other, part[other])
                emitted += self._disk_vs_memory(part[side], part[other], side)
                emitted += self._disk_vs_buffer(
                    part[side], buffer_by_partition[other].get(index, []), side
                )
                cost += self.cost_model.probe_per_candidate * (
                    part[side].disk_count + part[other].memory_count
                )
            if part[0].disk_count and part[1].disk_count:
                emitted += self._disk_vs_disk(part[0], part[1])
                cost += self.cost_model.probe_per_candidate * (
                    part[0].disk_count + part[1].disk_count
                )
            part[0].record_probe(now)
            part[1].record_probe(now)
        if self.governor is not None:
            self.governor.release_pins()
        cost += self.cost_model.emit_result * emitted
        # Purge disk portions: covered entries have settled all debts.
        disk_purged = 0
        for side in (0, 1):
            covers = sides[self.other(side)].store.covers_value
            table = sides[side].table
            for partition in table.partitions_with_disk():
                removed = table.remove_disk_where(partition, covers)
                for entry in removed:
                    sides[side].discard_entry(entry)
                self.tuples_purged += len(removed)
                disk_purged += len(removed)
                cost += self.cost_model.purge_scan_per_tuple * len(removed)
        if tracer is not None and disk_purged:
            tracer.record(now, self.name, "disk_purge", removed=disk_purged)
        buffers_cleared = sides[0].clear_purge_buffer() + sides[1].clear_purge_buffer()
        self._last_full_disk_join = now
        if tracer is not None:
            tracer.end(
                now, emitted=emitted, buffers_cleared=buffers_cleared, cost=cost
            )
        return cost

    def _buffer_by_partition(self, side: int) -> Dict[int, List[StateEntry]]:
        """Group a side's purge buffer by hash-partition index."""
        table = self.sides[side].table
        grouped: Dict[int, List[StateEntry]] = {}
        for entry in self.sides[side].purge_buffer:
            h = entry.join_hash
            if h is None:
                h = stable_hash(entry.join_value)
            grouped.setdefault(table.partition_index_for(h), []).append(entry)
        return grouped

    def _disk_vs_memory(
        self, disk_part: HybridPartition, mem_part: HybridPartition, disk_side: int
    ) -> int:
        """Join a disk portion with the opposite memory portion."""
        last_probe = (
            disk_part.probe_history[-1] if disk_part.probe_history else _NEG_INF
        )
        emitted = 0
        for disk_entry in disk_part.iter_disk():
            for mem_entry in mem_part.probe_memory(disk_entry.join_value):
                if mem_entry.ats <= last_probe:
                    continue
                if stage1_covered(disk_entry, mem_entry):
                    continue
                self.emit_pair(disk_entry, mem_entry, disk_side)
                emitted += 1
        return emitted

    def _disk_vs_buffer(
        self,
        disk_part: HybridPartition,
        buffer_entries: List[StateEntry],
        disk_side: int,
    ) -> int:
        """Join a disk portion with opposite purge-buffer entries."""
        if not buffer_entries:
            return 0
        by_value: Dict[Any, List[StateEntry]] = {}
        for entry in buffer_entries:
            by_value.setdefault(entry.join_value, []).append(entry)
        emitted = 0
        for disk_entry in disk_part.iter_disk():
            for buffered in by_value.get(disk_entry.join_value, []):
                if stage1_covered(disk_entry, buffered):
                    continue
                if stage2_covered_one_side(
                    disk_entry, buffered, disk_part.probe_history
                ):
                    continue
                self.emit_pair(disk_entry, buffered, disk_side)
                emitted += 1
        return emitted

    def _disk_vs_disk(
        self, part_left: HybridPartition, part_right: HybridPartition
    ) -> int:
        """Join two disk portions (once per pair, across full runs)."""
        by_value: Dict[Any, List[StateEntry]] = {}
        for entry in part_right.iter_disk():
            by_value.setdefault(entry.join_value, []).append(entry)
        emitted = 0
        for entry_left in part_left.iter_disk():
            for entry_right in by_value.get(entry_left.join_value, []):
                if max(entry_left.dts, entry_right.dts) <= self._last_full_disk_join:
                    continue  # produced by an earlier full disk join
                if already_produced(
                    entry_left,
                    entry_right,
                    part_left.probe_history,
                    part_right.probe_history,
                ):
                    continue
                self.emit_pair(entry_left, entry_right, 0)
                emitted += 1
        return emitted

    # ==================================================================
    # Component: punctuation index building (Section 3.5)
    # ==================================================================

    def _component_index_build(self, event: Optional[Event]) -> float:
        """Run Index-Build for every side with fresh punctuations."""
        cost = 0.0
        tracer = get_tracer(self.engine)
        for side in self.sides:
            if side.index.pending_unindexed_punctuations == 0:
                continue
            result = side.build_index()
            if tracer is not None:
                tracer.record(
                    self.engine.now, self.name, "index_build",
                    side=side.side_name,
                    scanned=result.scanned,
                    unindexed=result.unindexed,
                    fresh=result.fresh_punctuations,
                )
            cost += self.cost_model.index_build_cost(
                result.scanned, result.unindexed, result.fresh_punctuations
            )
        return cost

    # ==================================================================
    # Component: punctuation propagation (Section 3.5)
    # ==================================================================

    def _component_propagate(self, event: Optional[Event]) -> float:
        """Release all propagable punctuations to the output stream."""
        now = self.engine.now
        tracer = get_tracer(self.engine)
        if tracer is not None:
            tracer.begin(now, self.name, "propagate")
        result = run_propagation(
            self.sides, self.out_schema, self._out_join_indices, now
        )
        for punct in result.emitted:
            self.emit(punct)
        self.propagation_runs += 1
        self.punctuations_propagated += result.propagated
        self.propagation_latency_total_ms += result.latency_total_ms
        if tracer is not None:
            tracer.end(
                now,
                checked=result.checked,
                emitted=result.propagated,
                latency_ms=result.latency_total_ms,
            )
        return self.cost_model.propagation_cost(result.checked)

    # ==================================================================
    # Reactive scheduling (stream lulls) and end-of-stream
    # ==================================================================

    def on_idle(self) -> None:
        """Arm the disk-join activation timer when left-over work exists."""
        if self._idle_check_pending or self.finished:
            return
        if not self._has_pending_disk_work():
            return
        self._idle_check_pending = True
        processed_at_arm = self.items_processed
        busy_at_arm = self.busy_time
        idle_since = self.engine.now

        def check() -> None:
            self._idle_check_pending = False
            if self.finished or self._busy or self.queue_length > 0:
                return
            if (
                self.items_processed != processed_at_arm
                or self.busy_time != busy_at_arm
            ):
                self.on_idle()
                return
            cost = self.dispatch(StreamEmptyEvent(idle_since=idle_since))
            self.run_background_task(cost, description="pjoin disk join")

        self.engine.schedule(self.monitor.disk_join_idle_ms, check)

    def on_finish(self) -> float:
        """Complete all left-over joins; final index build + propagation."""
        cost = self._component_disk_join(None)
        if self.config.propagation_mode != PROPAGATE_OFF:
            cost += self._component_index_build(None)
            cost += self._component_propagate(None)
        return cost

    # ==================================================================
    # Checkpointing (repro.checkpoint)
    # ==================================================================

    _PJOIN_COUNTERS = (
        "tuples_dropped_on_fly",
        "purge_runs",
        "tuples_purged",
        "disk_join_runs",
        "propagation_runs",
        "punctuations_propagated",
        "spills",
        "probe_time_total",
        "purge_time_total",
        "propagation_latency_total_ms",
    )

    def snapshot_state(self) -> Dict[str, Any]:
        """Everything needed to resume this join in a fresh process.

        Taken at a quiescent point (typically a punctuation-cover
        boundary with the engine drained); the payload is a plain
        picklable dict — see :mod:`repro.checkpoint.snapshot`.
        """
        from repro.checkpoint import snapshot as snaplib

        if self.skew is not None:  # split buckets and the sketch are not kept
            raise ConfigError(f"{self.name}: cannot checkpoint the skew layer")
        return {
            "version": snaplib.SNAPSHOT_VERSION,
            "kind": "pjoin",
            "sides": [snaplib.snapshot_side(side) for side in self.sides],
            "monitor": snaplib.snapshot_attrs(self.monitor, snaplib.MONITOR_FIELDS),
            "validator": snaplib.snapshot_validator(self.validator),
            "last_full_disk_join": self._last_full_disk_join,
            "events_dispatched": dict(self.events_dispatched),
            "counters": snaplib.snapshot_attrs(
                self,
                self._PJOIN_COUNTERS
                + snaplib.BINARY_JOIN_COUNTERS
                + snaplib.BASE_OPERATOR_COUNTERS,
            ),
        }

    def restore_state(self, snap: Dict[str, Any]) -> None:
        """Restore a :meth:`snapshot_state` payload, in place.

        Sides, stores and tables are mutated rather than replaced so
        governor registrations, validator contracts and the ``states``
        alias keep pointing at live objects.  The purge cursors start
        over, so the next run tests every live punctuation's values.
        """
        from repro.checkpoint import snapshot as snaplib

        if self.skew is not None:
            raise ConfigError(f"{self.name}: cannot checkpoint the skew layer")
        for side, side_snap in zip(self.sides, snap["sides"]):
            snaplib.restore_side_into(side, side_snap)
        for cursor in self._purge_cursors:
            cursor.reset()
        snaplib.restore_attrs(self.monitor, snap["monitor"])
        snaplib.restore_validator_into(self.validator, snap["validator"])
        self._last_full_disk_join = snap["last_full_disk_join"]
        self.events_dispatched = dict(snap["events_dispatched"])
        snaplib.restore_attrs(self, snap["counters"])

    # ==================================================================
    # Metrics
    # ==================================================================

    @property
    def punctuation_violations(self) -> int:
        """Contract violations seen (kept as a counter-compatible alias)."""
        return self.validator.violations

    def state_size(self, side: int) -> int:
        """One side's tuple count (memory + disk + purge buffer)."""
        return self.sides[side].total_size

    def total_state_size(self) -> int:
        """The paper's Figure 5/6/8/10/13 metric."""
        return self.sides[0].total_size + self.sides[1].total_size

    def memory_state_size(self) -> int:
        return self.sides[0].memory_size + self.sides[1].memory_size

    def punctuation_set_sizes(self) -> PyTuple[int, int]:
        return (len(self.sides[0].store), len(self.sides[1].store))

    def stats(self) -> Dict[str, Any]:
        """A flat snapshot of every counter, for reports and debugging."""
        return {
            "tuples_in": self.tuples_in,
            "punctuations_in": self.punctuations_in,
            "results_produced": self.results_produced,
            "state_total": self.total_state_size(),
            "state_left": self.state_size(0),
            "state_right": self.state_size(1),
            "memory_state": self.memory_state_size(),
            "punctuation_sets": self.punctuation_set_sizes(),
            "tuples_purged": self.tuples_purged,
            "tuples_dropped_on_fly": self.tuples_dropped_on_fly,
            "purge_runs": self.purge_runs,
            "disk_join_runs": self.disk_join_runs,
            "spills": self.spills,
            "disk_tuples_written": self.disk.tuples_written,
            "propagation_runs": self.propagation_runs,
            "punctuations_propagated": self.punctuations_propagated,
            "punctuation_violations": self.punctuation_violations,
            "probe_time_total": self.probe_time_total,
            "purge_time_total": self.purge_time_total,
            "propagation_latency_total_ms": self.propagation_latency_total_ms,
            "busy_time": self.busy_time,
            "events_dispatched": dict(self.events_dispatched),
        }

    def counters(self) -> Dict[str, Any]:
        """The uniform counter registry (see :mod:`repro.obs.counters`)."""
        out = super().counters()
        out.update(
            tuples_purged=self.tuples_purged,
            tuples_dropped_on_fly=self.tuples_dropped_on_fly,
            purge_runs=self.purge_runs,
            disk_join_runs=self.disk_join_runs,
            spills=self.spills,
            propagation_runs=self.propagation_runs,
            punctuations_propagated=self.punctuations_propagated,
            propagation_latency_total_ms=self.propagation_latency_total_ms,
            punctuation_violations=self.punctuation_violations,
            probe_time_ms=self.probe_time_total,
            purge_time_ms=self.purge_time_total,
            purge_events_fired=self.monitor.purge_events_fired,
            state_full_events_fired=self.monitor.state_full_events_fired,
            propagation_events_fired=self.monitor.propagation_events_fired,
        )
        for event_name, count in self.events_dispatched.items():
            out[f"events.{event_name}"] = count
        # Resilience counters only appear under a non-default policy, so
        # default (strict) manifests stay byte-identical to the seed.
        if self.validator.policy != STRICT:
            for key, value in self.validator.counters().items():
                out[f"resilience.{key}"] = value
        # Governor counters only appear when one is attached, keeping
        # ungoverned manifests unchanged.
        if self.governor is not None:
            for key, value in self.governor.counters().items():
                out[f"governor.{key}"] = value
        # Skew counters likewise only appear with a skew layer attached;
        # replica_inserts only when the hot-key router produced any.
        if self.skew is not None:
            for key, value in self.skew.counters().items():
                out[f"skew.{key}"] = value
        if self.replica_inserts:
            out["replica_inserts"] = self.replica_inserts
        return out

    def __repr__(self) -> str:
        return (
            f"PJoin(purge_threshold={self.monitor.purge_threshold}, "
            f"state={self.total_state_size()}, "
            f"results={self.results_produced})"
        )
