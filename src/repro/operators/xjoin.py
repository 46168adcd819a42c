"""XJoin (Urhan & Franklin) — the paper's comparator.

A symmetric hash join extended with three mechanisms:

1. **State relocation**: when the in-memory join state reaches the
   memory threshold, the memory portion of the largest partition (over
   both inputs) is flushed to the simulated disk.
2. **Reactive disk join (stage 2)**: when both inputs are temporarily
   stuck, a disk-resident portion is brought back and joined against
   the opposite memory portion.  An *activation threshold* — a minimum
   idle interval — controls how aggressively it is scheduled.
3. **Clean-up join (stage 3)**: at end-of-stream, all pairs not yet
   produced (because one side was on disk at the relevant moments) are
   generated.

Duplicate prevention follows the timestamp rules in
:mod:`repro.operators.dedupe`.  XJoin has *no* constraint-exploiting
mechanism: punctuations are absorbed, the state only ever grows — which
is exactly what the paper measures it against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple as PyTuple

from repro.errors import ConfigError
from repro.memory.budget import GovernorSpec
from repro.obs.trace import get_tracer
from repro.operators import fastpath
from repro.operators.binary import BinaryHashJoin
from repro.operators.dedupe import already_produced, stage1_covered
from repro.operators.shj import symmetric_handler
from repro.resilience.policy import TRUST
from repro.resilience.validator import ContractValidator
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.storage.disk import SimulatedDisk
from repro.storage.partition import HybridPartition, StateEntry
from repro.tuples.schema import Schema


class XJoin(BinaryHashJoin):
    """Binary hash equi-join with XJoin's three-stage execution.

    Parameters
    ----------
    memory_threshold:
        Maximum number of memory-resident state tuples over both inputs;
        ``None`` (default) disables relocation, matching the paper's
        main figures where the comparison is purely about state growth.
    disk_join_idle_ms:
        Activation threshold of the reactive stage: how long both inputs
        must be silent before a disk portion is fetched and joined.
    disk:
        The shared :class:`~repro.storage.disk.SimulatedDisk`; a private
        one is created when omitted.
    fault_policy:
        Punctuation-contract fault policy (see
        :mod:`repro.resilience.policy`).  XJoin has no
        constraint-exploiting mechanism of its own, so the default is
        ``"trust"`` — the paper's behaviour, with zero overhead.  Any
        other policy makes the operator track arriving punctuations in a
        private store and check every tuple against them.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cost_model: CostModel,
        left_schema: Schema,
        right_schema: Schema,
        left_field: str,
        right_field: str,
        n_partitions: int = 32,
        memory_threshold: Optional[int] = None,
        disk_join_idle_ms: float = 5.0,
        disk: Optional[SimulatedDisk] = None,
        name: str = "xjoin",
        fault_policy: str = TRUST,
        governor: Optional[GovernorSpec] = None,
    ) -> None:
        super().__init__(
            engine,
            cost_model,
            left_schema,
            right_schema,
            left_field,
            right_field,
            n_partitions=n_partitions,
            name=name,
        )
        if memory_threshold is not None and memory_threshold < 2:
            raise ConfigError(
                f"memory_threshold must be at least 2, got {memory_threshold}"
            )
        if disk_join_idle_ms <= 0:
            raise ConfigError(
                f"disk_join_idle_ms must be positive, got {disk_join_idle_ms}"
            )
        self.memory_threshold = memory_threshold
        self.disk_join_idle_ms = disk_join_idle_ms
        self.disk = disk if disk is not None else SimulatedDisk(cost_model)
        self.validator = ContractValidator.tracking(
            engine,
            name,
            fault_policy,
            [left_schema, right_schema],
            [left_field, right_field],
        )
        self.dead_letters = self.validator.dead_letters
        self.governor = None
        if governor is not None:
            self.governor = governor.build(
                cost_model, disk=self.disk, engine=engine,
                name=f"{name}.governor",
            )
            # XJoin exploits no punctuations: no covered_by probe, so
            # the punctuation-aware policy degrades to largest-first.
            self.governor.register_side(0, self.states[0])
            self.governor.register_side(1, self.states[1])
        self._idle_check_pending = False
        self.spills = 0
        self.stage2_runs = 0
        self.stage3_pairs_emitted = 0
        self.punctuations_absorbed = 0
        self._install_handler()

    def __getstate__(self) -> Dict[str, Any]:
        return fastpath.strip_for_pickle(self.__dict__)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._install_handler()

    # ------------------------------------------------------------------
    # Stage 1: per-tuple memory join
    # ------------------------------------------------------------------

    def _install_handler(self) -> None:
        """Install the symmetric handler, relocating after inserts when bounded."""
        relocate = self._maybe_relocate if self.memory_threshold is not None else None
        self.handle = symmetric_handler(  # type: ignore[method-assign]
            self, relocate=relocate
        )

    # ------------------------------------------------------------------
    # State relocation
    # ------------------------------------------------------------------

    def _maybe_relocate(self) -> float:
        """Spill the largest memory partition if over the threshold."""
        cost = 0.0
        tracer = get_tracer(self.engine)
        while self.memory_state_size() >= self.memory_threshold:
            victim_side, victim = self._largest_memory_partition()
            moved = self.states[victim_side].spill_partition(victim, self.engine.now)
            if moved == 0:
                break
            cost += self.disk.write(moved)
            self.spills += 1
            if tracer is not None:
                tracer.record(
                    self.engine.now, self.name, "relocate",
                    side=victim_side, partition=victim.index, moved=moved,
                )
        return cost

    def _largest_memory_partition(self) -> PyTuple[int, HybridPartition]:
        """The (side, partition) with the largest memory portion."""
        best_side, best = 0, self.states[0].largest_memory_partition()
        candidate = self.states[1].largest_memory_partition()
        if candidate.memory_count > best.memory_count:
            return 1, candidate
        return best_side, best

    # ------------------------------------------------------------------
    # Stage 2: reactive disk join
    # ------------------------------------------------------------------

    def on_idle(self) -> None:
        """Arm the activation-threshold timer when disk work exists."""
        if self._idle_check_pending or self.finished:
            return
        if self.spills == 0:
            # Disk portions only appear through relocation; skip the
            # partition scan on the (hot) no-spill idle path.
            return
        if self._pick_stage2_target() is None:
            return
        self._idle_check_pending = True
        processed_at_arm = self.items_processed
        busy_at_arm = self.busy_time

        def check() -> None:
            self._idle_check_pending = False
            if self.finished or self._busy or self.queue_length > 0:
                return
            if (
                self.items_processed != processed_at_arm
                or self.busy_time != busy_at_arm
            ):
                # Something ran during the wait: not a real lull.
                self.on_idle()
                return
            self._run_stage2()

        self.engine.schedule(self.disk_join_idle_ms, check)

    def _pick_stage2_target(self) -> Optional[PyTuple[int, HybridPartition]]:
        """A (side, partition) whose disk portion has new memory to meet.

        A partition is worth probing when its disk portion is non-empty
        and the opposite memory portion received an insert after this
        portion's last probe.
        """
        best: Optional[PyTuple[int, HybridPartition]] = None
        best_size = 0
        for side in (0, 1):
            other = self.other(side)
            for partition in self.states[side].partitions_with_disk():
                opposite = self.states[other].partitions[partition.index]
                if opposite.memory_count == 0:
                    continue
                last_probe = (
                    partition.probe_history[-1]
                    if partition.probe_history
                    else float("-inf")
                )
                if opposite.last_insert_ts <= last_probe:
                    continue
                if partition.disk_count > best_size:
                    best = (side, partition)
                    best_size = partition.disk_count
        return best

    def _run_stage2(self) -> None:
        """Fetch one disk portion and join it with the opposite memory."""
        target = self._pick_stage2_target()
        if target is None:
            return
        side, partition = target
        other = self.other(side)
        opposite = self.states[other].partitions[partition.index]
        governor_cost = 0.0
        if self.governor is not None:
            # The disk portion probes the opposite warm memory below.
            governor_cost = self.governor.fault_in_partition(other, opposite)
        last_probe = (
            partition.probe_history[-1] if partition.probe_history else float("-inf")
        )
        matches = 0
        for disk_entry in partition.iter_disk():
            for mem_entry in opposite.probe_memory(disk_entry.join_value):
                if mem_entry.ats <= last_probe:
                    continue
                if stage1_covered(disk_entry, mem_entry):
                    continue
                self.emit_pair(disk_entry, mem_entry, side)
                matches += 1
        partition.record_probe(self.engine.now)
        if self.governor is not None:
            self.governor.release_pins()
        self.stage2_runs += 1
        cost = (
            governor_cost
            + self.disk.read(partition.disk_count)
            + self.cost_model.probe_per_candidate
            * (partition.disk_count + opposite.memory_count)
            + self.cost_model.emit_result * matches
        )
        tracer = get_tracer(self.engine)
        if tracer is not None:
            tracer.record(
                self.engine.now, self.name, "disk_join",
                stage=2, side=side, partition=partition.index,
                disk=partition.disk_count, emitted=matches, cost=cost,
            )
        self.run_background_task(cost, description="xjoin stage-2 disk join")

    # ------------------------------------------------------------------
    # Stage 3: clean-up join at end-of-stream
    # ------------------------------------------------------------------

    def on_finish(self) -> float:
        """Produce every pair not yet output because of relocation."""
        cost = 0.0
        if self.governor is not None:
            # The clean-up join scans every memory portion; fault all
            # demoted buckets back in before pairing.
            cost += self.governor.fault_in_all()
        tracer = get_tracer(self.engine)
        if tracer is not None:
            tracer.begin(self.engine.now, self.name, "cleanup_join")
        emitted_before = self.stage3_pairs_emitted
        for index in range(self.states[0].n_partitions):
            part_a = self.states[0].partitions[index]
            part_b = self.states[1].partitions[index]
            if part_a.disk_count == 0 and part_b.disk_count == 0:
                continue
            cost += self.disk.read(part_a.disk_count)
            cost += self.disk.read(part_b.disk_count)
            cost += self._cleanup_partition(part_a, part_b)
        if self.governor is not None:
            self.governor.release_pins()
        if tracer is not None:
            tracer.end(
                self.engine.now,
                emitted=self.stage3_pairs_emitted - emitted_before,
                cost=cost,
            )
        return cost

    # ------------------------------------------------------------------
    # Checkpointing (repro.checkpoint)
    # ------------------------------------------------------------------

    _XJOIN_COUNTERS = (
        "spills",
        "stage2_runs",
        "stage3_pairs_emitted",
        "punctuations_absorbed",
    )

    def snapshot_state(self) -> Dict[str, Any]:
        """Recoverable state: both tables plus the stage counters."""
        from repro.checkpoint import snapshot as snaplib

        return {
            "version": snaplib.SNAPSHOT_VERSION,
            "kind": "xjoin",
            "states": [snaplib.snapshot_table(table) for table in self.states],
            "validator": snaplib.snapshot_validator(self.validator),
            "counters": snaplib.snapshot_attrs(
                self,
                self._XJOIN_COUNTERS
                + snaplib.BINARY_JOIN_COUNTERS
                + snaplib.BASE_OPERATOR_COUNTERS,
            ),
        }

    def restore_state(self, snap: Dict[str, Any]) -> None:
        from repro.checkpoint import snapshot as snaplib

        for table, table_snap in zip(self.states, snap["states"]):
            snaplib.restore_table_into(table, table_snap)
        snaplib.restore_validator_into(self.validator, snap["validator"])
        snaplib.restore_attrs(self, snap["counters"])

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out.update(
            spills=self.spills,
            stage2_runs=self.stage2_runs,
            stage3_pairs_emitted=self.stage3_pairs_emitted,
            punctuations_absorbed=self.punctuations_absorbed,
        )
        # Non-default policies only: default manifests stay unchanged.
        if self.validator.policy != TRUST:
            for key, value in self.validator.counters().items():
                out[f"resilience.{key}"] = value
        if self.governor is not None:
            for key, value in self.governor.counters().items():
                out[f"governor.{key}"] = value
        return out

    def _cleanup_partition(
        self, part_a: HybridPartition, part_b: HybridPartition
    ) -> float:
        """Emit not-yet-produced pairs of one partition pair.

        Memory–memory pairs are always produced by stage 1 (both tuples'
        residency intervals are open-ended), so only pairs touching a
        disk portion need checking.
        """
        b_disk_by_value: Dict[Any, List[StateEntry]] = {}
        for entry in part_b.iter_disk():
            b_disk_by_value.setdefault(entry.join_value, []).append(entry)
        pairs_checked = 0
        emitted = 0
        # disk A × (memory B + disk B)
        for entry_a in part_a.iter_disk():
            candidates = list(part_b.probe_memory(entry_a.join_value))
            candidates.extend(b_disk_by_value.get(entry_a.join_value, []))
            for entry_b in candidates:
                pairs_checked += 1
                if not already_produced(
                    entry_a, entry_b, part_a.probe_history, part_b.probe_history
                ):
                    self.emit_pair(entry_a, entry_b, 0)
                    emitted += 1
        # memory A × disk B
        for entry_a in part_a.iter_memory():
            for entry_b in b_disk_by_value.get(entry_a.join_value, []):
                pairs_checked += 1
                if not already_produced(
                    entry_a, entry_b, part_a.probe_history, part_b.probe_history
                ):
                    self.emit_pair(entry_a, entry_b, 0)
                    emitted += 1
        self.stage3_pairs_emitted += emitted
        return (
            self.cost_model.probe_per_candidate * pairs_checked
            + self.cost_model.emit_result * emitted
        )
