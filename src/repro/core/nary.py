"""The n-ary PJoin extension (paper Section 6).

Joins *n* punctuated streams on one shared join attribute.  Per the
paper's sketch:

* **memory join**: a new tuple from stream *i* probes the states of all
  other streams; a result is the concatenation of one matching tuple
  from every stream (cross product of the per-stream matches);
* **state purge**: a state tuple is purged once the punctuation sets of
  *all* other streams cover its join value — then no future tuple from
  any other stream can complete a new result with it.  (This is the
  sound generalisation of the binary rule; purging on a single other
  stream's punctuation would be premature when a third stream can still
  deliver partners.)
* **on-the-fly drop**: an arriving tuple already covered by all other
  streams' punctuation sets joins the current states and is dropped;
* **index building and propagation** per input stream are unchanged;
  a propagated punctuation constrains every join column of the output.

This extension keeps all states memory-resident (no relocation / disk
join); the binary operator remains the fully-featured one.
"""

from __future__ import annotations

from functools import partial
from math import prod
from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple as PyTuple

from repro.core.config import INDEX_EAGER, PROPAGATE_OFF, PJoinConfig
from repro.core.monitor import Monitor
from repro.core.propagation import run_propagation
from repro.core.purge import PurgeCursor
from repro.core.state import JoinStateSide
from repro.errors import ConfigError, OperatorError
from repro.memory.budget import GovernorSpec
from repro.operators import fastpath
from repro.operators.base import Operator
from repro.planner.spec import PlannerSpec, validate_order
from repro.punctuations.punctuation import Punctuation
from repro.resilience.policy import STRICT, TRUST
from repro.resilience.validator import ContractValidator
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.storage.hash_table import stable_hash
from repro.tuples.batch import ResultBatch
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple


def _covered_by_all(
    covers_by_stream: Sequence[Callable[[Any], bool]], value: Any
) -> bool:
    """True when every probe in *covers_by_stream* covers *value*."""
    for covers in covers_by_stream:
        if not covers(value):
            return False
    return True


class NaryPJoin(Operator):
    """Punctuation-exploiting n-ary hash equi-join on one attribute."""

    def __init__(
        self,
        engine: SimulationEngine,
        cost_model: CostModel,
        schemas: Sequence[Schema],
        join_fields: Sequence[str],
        config: Optional[PJoinConfig] = None,
        name: str = "nary-pjoin",
        governor: Optional[GovernorSpec] = None,
        planner: Optional[PlannerSpec] = None,
    ) -> None:
        if len(schemas) < 2:
            raise OperatorError("NaryPJoin needs at least two input streams")
        if len(schemas) != len(join_fields):
            raise OperatorError("need exactly one join field per input schema")
        super().__init__(engine, cost_model, n_inputs=len(schemas), name=name)
        self.config = config if config is not None else PJoinConfig()
        if self.config.memory_threshold is not None:
            raise ConfigError(
                "NaryPJoin keeps its states memory-resident; "
                "set memory_threshold=None"
            )
        if self.config.propagation_mode not in (PROPAGATE_OFF, "push_count"):
            raise ConfigError(
                "NaryPJoin supports propagation modes 'off' and "
                f"'push_count', got {self.config.propagation_mode!r}"
            )
        self.schemas = list(schemas)
        self.join_fields = list(join_fields)
        self.join_indices = [
            schema.index_of(field) for schema, field in zip(schemas, join_fields)
        ]
        self.out_schema = self._build_out_schema()
        self.sides = [
            JoinStateSide(
                schema, field, self.config.n_partitions, side_name=f"input{i}"
            )
            for i, (schema, field) in enumerate(zip(schemas, join_fields))
        ]
        # Each side's purge cursor into every other store.  With
        # on-the-fly dropping a tuple enters a state only while some
        # other store does not cover it, so nothing is ever noted.
        self._purge_cursors = [
            PurgeCursor(
                victim,
                [side.store for side in self.sides if side is not victim],
                by_value=self.config.on_the_fly_drop,
            )
            for victim in self.sides
        ]
        self.validator = ContractValidator.for_sides(
            engine, name, self.config.fault_policy, self.sides
        )
        self.dead_letters = self.validator.dead_letters
        self.monitor = Monitor(self.config)
        self.governor = None
        if governor is not None:
            # No relocation disk here; the governor builds a private one.
            self.governor = governor.build(
                cost_model, engine=engine, name=f"{name}.governor"
            )
            for side in range(self.n_inputs):
                self.governor.register_side(
                    side, self.sides[side].table,
                    covered_by=self._covered_by_others(side),
                )
        self._out_join_indices = self._compute_out_join_indices()
        self.results_produced = 0
        self.tuples_dropped_on_fly = 0
        self.tuples_purged = 0
        self.purge_runs = 0
        self.punctuations_propagated = 0
        # Per-side observability (feeds repro.planner.stats and the
        # manifests): arrivals/probes/hits/matches/occupancy are indexed
        # by side; probes count probes *into* that side.
        n = self.n_inputs
        self.side_tuples_in = [0] * n
        self.side_probe_count = [0] * n
        self.side_probe_hits = [0] * n
        self.side_match_count = [0] * n
        self.side_probe_occupancy = [0] * n
        self.side_punct_count = [0] * n
        self.side_first_punct_ms: List[Optional[float]] = [None] * n
        self.side_last_punct_ms = [0.0] * n
        self.last_purge_ms = 0.0
        # Plan state: a global stream priority order.  The containers
        # are mutated in place by set_plan so the item handler's
        # references stay live across plan switches.
        self.planner_spec = planner
        self.probe_orders: List[PyTuple[int, ...]] = [()] * n
        self._emit_perm: List[Any] = [None] * n
        self.purge_order: PyTuple[int, ...] = tuple(range(n))
        self._stream_order: PyTuple[int, ...] = tuple(range(n))
        initial = tuple(range(n))
        if planner is not None and planner.initial_order is not None:
            initial = planner.initial_order
        self.set_plan(initial)
        self.reoptimizer = None
        if planner is not None and planner.adaptive:
            from repro.planner.reopt import Reoptimizer

            self.reoptimizer = Reoptimizer(self, planner)
        self._install_handler()

    # ------------------------------------------------------------------
    # Plan installation (repro.planner)
    # ------------------------------------------------------------------

    @property
    def stream_order(self) -> PyTuple[int, ...]:
        """The current global stream priority order."""
        return self._stream_order

    def set_plan(self, order: Sequence[int]) -> None:
        """Install a global priority order as probe and purge order.

        An **exact state handoff**: only visitation orders change — the
        side hash tables, punctuation stores and indexes are untouched,
        so swapping plans mid-run can never alter the result multiset
        or the state trajectory (probe and purge outcomes are
        order-independent; only the virtual probe cost shifts).
        """
        order = validate_order(order, self.n_inputs)
        self._stream_order = order
        self.purge_order = order
        for side in range(self.n_inputs):
            probe = tuple(o for o in order if o != side)
            self.probe_orders[side] = probe
            # A combination holds the new tuple's values, then one match
            # per stream in probe order; this picks them in stream order.
            slot = {stream: pos for pos, stream in enumerate((side,) + probe)}
            self._emit_perm[side] = itemgetter(
                *(slot[stream] for stream in range(self.n_inputs))
            )

    # ------------------------------------------------------------------
    # Item handler (tagged by repro.operators.fastpath)
    # ------------------------------------------------------------------

    def _install_handler(self) -> None:
        """Install this join's item handler as ``handle``.

        The optional layers present at build are bound in and absent
        ones left out, and the tag names them: the contract check and
        the memory governor.  The check is PJoin's: one ``covers`` probe
        under ``strict``, the validator for every tuple under
        ``quarantine`` and ``repair``.  Hooks are reached through their
        owners at call time, so profiler shadows installed after build
        hold.  The handler holds the plan and per-side counter lists;
        :meth:`set_plan` and :meth:`restore_state` mutate them in place.
        """
        sides = self.sides
        join_indices = self.join_indices
        n_inputs = self.n_inputs
        cost_model = self.cost_model
        tuple_overhead = cost_model.tuple_overhead
        drop_check = cost_model.drop_check
        insert_cost = cost_model.insert
        on_the_fly_drop = self.config.on_the_fly_drop
        engine = self.engine
        validator = self.validator
        check_contract = validator.policy != TRUST
        strict = validator.policy == STRICT
        governor = self.governor
        probe_orders = self.probe_orders
        side_tuples_in = self.side_tuples_in
        side_probe_count = self.side_probe_count
        side_probe_hits = self.side_probe_hits
        side_match_count = self.side_match_count
        side_probe_occupancy = self.side_probe_occupancy

        def on_tuple(tup: Tuple, side: int) -> float:
            mine = sides[side]
            value = tup.values[join_indices[side]]
            cost = tuple_overhead
            if (
                check_contract
                and (not strict or mine.covers(value))
                and not validator.admit(tup, value, side)
            ):
                return cost  # quarantined: must not probe or enter the state
            side_tuples_in[side] += 1
            value_hash = stable_hash(value)
            # Probe every other state in plan order; a result needs a
            # match from each, so the first empty probe ends the pipeline.
            match_lists: List[List[PyTuple[Any, ...]]] = []
            complete = True
            for other in probe_orders[side]:
                if governor is not None:
                    cost += governor.fault_in(other, value, value_hash)
                occupancy, matches = sides[other].probe(value, value_hash)
                side_probe_count[other] += 1
                side_probe_occupancy[other] += occupancy
                cost += cost_model.probe_cost(occupancy, len(matches))
                if not matches:
                    complete = False
                    break
                side_probe_hits[other] += 1
                side_match_count[other] += len(matches)
                match_lists.append([entry.tup.values for entry in matches])
            if complete:
                cost += self._emit_combinations(tup, side, match_lists)
            # On-the-fly drop: covered by all other streams' punctuations.
            dropped = False
            if on_the_fly_drop:
                cost += drop_check
                if all(
                    sides[other].covers(value)
                    for other in range(n_inputs)
                    if other != side
                ):
                    dropped = True
                    self.tuples_dropped_on_fly += 1
            if not dropped:
                mine.insert(tup, value, engine.now, value_hash)
                cost += insert_cost
                if governor is not None:
                    cost += governor.after_insert(side, value, value_hash)
            elif governor is not None:
                governor.release_pins()
            return cost

        def handle(item: Any, port: int) -> float:
            if isinstance(item, Tuple):
                return on_tuple(item, port)
            if isinstance(item, Punctuation):
                return self._handle_punctuation(item, port)
            return 0.0

        self.handle = fastpath.mark(  # type: ignore[method-assign]
            handle, resilience=not strict, governor=governor is not None
        )

    def __getstate__(self) -> dict:
        return fastpath.strip_for_pickle(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._install_handler()

    @property
    def punctuation_violations(self) -> int:
        """Contract violations seen (counter-compatible alias)."""
        return self.validator.violations

    def _covered_by_others(self, side: int) -> Callable[[Any], bool]:
        """The n-ary purge probe: all *other* streams' punctuations cover.

        :meth:`_purge_all` applies it, and it drives the
        punctuation-aware eviction policy, so the policy prefers exactly
        the tuples the next purge run would reclaim.
        """
        covers_by_stream = [
            self.sides[s].store.covers_value
            for s in range(self.n_inputs)
            if s != side
        ]
        # A partial over a module-level function, not a closure: the
        # governor keeps the probe, and a governed join must pickle.
        return partial(_covered_by_all, covers_by_stream)

    def _build_out_schema(self) -> Schema:
        out = self.schemas[0]
        for schema in self.schemas[1:]:
            out = out.concat(schema)
        return Schema(out.fields, name=self.name + ".out")

    def _compute_out_join_indices(self) -> List[int]:
        """Propagation constrains the first stream's join column only.

        One constrained column keeps the punctuation exploitable by a
        downstream group-by (see the binary operator for the rationale);
        all join columns carry equal values in every result anyway.
        """
        return [self.join_indices[0]]

    # ------------------------------------------------------------------
    # Item handling
    # ------------------------------------------------------------------

    def _emit_combinations(
        self, tup: Tuple, side: int, match_lists: List[List[PyTuple[Any, ...]]]
    ) -> float:
        """Emit the cross product of per-stream matches with *tup*.

        *match_lists* holds the matches' values tuples for the other
        streams in this side's **probe order**, and results come out in
        that nesting order (the first probe stream outermost).  The
        result column order is always stream order with *tup* slotted
        into its own position, so the output is identical under every
        plan.  The results go out as one :class:`ResultBatch`, built
        into tuples only where a consumer needs them.
        """
        count = prod(map(len, match_lists))
        self._outbox.append(
            ResultBatch(
                self.out_schema, tup.values, tuple(match_lists), count,
                in_stream_order=self._emit_perm[side],
            )
        )
        self.results_produced += count
        return self.cost_model.emit_result * count

    def _handle_punctuation(self, punct: Punctuation, side: int) -> float:
        cost = self.cost_model.punct_overhead
        pid = self.sides[side].add_punctuation(punct)
        if pid is not None:
            now = self.engine.now
            self.side_punct_count[side] += 1
            if self.side_first_punct_ms[side] is None:
                self.side_first_punct_ms[side] = now
            self.side_last_punct_ms[side] = now
            if self.config.index_building == INDEX_EAGER:
                cost += self._index_build()
        for event in self.monitor.on_punctuation(paired=False):
            if event.event_name == "PurgeThresholdReachEvent":
                cost += self._purge_all()
                if self.reoptimizer is not None:
                    # Purge-complete cover boundary: the safe (and
                    # punctuation-aligned) moment to re-plan.
                    cost += self.reoptimizer.on_cover_boundary()
            elif event.event_name == "PropagateCountReachEvent":
                cost += self._index_build()
                cost += self._propagate()
        return cost

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------

    def _purge_all(self) -> float:
        """Purge every state: all-other-streams-covered rule.

        Scans the sides in plan order; the removal set is the same
        under every order (coverage depends only on punctuation
        stores), so the plan shifts purge timing costs, never results.
        A side's cursor hands out the values that punctuations added to
        the other stores since its last run name: a value becomes
        covered by all other streams when the last of them names it.
        """
        scanned = 0
        removed_total = 0
        for side in self.purge_order:
            victim = self.sides[side]
            scanned += victim.memory_size
            candidates = self._purge_cursors[side].take()
            if any(
                len(self.sides[s].store) == 0
                for s in range(self.n_inputs)
                if s != side
            ):
                continue
            removed = victim.table.remove_where(
                self._covered_by_others(side), candidates
            )
            for entry in removed:
                victim.discard_entry(entry)
            removed_total += len(removed)
        self.purge_runs += 1
        self.tuples_purged += removed_total
        self.last_purge_ms = self.engine.now
        return self.cost_model.purge_cost(scanned)

    def _index_build(self) -> float:
        cost = 0.0
        for side in self.sides:
            if side.index.pending_unindexed_punctuations == 0:
                continue
            result = side.build_index()
            cost += self.cost_model.index_build_cost(
                result.scanned, result.unindexed, result.fresh_punctuations
            )
        return cost

    def _propagate(self) -> float:
        result = run_propagation(
            self.sides, self.out_schema, self._out_join_indices, self.engine.now
        )
        for punct in result.emitted:
            self.emit(punct)
        self.punctuations_propagated += result.propagated
        return self.cost_model.propagation_cost(result.checked)

    def on_finish(self) -> float:
        if self.config.propagation_mode != PROPAGATE_OFF:
            return self._index_build() + self._propagate()
        return 0.0

    # ------------------------------------------------------------------
    # Checkpointing (repro.checkpoint)
    # ------------------------------------------------------------------

    _NARY_COUNTERS = (
        "results_produced",
        "tuples_dropped_on_fly",
        "tuples_purged",
        "purge_runs",
        "punctuations_propagated",
        "last_purge_ms",
    )

    _SIDE_COUNTER_ATTRS = (
        "side_tuples_in",
        "side_probe_count",
        "side_probe_hits",
        "side_match_count",
        "side_probe_occupancy",
        "side_punct_count",
        "side_first_punct_ms",
        "side_last_punct_ms",
    )

    def snapshot_state(self) -> dict:
        """Recoverable state: every side plus the flat counters."""
        from repro.checkpoint import snapshot as snaplib

        return {
            "version": snaplib.SNAPSHOT_VERSION,
            "kind": "nary-pjoin",
            "sides": [snaplib.snapshot_side(side) for side in self.sides],
            "monitor": snaplib.snapshot_attrs(self.monitor, snaplib.MONITOR_FIELDS),
            "validator": snaplib.snapshot_validator(self.validator),
            "counters": snaplib.snapshot_attrs(
                self, self._NARY_COUNTERS + snaplib.BASE_OPERATOR_COUNTERS
            ),
            "side_counters": {
                attr: list(getattr(self, attr))
                for attr in self._SIDE_COUNTER_ATTRS
            },
            "plan": {"stream_order": list(self._stream_order)},
        }

    def restore_state(self, snap: dict) -> None:
        from repro.checkpoint import snapshot as snaplib

        for side, side_snap in zip(self.sides, snap["sides"]):
            snaplib.restore_side_into(side, side_snap)
        for cursor in self._purge_cursors:
            cursor.reset()
        snaplib.restore_attrs(self.monitor, snap["monitor"])
        snaplib.restore_validator_into(self.validator, snap["validator"])
        snaplib.restore_attrs(self, snap["counters"])
        for attr, values in snap.get("side_counters", {}).items():
            # In place: the item handler holds these lists.
            getattr(self, attr)[:] = values
        plan = snap.get("plan")
        if plan is not None:
            self.set_plan(plan["stream_order"])

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def state_size(self, side: int) -> int:
        return self.sides[side].total_size

    def total_state_size(self) -> int:
        return sum(side.total_size for side in self.sides)

    def _punct_cadence_ms(self, side: int) -> float:
        """Mean virtual ms between exploitable punctuations on a side."""
        count = self.side_punct_count[side]
        first = self.side_first_punct_ms[side]
        if count < 2 or first is None:
            return 0.0
        return (self.side_last_punct_ms[side] - first) / (count - 1)

    def counters(self) -> dict:
        """Uniform counter registry (see :mod:`repro.obs.counters`)."""
        out = super().counters()
        out.update(
            results_produced=self.results_produced,
            tuples_dropped_on_fly=self.tuples_dropped_on_fly,
            tuples_purged=self.tuples_purged,
            purge_runs=self.purge_runs,
            punctuations_propagated=self.punctuations_propagated,
            punctuation_violations=self.punctuation_violations,
        )
        for i, side in enumerate(self.sides):
            prefix = f"side.{side.side_name}"
            out[f"{prefix}.state_size"] = side.total_size
            out[f"{prefix}.tuples_in"] = self.side_tuples_in[i]
            out[f"{prefix}.probe_count"] = self.side_probe_count[i]
            out[f"{prefix}.probe_hits"] = self.side_probe_hits[i]
            out[f"{prefix}.match_count"] = self.side_match_count[i]
            out[f"{prefix}.probe_occupancy"] = self.side_probe_occupancy[i]
            out[f"{prefix}.punct_count"] = self.side_punct_count[i]
            out[f"{prefix}.punct_cadence_ms"] = self._punct_cadence_ms(i)
        if self.reoptimizer is not None:
            for key, value in self.reoptimizer.counters().items():
                out[f"planner.{key}"] = value
        # Non-default policies only: default manifests stay unchanged.
        if self.validator.policy != STRICT:
            for key, value in self.validator.counters().items():
                out[f"resilience.{key}"] = value
        if self.governor is not None:
            for key, value in self.governor.counters().items():
                out[f"governor.{key}"] = value
        return out
