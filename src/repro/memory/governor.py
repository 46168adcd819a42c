"""The memory governor: budgeted join state with spill and fault-back.

One :class:`MemoryGovernor` polices one operator's memory-resident join
state against a tuple budget.  The join registers each state side's
hash table; the governor then interposes on the two hot-path moments:

* **before a probe** (:meth:`fault_in` / :meth:`fault_in_partition`) —
  if the target bucket was demoted, its cold entries are promoted back
  into the warm memory dict (in original order) and disk-read time is
  charged, so the probe always sees exactly the state an ungoverned run
  would.  The touched bucket is *pinned* for the rest of the in-flight
  item: eviction never demotes a bucket currently being probed.
* **after an insert** (:meth:`after_insert`) — while the warm footprint
  exceeds the budget, the configured eviction policy picks an unpinned
  victim bucket, the bucket is demoted to its cold list and disk-write
  time is charged through the shared :class:`~repro.storage.disk.
  SimulatedDisk` (so governor I/O participates in the resilience
  layer's fault injection and retry accounting).

Pins last for one item: :meth:`after_insert` releases them, and an item
or background task that ends without an insert (a tuple dropped on the
fly, a disk join, a clean-up join) calls :meth:`release_pins`.

The bookkeeping does not grow with the bucket count.  Warm and cold
sizes are counts the tables maintain, and LRU reads its victim off a
touch order (each touch moves the bucket to the end; a demoted or
emptied bucket leaves it).  The order is trusted only while every
warm bucket was seen entering it: an insert without
:meth:`after_insert` or a rebuilt table makes the next enforcement
re-read the buckets, and a warm bucket that was never touched (which
LRU ranks first) sends it back to the full scan.  The other policies
score every warm bucket on each pass.

Demotion never touches ``dts``: cold entries stay logically
memory-resident for the joins' duplicate-prevention intervals, which is
what makes any finite budget reproduce the unlimited run's result
multiset exactly — only virtual timing and counters differ.  With an
unlimited budget every method returns ``0.0`` without touching any
state, making the governed run byte-identical to an ungoverned one.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.memory.budget import DEFAULT_BYTES_PER_TUPLE, format_budget
from repro.memory.policies import LRU, Candidate, EvictionPolicy, make_policy
from repro.obs.trace import get_tracer
from repro.storage.disk import SimulatedDisk
from repro.storage.hash_table import PartitionedHashTable
from repro.storage.partition import HybridPartition

#: A pinned/recency token: (side key, bucket index).
Token = Tuple[Any, int]


class SideRegistration:
    """One governed state side: its table plus policy inputs."""

    __slots__ = ("key", "order", "table", "covered_by", "inserted", "rebuilds")

    def __init__(
        self,
        key: Any,
        order: int,
        table: PartitionedHashTable,
        covered_by: Optional[Callable[[Any], bool]],
    ) -> None:
        self.key = key
        self.order = order
        self.table = table
        # Probe used by the punctuation-aware policy: does a pending
        # punctuation (of the purging stream) cover this join value?
        self.covered_by = covered_by
        # The table's insert and rebuild counts the LRU touch order
        # accounts for; -1 forces a re-read before the first use.
        self.inserted = -1
        self.rebuilds = -1


class MemoryGovernor:
    """Budgeted residency control over one operator's join state."""

    def __init__(
        self,
        budget_tuples: float,
        policy: str = "lru",
        disk: Optional[SimulatedDisk] = None,
        engine: Any = None,
        name: str = "governor",
        bytes_per_tuple: int = DEFAULT_BYTES_PER_TUPLE,
    ) -> None:
        self.budget_tuples = float(budget_tuples)
        self.policy: EvictionPolicy = make_policy(policy)
        self.policy_name = policy
        self.disk = disk
        self.engine = engine
        self.name = name
        self.bytes_per_tuple = bytes_per_tuple
        self.unlimited = math.isinf(self.budget_tuples)
        # A live FrequencySketch, attached by the join when its skew
        # layer is on; read by the skew-aware eviction policy.
        self.sketch: Optional[Any] = None
        self._sides: List[SideRegistration] = []
        self._by_key: Dict[Any, SideRegistration] = {}
        # Logical clock driving LRU recency; ticked on every touch.
        self._clock = 0
        self.recency: Dict[Token, int] = {}
        # LRU only: possibly-warm buckets, least recently touched first.
        self._touch_order: Optional[Dict[Token, None]] = (
            {} if policy == LRU else None
        )
        # Buckets touched by the in-flight item; never eviction victims.
        self._pins: Set[Token] = set()
        # --- counters -----------------------------------------------------
        self.spills = 0
        self.tuples_spilled = 0
        self.faults = 0
        self.tuples_faulted = 0
        self.spill_time_ms = 0.0
        self.fault_time_ms = 0.0
        # Enforcement passes that found every candidate pinned (the
        # budget is smaller than the working set of one probe).
        self.evictions_denied = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_side(
        self,
        key: Any,
        table: PartitionedHashTable,
        covered_by: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Put one state side under governance."""
        if key in self._by_key:
            raise ValueError(f"side {key!r} is already registered")
        registration = SideRegistration(key, len(self._sides), table, covered_by)
        self._sides.append(registration)
        self._by_key[key] = registration

    def usage(self) -> int:
        """Warm (memory-dict) tuples across every governed side."""
        return sum(reg.table.memory_count for reg in self._sides)

    def cold_size(self) -> int:
        """Governor-demoted tuples across every governed side."""
        return sum(reg.table.cold_count for reg in self._sides)

    # ------------------------------------------------------------------
    # Hot-path hooks
    # ------------------------------------------------------------------

    def fault_in(
        self, key: Any, join_value: Any, hash_value: Optional[int] = None
    ) -> float:
        """Make the bucket for *join_value* probe-ready; return I/O cost.

        Call immediately before probing side *key*'s memory portion.
        """
        if self.unlimited:
            return 0.0
        registration = self._by_key[key]
        partition = registration.table.partition_for(join_value, hash_value)
        return self._touch(registration, partition)

    def fault_in_partition(self, key: Any, partition: HybridPartition) -> float:
        """Fault-in for callers that already hold the bucket object."""
        if self.unlimited:
            return 0.0
        return self._touch(self._by_key[key], partition)

    def fault_in_all(self) -> float:
        """Promote every cold bucket (end-of-stream cleanup joins)."""
        if self.unlimited:
            return 0.0
        cost = 0.0
        for registration in self._sides:
            for partition in registration.table.partitions_with_cold():
                cost += self._touch(registration, partition)
        return cost

    def release_pins(self) -> None:
        """End the in-flight item or background task without an insert.

        The buckets it faulted in stop being shielded from eviction.
        """
        self._pins.clear()

    def _stamp(self, token: Token) -> None:
        """Record a touch: newest recency, end of the order, pinned."""
        self._clock += 1
        self.recency[token] = self._clock
        order = self._touch_order
        if order is not None:
            order.pop(token, None)
            order[token] = None
        self._pins.add(token)

    def _touch(
        self, registration: SideRegistration, partition: HybridPartition
    ) -> float:
        self._stamp((registration.key, partition.index))
        if not partition.cold_count:
            return 0.0
        moved = registration.table.promote_partition(partition)
        self.faults += 1
        self.tuples_faulted += moved
        cost = self.disk.read(moved) if self.disk is not None else 0.0
        self.fault_time_ms += cost
        tracer = get_tracer(self.engine) if self.engine is not None else None
        if tracer is not None:
            tracer.record(
                self.engine.now, self.name, "governor_fault",
                side=registration.key, partition=partition.index,
                moved=moved, cost=cost,
            )
        return cost

    def after_insert(
        self, key: Any, join_value: Any, hash_value: Optional[int] = None
    ) -> float:
        """Account an insert into side *key* and enforce the budget.

        Call after the insert; the in-flight item's pins are released
        once enforcement finishes.
        """
        if self.unlimited:
            return 0.0
        registration = self._by_key[key]
        partition = registration.table.partition_for(join_value, hash_value)
        self._stamp((registration.key, partition.index))
        registration.inserted += 1
        cost = self._enforce()
        self._pins.clear()
        return cost

    def _enforce(self) -> float:
        """Demote victims until the warm footprint fits the budget."""
        cost = 0.0
        while self.usage() > self.budget_tuples:
            choice = self._victim()
            if choice is None:
                # Everything warm is pinned by the in-flight probe; the
                # budget is temporarily exceeded rather than violated.
                self.evictions_denied += 1
                break
            registration, victim = choice
            tracer = get_tracer(self.engine) if self.engine is not None else None
            now = self.engine.now if self.engine is not None else 0.0
            if tracer is not None:
                tracer.begin(
                    now, self.name, "governor_spill",
                    side=registration.key, partition=victim.index,
                    policy=self.policy_name,
                )
            moved = registration.table.demote_partition(victim)
            if self._touch_order is not None:
                self._touch_order.pop((registration.key, victim.index), None)
            write_cost = self.disk.write(moved) if self.disk is not None else 0.0
            self.spills += 1
            self.tuples_spilled += moved
            self.spill_time_ms += write_cost
            cost += write_cost
            if tracer is not None:
                tracer.end(now, moved=moved, cost=write_cost)
        return cost

    def _victim(self) -> Optional[Candidate]:
        """The next bucket to demote; None if every warm one is pinned."""
        order = self._touch_order
        if order is not None and self._order_is_current(order):
            return self._least_recent_unpinned(order)
        candidates = [
            (registration, partition)
            for registration in self._sides
            for partition in registration.table.partitions
            if partition.memory_count > 0
            and (registration.key, partition.index) not in self._pins
        ]
        if not candidates:
            return None
        return self.policy.select(candidates, self)

    def _order_is_current(self, order: Dict[Token, None]) -> bool:
        """Does the touch order hold every warm bucket, oldest first?

        It does while every insert was followed by :meth:`after_insert`
        and no table was rebuilt.
        """
        for registration in self._sides:
            table = registration.table
            if (
                registration.inserted != table.total_inserted
                or registration.rebuilds != table.rebuilds
            ):
                return self._reorder(order)
        return True

    def _reorder(self, order: Dict[Token, None]) -> bool:
        """Rebuild the touch order from recency by reading every bucket.

        Fails if a warm bucket was never touched: LRU ranks it first,
        and only the full scan finds it.
        """
        recency = self.recency
        warm: List[Tuple[int, Token]] = []
        for registration in self._sides:
            for partition in registration.table.partitions:
                if partition.memory_count:
                    token = (registration.key, partition.index)
                    tick = recency.get(token)
                    if tick is None:
                        return False
                    warm.append((tick, token))
        warm.sort()
        order.clear()
        for _tick, token in warm:
            order[token] = None
        for registration in self._sides:
            registration.inserted = registration.table.total_inserted
            registration.rebuilds = registration.table.rebuilds
        return True

    def _least_recent_unpinned(
        self, order: Dict[Token, None]
    ) -> Optional[Candidate]:
        """The oldest warm, unpinned bucket in the touch order.

        Ticks are unique, so this is the bucket :class:`~repro.memory.
        policies.LRUPolicy` picks from the full candidate list.  Buckets
        found empty leave the order; a touch puts them back.
        """
        by_key = self._by_key
        pins = self._pins
        empty: List[Token] = []
        victim: Optional[Candidate] = None
        for token in order:
            registration = by_key[token[0]]
            partition = registration.table.partitions[token[1]]
            if not partition.memory_count:
                empty.append(token)
            elif token not in pins:
                victim = (registration, partition)
                break
        for token in empty:
            del order[token]
        return victim

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, Any]:
        """The uniform registry form (see :mod:`repro.obs.counters`)."""
        out: Dict[str, Any] = {
            "spills": self.spills,
            "tuples_spilled": self.tuples_spilled,
            "faults": self.faults,
            "tuples_faulted": self.tuples_faulted,
            "spill_time_ms": self.spill_time_ms,
            "fault_time_ms": self.fault_time_ms,
            "evictions_denied": self.evictions_denied,
            "cold_tuples": self.cold_size(),
        }
        # Unlimited budgets stay out of the registry: inf is not a
        # portable JSON number and the zero counters say it all.
        if not self.unlimited:
            out["budget_tuples"] = self.budget_tuples
            out["budget_bytes"] = self.budget_tuples * self.bytes_per_tuple
        return out

    def stats(self) -> Dict[str, Any]:
        out = dict(self.counters())
        out["policy"] = self.policy_name
        out["budget"] = format_budget(self.budget_tuples)
        out["warm_tuples"] = self.usage()
        return out

    def __repr__(self) -> str:
        return (
            f"MemoryGovernor(budget={format_budget(self.budget_tuples)}, "
            f"policy={self.policy_name!r}, warm={self.usage()}, "
            f"cold={self.cold_size()})"
        )
