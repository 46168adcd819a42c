"""Skew-adaptive partitioning and hot-key handling (ROADMAP item 3).

Every partitioning decision in the repro — the joins' hash buckets, the
shard router, the governor's eviction victims — assumes roughly uniform
join keys.  This package makes those decisions *frequency-aware*, in
the direction of PanJoin (arxiv 1811.05065): partition granularity
tracks observed key frequency so probe cost stays flat under Zipf
traffic.

* :mod:`~repro.skew.sketch` — a space-bounded frequency sketch
  (SpaceSaving top-K over a count-min backing) observing join-key
  arrivals;
* :mod:`~repro.skew.partitioner` — :class:`AdaptiveTable`, a
  partitioned hash table whose hot base buckets split into finer
  sub-partitions and whose cold ones coalesce back, only ever at
  punctuation-aligned purge boundaries;
* :mod:`~repro.skew.manager` — :class:`SkewSpec` (the attachment
  config) and :class:`SkewManager` (one per operator: the sketch, both
  sides' tables, and the split/coalesce decisions);
* :mod:`~repro.skew.router` — :class:`HotKeySharding` state +
  :class:`HotKeyShardRouter`: replicate the build side of a hot key to
  every shard and spread its probe side, keeping the merged result
  multiset exactly equal to the unsharded run;
* :mod:`~repro.skew.replica` — the :class:`HotKeyReplica` queue item
  carrying an insert-only state copy to a non-home shard.

The layer is strictly opt-in: a join built without a
:class:`~repro.skew.manager.SkewSpec` builds its item handler without
the sketch and its stock tables, exactly as before this package
existed, so default manifests stay byte-identical.
"""

from typing import Any

from repro.skew.manager import SkewManager, SkewSpec
from repro.skew.partitioner import AdaptiveTable
from repro.skew.replica import HotKeyReplica
from repro.skew.sketch import FrequencySketch

__all__ = [
    "AdaptiveTable",
    "FrequencySketch",
    "HotKeyReplica",
    "HotKeyShardRouter",
    "SkewManager",
    "SkewSpec",
]


def __getattr__(name: str) -> Any:
    # The router sits on top of repro.shard, which imports the joins —
    # and the joins import repro.skew.replica.  Resolving the router
    # lazily keeps this package importable from inside repro.core.
    if name == "HotKeyShardRouter":
        from repro.skew.router import HotKeyShardRouter

        return HotKeyShardRouter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
