"""Sharded execution subsystem: K-way partitioned punctuated joins.

One logical PJoin/XJoin/SHJ runs as K shard operators behind a
hash-partitioning :class:`~repro.shard.router.ShardRouter` and an
:class:`~repro.shard.merger.AlignedMerger` that re-unions results and
re-emits each routed punctuation exactly once, after every covering
shard has propagated it.  Two backends share the routing and alignment
code: the deterministic in-simulator backend
(:class:`~repro.shard.operator.ShardedJoin`) and the wall-clock
multiprocess backend (:mod:`repro.shard.backend`).  The multiprocess
backend imports :mod:`multiprocessing`, so it loads on first use of one
of its names: an in-simulator sharded run never pays for it.
"""

from typing import Any

from repro.shard.merger import AlignedMerger, AlignmentLedger
from repro.shard.operator import (
    ShardedJoin,
    aggregate_counters,
    sharded_pjoin,
    sharded_shj,
    sharded_xjoin,
)
from repro.shard.router import ShardRouter
from repro.shard.routing import narrow_punctuation, shard_cover, shard_of

__all__ = [
    "AlignedMerger",
    "AlignmentLedger",
    "ShardedJoin",
    "ShardedRunOutcome",
    "ShardPlan",
    "ShardRouter",
    "ShardWorkerPool",
    "aggregate_counters",
    "fork_available",
    "narrow_punctuation",
    "run_sharded",
    "shard_cover",
    "shard_of",
    "sharded_pjoin",
    "sharded_shj",
    "sharded_xjoin",
    "warm_pool",
]


def __getattr__(name: str) -> Any:
    # The names of __all__ not bound above are the backend's.
    if name in __all__:
        from repro.shard import backend

        return getattr(backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
