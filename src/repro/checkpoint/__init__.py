"""Punctuation-aligned checkpointing, crash recovery and rescaling.

The paper's purge-complete punctuation boundaries are natural
consistent cuts of join state: once a cover's purge has run, no
structure in the operator refers to anything the cover retired.  This
package exploits that:

* :mod:`repro.checkpoint.snapshot` — exact snapshot/restore of every
  recoverable structure (state sides with cold-tier residency,
  punctuation stores/indexes, disorder-buffer ledgers, operator
  counters);
* :mod:`repro.checkpoint.store` — persistence of checkpoint payloads
  through :class:`~repro.storage.disk.SimulatedDisk`, so checkpoint
  I/O is charged and fault-injectable like any other disk traffic;
* :mod:`repro.checkpoint.recovery` — the per-shard runner: cover-aligned
  segmented execution, seeded crash injection and in-process recovery
  from the latest checkpoint;
* :mod:`repro.checkpoint.rescale` — live ``K1 -> K2`` rescaling with
  checkpointed-state migration at the next cover boundary.

:func:`repro.shard.backend.run_sharded` drives all of it: its worker
pool respawns dead workers from their latest checkpoint.
"""

from repro.checkpoint.snapshot import (
    SNAPSHOT_VERSION,
    restore_disorder_buffer_into,
    restore_side,
    restore_side_into,
    restore_store_into,
    snapshot_disorder_buffer,
    snapshot_side,
    snapshot_store,
)
from repro.checkpoint.store import Checkpoint, CheckpointStore
from repro.checkpoint.recovery import (
    CrashSpec,
    cover_cut_times,
    run_checkpointed_shard,
)
from repro.checkpoint.rescale import RescalePlan

__all__ = [
    "SNAPSHOT_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "CrashSpec",
    "RescalePlan",
    "cover_cut_times",
    "restore_disorder_buffer_into",
    "restore_side",
    "restore_side_into",
    "restore_store_into",
    "run_checkpointed_shard",
    "snapshot_disorder_buffer",
    "snapshot_side",
    "snapshot_store",
]
