"""PJoin configuration.

Gathers every tuning knob the paper exposes — purge threshold, index
building strategy, propagation mode and thresholds, memory threshold,
disk-join activation threshold — in one validated dataclass.  The
paper stresses that these parameters "can also be changed at runtime";
:class:`~repro.core.monitor.Monitor` copies them into mutable fields
for exactly that reason, and :meth:`repro.core.pjoin.PJoin.reconfigure`
applies changes mid-stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError, ResilienceError
from repro.resilience.policy import STRICT, normalize_policy

INDEX_EAGER = "eager"
INDEX_LAZY = "lazy"

PROPAGATE_OFF = "off"
PROPAGATE_PUSH_COUNT = "push_count"
PROPAGATE_PUSH_TIME = "push_time"
PROPAGATE_PUSH_PAIRS = "push_pairs"
PROPAGATE_PULL = "pull"

_INDEX_MODES = (INDEX_EAGER, INDEX_LAZY)
_PROPAGATION_MODES = (
    PROPAGATE_OFF,
    PROPAGATE_PUSH_COUNT,
    PROPAGATE_PUSH_TIME,
    PROPAGATE_PUSH_PAIRS,
    PROPAGATE_PULL,
)


@dataclass(frozen=True)
class PJoinConfig:
    """All PJoin tuning options (paper Sections 3.2–3.6).

    Parameters
    ----------
    purge_threshold:
        Number of new punctuations between two state purges.  ``1`` is
        the paper's *eager* purge; larger values are *lazy* purge
        (``PJoin-n`` in the figures).
    index_building:
        ``"eager"`` builds the punctuation index incrementally on every
        punctuation arrival; ``"lazy"`` batches building until a
        propagation run needs it.
    propagation_mode:
        ``"off"`` — never propagate (the §4.1–§4.3 experiments);
        ``"push_count"`` — propagate after ``propagate_count_threshold``
        new punctuations;
        ``"push_time"`` — propagate every
        ``propagate_time_threshold_ms`` virtual milliseconds;
        ``"push_pairs"`` — propagate after
        ``propagate_pairs_threshold`` pairs of equivalent punctuations
        have been received from both inputs (the §4.4 configuration);
        ``"pull"`` — propagate only on
        :meth:`~repro.core.pjoin.PJoin.request_propagation`.
    propagate_count_threshold:
        Count propagation threshold for ``"push_count"``.
    propagate_time_threshold_ms:
        Time propagation threshold for ``"push_time"``.
    propagate_pairs_threshold:
        Pair count for ``"push_pairs"``.
    memory_threshold:
        Maximum memory-resident state tuples over both inputs before
        state relocation kicks in; ``None`` disables relocation.
    disk_join_idle_ms:
        Activation threshold of the reactive disk join: both inputs
        must be silent this long before disk work is scheduled.
    disk_join_before_propagation:
        Run a full disk join (finishing all left-over joins and clearing
        the purge buffer) before each propagation run, so punctuations
        blocked by disk-resident matches can be released.
    on_the_fly_drop:
        Drop an arriving tuple (after probing) when the opposite
        stream's punctuations already cover its join value, instead of
        inserting it into the state (Section 4.3's asymmetric-rate
        optimisation).
    n_partitions:
        Hash buckets per state.
    fault_policy:
        How to treat a punctuation-contract violation (a tuple arriving
        after a same-stream punctuation covering it) — one of
        :data:`~repro.resilience.policy.FAULT_POLICIES`:
        ``"strict"`` raises
        :class:`~repro.errors.ContractViolationError` (the default);
        ``"quarantine"`` routes the tuple to the operator's dead-letter
        store; ``"repair"`` retracts the offending punctuation and
        admits the tuple; ``"trust"`` skips the check entirely.
    """

    purge_threshold: int = 1
    index_building: str = INDEX_LAZY
    propagation_mode: str = PROPAGATE_OFF
    propagate_count_threshold: int = 50
    propagate_time_threshold_ms: float = 1000.0
    propagate_pairs_threshold: int = 1
    memory_threshold: Optional[int] = None
    disk_join_idle_ms: float = 5.0
    disk_join_before_propagation: bool = True
    on_the_fly_drop: bool = True
    n_partitions: int = 32
    fault_policy: str = STRICT

    def __post_init__(self) -> None:
        if self.purge_threshold < 1:
            raise ConfigError(
                f"purge_threshold must be >= 1, got {self.purge_threshold}"
            )
        if self.index_building not in _INDEX_MODES:
            raise ConfigError(
                f"index_building must be one of {_INDEX_MODES}, "
                f"got {self.index_building!r}"
            )
        if self.propagation_mode not in _PROPAGATION_MODES:
            raise ConfigError(
                f"propagation_mode must be one of {_PROPAGATION_MODES}, "
                f"got {self.propagation_mode!r}"
            )
        if self.propagate_count_threshold < 1:
            raise ConfigError(
                "propagate_count_threshold must be >= 1, "
                f"got {self.propagate_count_threshold}"
            )
        if self.propagate_time_threshold_ms <= 0:
            raise ConfigError(
                "propagate_time_threshold_ms must be positive, "
                f"got {self.propagate_time_threshold_ms}"
            )
        if self.propagate_pairs_threshold < 1:
            raise ConfigError(
                "propagate_pairs_threshold must be >= 1, "
                f"got {self.propagate_pairs_threshold}"
            )
        if self.memory_threshold is not None and self.memory_threshold < 2:
            raise ConfigError(
                f"memory_threshold must be >= 2 or None, got {self.memory_threshold}"
            )
        if self.disk_join_idle_ms <= 0:
            raise ConfigError(
                f"disk_join_idle_ms must be positive, got {self.disk_join_idle_ms}"
            )
        if self.n_partitions < 1:
            raise ConfigError(f"n_partitions must be >= 1, got {self.n_partitions}")
        try:
            normalize_policy(self.fault_policy)
        except ResilienceError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def eager_purge(self) -> bool:
        """Eager purge is the special case of purge threshold 1."""
        return self.purge_threshold == 1

    def with_overrides(self, **overrides) -> "PJoinConfig":
        """Return a copy with selected options replaced."""
        return replace(self, **overrides)


def eager_config(**overrides) -> PJoinConfig:
    """The paper's ``PJoin-1``: eager purge, everything else default."""
    return PJoinConfig(purge_threshold=1, **overrides)


def lazy_config(purge_threshold: int, **overrides) -> PJoinConfig:
    """The paper's ``PJoin-n``: lazy purge with the given threshold."""
    return PJoinConfig(purge_threshold=purge_threshold, **overrides)
