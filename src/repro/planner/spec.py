"""Planner configuration (`--planner {static,adaptive}`).

A :class:`PlannerSpec` travels from the CLI (or a test) into
:class:`~repro.core.nary.NaryPJoin` and decides how the operator picks
its probe and purge orders:

* ``static`` — the order is fixed at construction (``initial_order``,
  default stream order).  With the default order the operator is
  byte-identical to an unplanned build: same probes, same virtual
  costs, same item handler.
* ``adaptive`` — a :class:`~repro.planner.reopt.Reoptimizer` is
  attached; at punctuation-aligned purge boundaries (the same
  purge-complete cover cuts :mod:`repro.checkpoint` checkpoints at) it
  re-scores the candidate orders from live stream statistics and swaps
  the plan when the projected saving clears the hysteresis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence, Tuple

from repro.errors import PlannerError

STATIC = "static"
ADAPTIVE = "adaptive"
PLANNER_MODES = (STATIC, ADAPTIVE)


@dataclass(frozen=True)
class PlannerSpec:
    """How an n-way join chooses (and re-chooses) its probe order.

    Parameters
    ----------
    mode:
        ``static`` or ``adaptive``.
    initial_order:
        Global stream priority order to start from (a permutation of
        ``range(n_streams)``); ``None`` keeps stream order.  Each
        arriving side probes the other sides in this order; purge scans
        follow it too.
    reopt_interval:
        Adaptive only: re-evaluate every Nth purge-complete cover
        boundary (>= 1).
    hysteresis:
        Adaptive only: minimum relative cost improvement a candidate
        must project before the plan switches (0 = switch on any
        improvement).  Damps oscillation between near-equal orders.
    smoothing:
        EWMA weight of the newest stats window when rolling rates
        (0 < smoothing <= 1; 1 = use only the latest window).
    max_decisions:
        Decision-log ring size kept for ``repro plan --explain``.
    """

    mode: str = STATIC
    initial_order: Optional[Tuple[int, ...]] = None
    reopt_interval: int = 4
    hysteresis: float = 0.05
    smoothing: float = 0.5
    max_decisions: int = 32

    def __post_init__(self) -> None:
        if self.mode not in PLANNER_MODES:
            raise PlannerError(
                f"unknown planner mode {self.mode!r}; expected one of "
                f"{PLANNER_MODES}"
            )
        if self.initial_order is not None:
            object.__setattr__(
                self, "initial_order", tuple(self.initial_order)
            )
        if self.reopt_interval < 1:
            raise PlannerError(
                f"reopt_interval must be >= 1, got {self.reopt_interval}"
            )
        if self.hysteresis < 0:
            raise PlannerError(
                f"hysteresis must be >= 0, got {self.hysteresis}"
            )
        if not 0.0 < self.smoothing <= 1.0:
            raise PlannerError(
                f"smoothing must be in (0, 1], got {self.smoothing}"
            )
        if self.max_decisions < 1:
            raise PlannerError(
                f"max_decisions must be >= 1, got {self.max_decisions}"
            )

    @property
    def adaptive(self) -> bool:
        return self.mode == ADAPTIVE

    def with_overrides(self, **overrides: Any) -> "PlannerSpec":
        return replace(self, **overrides)

    @classmethod
    def parse(cls, text: str) -> "PlannerSpec":
        """Build a spec from a CLI token (``static`` / ``adaptive``)."""
        return cls(mode=text)


def validate_order(order: Sequence[int], n: int) -> Tuple[int, ...]:
    """Check *order* is a permutation of ``range(n)`` and return it."""
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise PlannerError(
            f"probe order {order!r} is not a permutation of range({n})"
        )
    return order
