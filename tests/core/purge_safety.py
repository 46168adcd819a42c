"""A purge-safety shadow: no purged join value may arrive again.

The paper's purge rule (Section 3.4) removes a state tuple only once the
opposite punctuations promise that no tuple able to join it will come.
On a valid input a purged join value therefore never shows up again in
a tuple from another stream; if it did, that tuple would miss the
partners the purge threw away.

:class:`PurgeSafetyShadow` checks exactly that on a live run.  It
shadows each side's ``table.remove_where`` and ``table.remove_disk_where``
on the join instance (the way the profiler shadows calls) to record the
join values every purge removes, and shadows the join's ``handle`` to
fail on a later tuple from another side that carries one of them.
Entries moved to the purge buffer count as purged: probes no longer see
them.  Window expiry is not a purge and is not recorded.

Usage::

    shadow = PurgeSafetyShadow()
    shadow.attach_all(join)      # the join, or each shard of a stack
    ...run...
    assert shadow.violations == []
"""

from __future__ import annotations

from typing import Any, List, Set, Tuple as PyTuple

from repro.tuples.tuple import Tuple


class PurgeSafetyShadow:
    """Records purged join values and flags tuples that bring one back."""

    def __init__(self) -> None:
        # (join name, side, value, arriving side, virtual time)
        self.violations: List[PyTuple[str, int, Any, int, float]] = []
        self.purged_entries = 0

    def attach(self, join: Any) -> None:
        """Shadow one join instance: its sides' tables and its ``handle``.

        A join without ``sides`` (XJoin, the symmetric hash join) never
        purges; only its ``handle`` is shadowed.
        """
        sides = getattr(join, "sides", ())
        purged: List[Set[Any]] = [set() for _side in sides]
        for side, state in enumerate(sides):
            self._record(state.table, "remove_where", purged[side])
            self._record(state.table, "remove_disk_where", purged[side])
        self._check(join, purged)

    def attach_all(self, join: Any) -> None:
        """Shadow every shard of a sharded stack, or the join itself."""
        for inner in getattr(join, "shards", None) or [join]:
            self.attach(inner)

    def _record(self, table: Any, name: str, purged: Set[Any]) -> None:
        inner = getattr(table, name)

        def recording(*args: Any, **kwargs: Any) -> Any:
            removed = inner(*args, **kwargs)
            for entry in removed:
                purged.add(entry.join_value)
            self.purged_entries += len(removed)
            return removed

        setattr(table, name, recording)

    def _check(self, join: Any, purged: List[Set[Any]]) -> None:
        handle = join.handle
        join_indices = join.join_indices
        engine = join.engine
        name = join.name

        def checking(item: Any, port: int) -> float:
            if isinstance(item, Tuple):
                value = item.values[join_indices[port]]
                for side, values in enumerate(purged):
                    if side != port and value in values:
                        self.violations.append(
                            (name, side, value, port, engine.now)
                        )
            return handle(item, port)

        join.handle = checking
