"""Per-stream punctuation sets with ``setMatch`` semantics.

The paper denotes all punctuations that arrived from stream *A* before
time *T* as the set ``PS_A(T)``; a tuple *set-matches* the set when it
matches at least one member.  :class:`PunctuationStore` realises that
set with two efficiency properties the join relies on:

* constant patterns on the join attribute (by far the common case —
  e.g. one punctuation per closed auction item) are indexed in a dict,
  so ``setMatch`` on a join value is O(1);
* range patterns sit in a bisect-based interval index
  (:class:`~repro.perf.interval.RangeIntervalIndex`, O(log n) point
  queries), enumerations in a per-member dict, and wildcards in their
  own list — only patterns none of those structures can hold (e.g.
  ranges with non-numeric bounds) fall back to a linear scan;
* every stored punctuation gets a stable, monotonically increasing id
  equal to its arrival position, so components (state purge, index
  building) can keep cheap cursors for "punctuations that arrived since
  I last ran", and :meth:`PunctuationStore.values_since` names the join
  values those punctuations cover, so they search the state by value.

The store also implements the paper's prefix-consistency assumption
checker: for punctuations :math:`p_i` arriving before :math:`p_j`, the
join-attribute patterns must be either disjoint or equal.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple as PyTuple

from repro.errors import PunctuationError
from repro.perf.interval import RangeIntervalIndex
from repro.punctuations.patterns import (
    Constant,
    EnumerationList,
    Pattern,
    Range,
    Wildcard,
)
from repro.punctuations.punctuation import Punctuation
from repro.tuples.schema import Schema


def is_join_exploitable(punct: Punctuation, join_field: str) -> bool:
    """Can a join on *join_field* safely exploit *punct*?

    A punctuation promises "no more tuples matching **all** patterns".
    The join purges opposite-state tuples by join value alone, which is
    only sound when every non-join pattern is a wildcard — otherwise
    tuples with the punctuated join value but different other attributes
    may still arrive.  The paper assumes punctuations over the join
    attribute; this predicate makes the assumption explicit and safe.
    """
    join_index = punct.schema.index_of(join_field)
    for i, pattern in enumerate(punct.patterns):
        if i != join_index and not pattern.is_wildcard:
            return False
    return True


class PunctuationStore:
    """The punctuation set ``PS`` of one input stream.

    Parameters
    ----------
    schema:
        Schema of the stream.
    join_field:
        Name of the join attribute; ``setMatch`` queries are evaluated
        against each punctuation's pattern on this field.
    check_prefix_consistency:
        When ``True``, :meth:`add` verifies the paper's assumption that
        the join-attribute patterns of any two punctuations are either
        equal or disjoint.  Disjointness of two non-constant patterns is
        approximated conservatively (equal patterns pass; a constant is
        checked by membership); enable in tests, disable on hot paths.
    """

    def __init__(
        self,
        schema: Schema,
        join_field: str,
        check_prefix_consistency: bool = False,
    ) -> None:
        self.schema = schema
        self.join_field = join_field
        self.join_index = schema.index_of(join_field)
        self.check_prefix_consistency = check_prefix_consistency
        # id -> punctuation; tombstoned to None on removal so ids stay stable.
        self._entries: List[Optional[Punctuation]] = []
        # join constant value -> ids of punctuations with that constant.
        self._constants: Dict[Any, List[int]] = {}
        # Numeric range patterns, bisect-indexed by low bound.
        self._ranges = RangeIntervalIndex()
        # enum member value -> ids of enumerations containing it, plus
        # the exact patterns for duplicate detection.
        self._enum_values: Dict[Any, List[int]] = {}
        self._enum_patterns: Dict[EnumerationList, List[int]] = {}
        # ids of punctuations whose join pattern is a wildcard.
        self._wildcards: List[int] = []
        # ids no structure above can hold (non-numeric ranges, EMPTY...).
        self._general: List[int] = []
        self._live_count = 0
        self.total_added = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, punct: Punctuation) -> int:
        """Store *punct* and return its stable id (arrival position)."""
        if punct.schema != self.schema:
            raise PunctuationError(
                "punctuation schema does not match the store's stream schema"
            )
        join_pattern = punct.patterns[self.join_index]
        if self.check_prefix_consistency:
            self._check_consistency(join_pattern)
        pid = len(self._entries)
        self._entries.append(punct)
        if isinstance(join_pattern, Constant):
            self._constants.setdefault(join_pattern.value, []).append(pid)
        elif isinstance(join_pattern, Range):
            if not self._ranges.add(join_pattern, pid):
                self._general.append(pid)
        elif isinstance(join_pattern, EnumerationList):
            self._enum_patterns.setdefault(join_pattern, []).append(pid)
            enum_values = self._enum_values
            for member in join_pattern.values:
                enum_values.setdefault(member, []).append(pid)
        elif isinstance(join_pattern, Wildcard):
            self._wildcards.append(pid)
        else:
            self._general.append(pid)
        self._live_count += 1
        self.total_added += 1
        return pid

    def remove(self, pid: int) -> None:
        """Remove the punctuation with id *pid* (e.g. once propagated)."""
        punct = self._entries[pid]
        if punct is None:
            return
        self._entries[pid] = None
        join_pattern = punct.patterns[self.join_index]
        if isinstance(join_pattern, Constant):
            ids = self._constants.get(join_pattern.value)
            if ids is not None:
                ids.remove(pid)
                if not ids:
                    del self._constants[join_pattern.value]
        elif isinstance(join_pattern, Range):
            if not self._ranges.remove(join_pattern, pid):
                self._general.remove(pid)
        elif isinstance(join_pattern, EnumerationList):
            ids = self._enum_patterns.get(join_pattern)
            if ids is not None:
                ids.remove(pid)
                if not ids:
                    del self._enum_patterns[join_pattern]
            for member in join_pattern.values:
                ids = self._enum_values.get(member)
                if ids is not None:
                    ids.remove(pid)
                    if not ids:
                        del self._enum_values[member]
        elif isinstance(join_pattern, Wildcard):
            self._wildcards.remove(pid)
        else:
            self._general.remove(pid)
        self._live_count -= 1

    def _check_consistency(self, new_pattern: Pattern) -> None:
        """Enforce "disjoint or equal" against all live join patterns."""
        for pid, punct in self.items():
            old = punct.patterns[self.join_index]
            if old == new_pattern:
                continue
            if self._definitely_disjoint(old, new_pattern):
                continue
            raise PunctuationError(
                f"punctuation join patterns {old!r} and {new_pattern!r} are "
                "neither equal nor disjoint (prefix-consistency violated)"
            )

    @staticmethod
    def _definitely_disjoint(a: Pattern, b: Pattern) -> bool:
        """Conservative disjointness test via normalised conjunction."""
        return a.conjoin(b).is_empty

    # ------------------------------------------------------------------
    # setMatch queries
    # ------------------------------------------------------------------

    def has_equal_join_pattern(self, pattern: Pattern) -> bool:
        """Is a live punctuation with this exact join pattern stored?

        Joins use this to drop *duplicate* punctuations: storing two
        punctuations with equal join patterns would let the second one's
        index count reach zero while tuples carrying the first one's pid
        still sit in the state, breaking Theorem 1's premise.
        """
        if isinstance(pattern, Constant):
            return pattern.value in self._constants
        if isinstance(pattern, EnumerationList):
            return pattern in self._enum_patterns
        if isinstance(pattern, Wildcard):
            return bool(self._wildcards)
        if isinstance(pattern, Range) and self._ranges.has_pattern(pattern):
            return True
        # Non-indexable ranges and exotic patterns: linear fallback.
        for pid in self._general:
            punct = self._entries[pid]
            if punct is not None and punct.patterns[self.join_index] == pattern:
                return True
        return False

    def _range_pids(self, value: Any) -> List[int]:
        """Pids of range punctuations covering *value*."""
        pids = self._ranges.query(value)
        if pids is not None:
            return pids
        # Index degraded (overlapping ranges seen): linear fallback.
        out: List[int] = []
        for pattern, ids in self._ranges.items():
            if pattern.matches(value):
                out.extend(ids)
        return out

    def covers_value(self, value: Any) -> bool:
        """``setMatch`` on a join value: does any punctuation cover it?"""
        if value in self._constants:
            return True
        if self._wildcards:
            return True
        if self._enum_values and value in self._enum_values:
            return True
        if self._ranges and self._range_pids(value):
            return True
        for pid in self._general:
            punct = self._entries[pid]
            if punct is not None and punct.patterns[self.join_index].matches(value):
                return True
        return False

    def covering_pids(self, value: Any) -> List[int]:
        """Ids of *all* live punctuations covering *value*, ascending.

        The ``repair`` fault policy uses this to retract every promise a
        violating tuple contradicts without scanning the whole store.
        """
        out: List[int] = []
        ids = self._constants.get(value)
        if ids:
            out.extend(ids)
        if self._wildcards:
            out.extend(self._wildcards)
        if self._enum_values:
            ids = self._enum_values.get(value)
            if ids:
                out.extend(ids)
        if self._ranges:
            out.extend(self._range_pids(value))
        for pid in self._general:
            punct = self._entries[pid]
            if punct is not None and punct.patterns[self.join_index].matches(value):
                out.append(pid)
        out.sort()
        return out

    def first_covering(self, value: Any) -> Optional[PyTuple[int, Punctuation]]:
        """Return the earliest-arrived live punctuation covering *value*.

        Arrival order matters for the punctuation index: the paper sets a
        tuple's ``pid`` to "the pid of the first arrived punctuation
        found to be matched".
        """
        pids = self.covering_pids(value)
        if not pids:
            return None
        punct = self._entries[pids[0]]
        assert punct is not None
        return pids[0], punct

    def get(self, pid: int) -> Optional[Punctuation]:
        """Return the live punctuation with id *pid*, or ``None``."""
        if 0 <= pid < len(self._entries):
            return self._entries[pid]
        return None

    # ------------------------------------------------------------------
    # Iteration / cursors
    # ------------------------------------------------------------------

    def items(self) -> Iterator[PyTuple[int, Punctuation]]:
        """Iterate over live ``(id, punctuation)`` pairs in arrival order."""
        for pid, punct in enumerate(self._entries):
            if punct is not None:
                yield pid, punct

    def since(self, cursor: int) -> List[PyTuple[int, Punctuation]]:
        """Live punctuations with id >= *cursor*, in arrival order.

        Components call this with their saved cursor and then advance the
        cursor to :attr:`next_id` — the classic "what is new since I last
        ran" pattern used by lazy purge and lazy index building.
        """
        result = []
        for pid in range(max(cursor, 0), len(self._entries)):
            punct = self._entries[pid]
            if punct is not None:
                result.append((pid, punct))
        return result

    def values_since(
        self, cursor: int, value_type: Optional[type]
    ) -> Optional[Dict[Any, int]]:
        """The join values that live punctuations with id >= *cursor* name.

        Maps every constant and enumeration member of those
        punctuations to the earliest id naming it.  A state whose join
        field is declared *value_type* can then be searched by value
        instead of scanned.  Returns ``None`` when it cannot: one of
        the patterns is a range, wildcard or other pattern, or
        *value_type* is not ``int`` or ``str``, or a value is not
        exactly of that type.  ``stable_hash`` puts equal values of
        different types (``1`` and ``1.0``) in different buckets.
        """
        if value_type is not int and value_type is not str:
            return None
        named: Dict[Any, int] = {}
        join_index = self.join_index
        for pid, punct in self.since(cursor):
            pattern = punct.patterns[join_index]
            if isinstance(pattern, Constant):
                values: Any = (pattern.value,)
            elif isinstance(pattern, EnumerationList):
                values = pattern.values
            else:
                return None
            for value in values:
                if type(value) is not value_type:
                    return None
                named.setdefault(value, pid)
        return named

    @property
    def next_id(self) -> int:
        """The id the next added punctuation will receive."""
        return len(self._entries)

    def counters(self) -> dict:
        """Uniform counter snapshot (see :mod:`repro.obs.counters`)."""
        return {
            "punctuations_seen": self.total_added,
            "live": self._live_count,
            "removed": self.total_added - self._live_count,
        }

    def __len__(self) -> int:
        return self._live_count

    def __iter__(self) -> Iterator[Punctuation]:
        for _pid, punct in self.items():
            yield punct

    def __repr__(self) -> str:
        return (
            f"PunctuationStore(join_field={self.join_field!r}, "
            f"live={self._live_count}, total={self.total_added})"
        )
