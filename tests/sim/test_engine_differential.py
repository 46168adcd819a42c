"""The engine against a reference that schedules every batch eagerly.

:class:`ReferenceEngine` is the event loop as it was before
``schedule_many`` held batches as lazy runs: every event of a batch
goes into the heap at once.  Hypothesis draws programs of
``schedule``, ``schedule_at`` and ``schedule_many`` calls (sorted,
unsorted, empty and all-at-``now`` batches), made up front and from
inside callbacks, and drives both engines through the same ``run``
(with and without ``until``) and ``step`` segments.  After every
segment both must have executed the same ``(now, label)`` sequence,
and agree on ``events_executed``, ``pending_events`` and the clock.
Integer times make exact ties the common case.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine


class ReferenceEngine:
    """The eager event loop: one heap entry per scheduled event."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.events_executed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def schedule_many(self, events) -> int:
        events = list(events)
        for time, callback in events:
            self.schedule_at(time, callback)
        return len(events)

    def step(self) -> bool:
        if not self._heap:
            return False
        self.now, _seq, callback = heapq.heappop(self._heap)
        self.events_executed += 1
        callback()
        return True

    def run(self, until: Optional[float] = None) -> None:
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return
            self.step()
        if until is not None and until > self.now:
            self.now = until

    @property
    def pending_events(self) -> int:
        return len(self._heap)


# A program is a tuple of calls; a call schedules events, and each
# event carries the calls its callback makes when it fires.
def _calls(children):
    event = st.tuples(st.integers(0, 4), children)
    batch = st.one_of(
        st.lists(event, max_size=5),
        st.lists(event, max_size=5).map(lambda es: sorted(es, key=lambda e: e[0])),
        st.just([]),
        st.lists(event.map(lambda e: (0, e[1])), min_size=1, max_size=4),
    )
    call = st.one_of(
        st.tuples(st.just("at"), event),
        st.tuples(st.just("delay"), event),
        st.tuples(st.just("many"), batch),
    )
    return st.lists(call, max_size=3).map(tuple)


PROGRAMS = st.recursive(st.just(()), _calls, max_leaves=24)
SEGMENTS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(0, 12)),
        st.tuples(st.just("step"), st.none()),
    ),
    max_size=6,
)


def _install(engine, calls, log, path: str) -> None:
    """Make *calls* on *engine*; every event logs ``(now, label)``."""
    for index, (kind, arg) in enumerate(calls):
        label = f"{path}.{index}"
        if kind == "at":
            delay, children = arg
            engine.schedule_at(engine.now + delay, _fire(engine, label, children, log))
        elif kind == "delay":
            delay, children = arg
            engine.schedule(delay, _fire(engine, label, children, log))
        else:
            engine.schedule_many([
                (engine.now + delay, _fire(engine, f"{label}.{j}", children, log))
                for j, (delay, children) in enumerate(arg)
            ])


def _fire(engine, label, children, log):
    def callback() -> None:
        log.append((engine.now, label))
        _install(engine, children, log, label)

    return callback


def _observed(engine, log):
    return list(log), engine.events_executed, engine.pending_events, engine.now


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS, segments=SEGMENTS)
def test_same_order_counts_and_pending_as_eager_scheduling(program, segments):
    engines = {"lazy": SimulationEngine(), "eager": ReferenceEngine()}
    logs = {name: [] for name in engines}
    for name, engine in engines.items():
        _install(engine, program, logs[name], "top")
    assert engines["lazy"].pending_events == engines["eager"].pending_events
    for kind, offset in [*segments, ("run", None)]:
        for engine in engines.values():
            if kind == "step":
                engine.step()
            elif offset is None:
                engine.run()
            else:
                engine.run(until=engine.now + offset)
        lazy, eager = (_observed(engines[n], logs[n]) for n in ("lazy", "eager"))
        assert lazy == eager
    assert engines["lazy"].pending_events == 0
