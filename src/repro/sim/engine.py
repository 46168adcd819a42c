"""The discrete-event simulation engine.

A minimal, fast event loop: callbacks are scheduled at virtual times and
executed in time order (FIFO among equal times).  All components of a
query plan — stream sources, operators, the metrics sampler — share one
engine, so a whole experiment is a single deterministic event trace.

Virtual time is measured in **milliseconds** as a float; the paper's
tuple inter-arrival mean of 2 ms and its per-operation CPU costs (sub-
millisecond) both fit naturally.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[[], None]


class SimulationEngine:
    """A virtual-time event loop.

    Events are ``(time, seq, callback)`` triples in a binary heap; *seq*
    is a monotonically increasing tie-breaker so events scheduled first
    run first at equal times — this makes traces fully deterministic.
    Producers keep at most one event each in the heap: a source chains
    its next arrival, an operator its one completion, and a batch from
    :meth:`schedule_many` its next event.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> engine.schedule(5.0, lambda: fired.append(engine.now))
    >>> engine.schedule(2.0, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [2.0, 5.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callback]] = []
        self._seq = 0
        # Events of lazy runs not yet in the heap (see schedule_many).
        self._deferred = 0
        self._running = False
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callback) -> None:
        """Run *callback* after *delay* virtual milliseconds.

        Inlines :meth:`schedule_at` — this is the hottest scheduling
        call (every operator completion goes through it), and a
        non-negative delay from ``now`` can never land in the past.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))
        self._seq += 1

    def schedule_at(self, time: float, callback: Callback) -> None:
        """Run *callback* at absolute virtual time *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def schedule_many(self, events: Iterable[Tuple[float, Callback]]) -> int:
        """Schedule many ``(time, callback)`` pairs in one batch.

        Equivalent to calling :meth:`schedule_at` for each pair in
        iteration order: the batch reserves one tie-breaking sequence
        number per pair, in that order, so every event keeps the
        ``(time, seq)`` key sequential scheduling would give it and the
        execution order is *identical*.  The batch is then held as a
        lazy run (see :class:`_Run`): only its next event sits in the
        heap, so a long batch (a metrics sampler's whole horizon, a
        disorder buffer's end-of-stream flush) does not deepen every
        other push and pop.

        Atomic: if any event is in the past, nothing is scheduled.
        Returns the number of events scheduled.
        """
        now = self.now
        seq = self._seq
        added: List[Tuple[float, int, Callback]] = []
        for time, callback in events:
            if time < now:
                raise SimulationError(
                    f"cannot schedule event at {time} before current time {now}"
                )
            added.append((time, seq, callback))
            seq += 1
        if not added:
            return 0
        self._seq = seq
        # Keys are unique, so sorting never compares callbacks; a batch
        # already in time order (every caller's) sorts in one pass.
        added.sort()
        _Run(self, added)
        return len(added)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event; return ``False`` when none remain."""
        if not self._heap:
            return False
        time, _seq, callback = heapq.heappop(self._heap)
        self.now = time
        self.events_executed += 1
        callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event heap.

        Parameters
        ----------
        until:
            Stop once the next event would be later than this virtual
            time (the clock is advanced to ``until``).  ``None`` runs to
            exhaustion.
        max_events:
            Safety valve for tests: raise :class:`SimulationError` if
            more than this many events execute.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            if until is None and max_events is None:
                # Hot path: run to exhaustion with no per-event bound
                # checks.  The executed counter is folded into
                # events_executed in the finally block; nothing reads it
                # mid-run.
                while heap:
                    time, _seq, callback = pop(heap)
                    self.now = time
                    executed += 1
                    callback()
                return
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
                time, _seq, callback = pop(heap)
                self.now = time
                executed += 1
                callback()
                if max_events is not None and executed > max_events:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}; "
                        "likely a scheduling loop"
                    )
            if until is not None and until > self.now:
                self.now = until
        finally:
            self.events_executed += executed
            self._running = False

    @property
    def pending_events(self) -> int:
        """Number of events not yet executed, lazy runs' included."""
        return len(self._heap) + self._deferred

    def __repr__(self) -> str:
        return (
            f"SimulationEngine(now={self.now:g}, pending={self.pending_events}, "
            f"executed={self.events_executed})"
        )


class _Run:
    """The rest of one :meth:`SimulationEngine.schedule_many` batch.

    *events* are the batch's ``(time, seq, callback)`` triples sorted by
    key, each seq reserved when the batch was scheduled.  Only the next
    one is in the heap, under its own key with :meth:`_fire` as the
    callback; firing it pushes its successor before running its own
    callback.  Every later event of the run has a larger key than the
    one in the heap, so the heap still pops every event at its own key.
    An event leaves the run when it enters the heap, so a run holds
    only what the heap has not reached yet.
    """

    __slots__ = ("_engine", "_events", "_callback")

    def __init__(
        self, engine: SimulationEngine, events: List[Tuple[float, int, Callback]]
    ) -> None:
        events.reverse()  # the next event last, where pop() takes it
        self._engine = engine
        self._events = events
        engine._deferred += len(events)
        self._push()

    def _push(self) -> None:
        time, seq, self._callback = self._events.pop()
        heapq.heappush(self._engine._heap, (time, seq, self._fire))
        self._engine._deferred -= 1

    def _fire(self) -> None:
        callback = self._callback
        if self._events:
            self._push()
        callback()
