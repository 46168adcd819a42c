"""Stream sources: replay a generated schedule into an operator.

A schedule is a sequence of ``(virtual_time, item)`` pairs with
non-decreasing times, where items are tuples or punctuations (already
timestamped by the workload generator).  The source walks the schedule
with chained engine events — one pending event at a time — so even very
long streams do not bloat the event heap.

Resilience hooks
----------------
A source can be given a **disorder slack**: items are then routed
through a :class:`~repro.resilience.disorder.DisorderBuffer` that holds
them for up to ``disorder_slack_ms`` of virtual time and re-sequences
them by item timestamp, repairing bounded delivery disorder before the
operator ever sees it.  The source also tracks
:attr:`~StreamSource.last_emit_time` and
:attr:`~StreamSource.exhausted` so a
:class:`~repro.resilience.watchdog.StallWatchdog` can detect silence.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple as PyTuple

from repro.errors import OperatorError, SimulationError
from repro.operators.base import Operator
from repro.resilience.disorder import DisorderBuffer
from repro.sim.engine import SimulationEngine
from repro.tuples.item import END_OF_STREAM


class StreamSource:
    """Feeds one input port of an operator from a schedule.

    Parameters
    ----------
    engine:
        The shared simulation engine.
    schedule:
        Iterable of ``(time, item)`` pairs, times non-decreasing.
    name:
        Label used in error messages and metrics.
    disorder_slack_ms:
        When set, deliver through a disorder buffer with this much
        virtual-time slack (see :mod:`repro.resilience.disorder`);
        ``None`` (the default) delivers in schedule order, unchanged.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        schedule: Iterable[PyTuple[float, Any]],
        name: str = "source",
        disorder_slack_ms: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self._iter: Iterator[PyTuple[float, Any]] = iter(schedule)
        self._target: Optional[Operator] = None
        self._port = 0
        self._last_time = 0.0
        self._started = False
        # The item of the pending arrival waits here, so every arrival
        # schedules the same cached bound method and allocates nothing.
        self._next_item: Any = None
        self._arrive = self._send
        self.items_sent = 0
        self.disorder_buffer = (
            DisorderBuffer(disorder_slack_ms)
            if disorder_slack_ms is not None
            else None
        )
        # Watchdog hooks: when this source last delivered anything, and
        # whether it has run out of schedule (sent end-of-stream).
        self.last_emit_time = 0.0
        self.exhausted = False

    def connect(self, operator: Operator, port: int = 0) -> Operator:
        """Deliver this source's items to *operator*'s input *port*."""
        if self._target is not None:
            raise OperatorError(f"source {self.name} is already connected")
        self._target = operator
        self._port = port
        return operator

    def start(self) -> None:
        """Begin replay.  Must be called once, before ``engine.run()``."""
        if self._started:
            raise SimulationError(f"source {self.name} was already started")
        if self._target is None:
            raise OperatorError(f"source {self.name} is not connected to an operator")
        self._started = True
        self._schedule_next()

    def _schedule_next(self) -> None:
        """Schedule the next item's arrival, or end-of-stream after the last.

        Called when the previous arrival fires, after its delivery, so
        the arrival's tie-breaking sequence number follows every event
        that delivery scheduled.
        """
        try:
            time, item = next(self._iter)
        except StopIteration:
            self.engine.schedule_at(
                max(self._last_time, self.engine.now), self._send_eos
            )
            return
        if time < self._last_time:
            raise SimulationError(
                f"source {self.name}: schedule time {time} decreases "
                f"(previous {self._last_time})"
            )
        self._last_time = time
        self._next_item = item
        now = self.engine.now
        self.engine.schedule_at(now if now > time else time, self._arrive)

    def _emit(self, item: Any) -> None:
        assert self._target is not None
        if self.disorder_buffer is None:
            self._deliver(item)
        else:
            for ready in self.disorder_buffer.push(item, self.engine.now):
                self._deliver(ready)

    def _send(self) -> None:
        """The pending arrival: deliver its item, then chain the next."""
        self._emit(self._next_item)
        self._schedule_next()

    def _deliver(self, item: Any) -> None:
        assert self._target is not None
        self._target.push(item, self._port)
        self.items_sent += 1
        self.last_emit_time = self.engine.now

    def _send_eos(self) -> None:
        assert self._target is not None
        if self.disorder_buffer is not None:
            ready = self.disorder_buffer.flush()
            if ready:
                # The whole backlog, then the end-of-stream marker, as
                # one lazy run: delivery order is identical to
                # sequential scheduling.
                now = self.engine.now
                events = [
                    (now, lambda item=item: self._deliver(item)) for item in ready
                ]
                events.append((now, self._push_eos))
                self.engine.schedule_many(events)
                return
        self._push_eos()

    def _push_eos(self) -> None:
        assert self._target is not None
        self.exhausted = True
        self.last_emit_time = self.engine.now
        self._target.push(END_OF_STREAM, self._port)

    def counters(self) -> dict:
        """Uniform counter snapshot (see :mod:`repro.obs.counters`)."""
        out = {"items_sent": self.items_sent}
        if self.disorder_buffer is not None:
            for key, value in self.disorder_buffer.counters().items():
                out[f"disorder.{key}"] = value
        return out

    def __repr__(self) -> str:
        return f"StreamSource({self.name!r}, sent={self.items_sent})"
