"""The single-server operator execution model.

Every operator processes one item at a time on the shared virtual
clock.  Upstreams deliver items with :meth:`Operator.push`; items queue
in arrival order while the operator is busy; handling an item charges
virtual time (returned by the subclass's :meth:`Operator.handle`), and
anything the handler emitted is delivered downstream at the completion
time.  This is the mechanism that turns growing per-item costs into a
falling output *rate* — the saturation effect behind the paper's
Figure 7.

Subclass contract
-----------------
Implement :meth:`handle` (and optionally :meth:`on_idle` /
:meth:`on_finish`).  Inside a handler, call :meth:`emit` to queue
output items; return the virtual cost of the work.  An outbox holds
tuples, punctuations and :class:`~repro.tuples.batch.ResultBatch`
objects (a join's results, one batch per probe); delivery expands a
batch into tuples for a downstream fed item by item.  ``on_idle`` is
called whenever the operator runs out of queued input — PJoin and XJoin
use it to schedule their reactive disk-join stage.  ``on_finish`` is
called once, after end-of-stream has arrived on every port and the
queue has drained; the base class emits the end-of-stream marker
downstream afterwards.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple as PyTuple

from repro.errors import OperatorError
from repro.punctuations.punctuation import Punctuation
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.tuples.batch import ResultBatch
from repro.tuples.item import END_OF_STREAM
from repro.tuples.tuple import Tuple


class Operator:
    """Base class: a single-server operator with N input ports."""

    #: Zero-cost operators that take a whole outbox in one call (the
    #: sink, the shard merger) set this and implement :meth:`accept_batch`;
    #: ``_deliver`` then skips the per-item push/queue/pump cycle, and
    #: hands result batches over unexpanded, while keeping every counter
    #: and timestamp byte-identical to per-item delivery.
    _accepts_batches = False

    def __init__(
        self,
        engine: SimulationEngine,
        cost_model: CostModel,
        n_inputs: int = 1,
        name: str = "",
    ) -> None:
        if n_inputs < 1:
            raise OperatorError("an operator needs at least one input port")
        self.engine = engine
        self.cost_model = cost_model
        self.n_inputs = n_inputs
        self.name = name or type(self).__name__
        self._queue: Deque[PyTuple[Any, int]] = deque()
        self._eos_seen = [False] * n_inputs
        self._finished = False
        self._busy = False
        self._outbox: List[Any] = []
        # The one completion in flight (``_busy`` guards it): its outbox,
        # whether it ends the stream, and its cached event.
        self._inflight: List[Any] = []
        self._inflight_final = False
        self._complete_event = self._complete
        self._downstream: Optional["Operator"] = None
        self._downstream_port = 0
        # --- metrics ----------------------------------------------------
        self.items_processed = 0
        self.tuples_in = 0
        self.punctuations_in = 0
        self.tuples_out = 0
        self.punctuations_out = 0
        self.busy_time = 0.0
        self.max_queue_length = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def connect(self, downstream: "Operator", port: int = 0) -> "Operator":
        """Send this operator's output to *downstream*'s input *port*.

        Returns *downstream* so plans can be built as chains.
        """
        if self._downstream is not None:
            raise OperatorError(f"{self.name} is already connected downstream")
        if not 0 <= port < downstream.n_inputs:
            raise OperatorError(
                f"{downstream.name} has no input port {port} "
                f"(it has {downstream.n_inputs})"
            )
        self._downstream = downstream
        self._downstream_port = port
        return downstream

    # ------------------------------------------------------------------
    # Input side
    # ------------------------------------------------------------------

    def push(self, item: Any, port: int = 0) -> None:
        """Deliver *item* to input *port* at the current virtual time."""
        if self._finished:
            raise OperatorError(f"{self.name} already finished; late item {item!r}")
        if not 0 <= port < self.n_inputs:
            raise OperatorError(f"{self.name} has no input port {port}")
        queue = self._queue
        queue.append((item, port))
        if len(queue) > self.max_queue_length:
            self.max_queue_length = len(queue)
        if not self._busy:
            self._pump()

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Processing loop
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """Process queued items until a non-zero cost blocks or queue drains.

        Zero-cost items are handled iteratively (not recursively) so
        bursts of thousands of emissions into a cheap operator cannot
        overflow the Python stack.
        """
        queue = self._queue
        while queue and not self._busy:
            item, port = queue.popleft()
            if item is END_OF_STREAM:
                self._eos_seen[port] = True
                if all(self._eos_seen):
                    cost = self.on_finish()
                    self._finished = True
                    self._complete_after(cost, True)
                else:
                    self._complete_after(0.0, False)
                continue
            cls = item.__class__
            if cls is Tuple or isinstance(item, Tuple):
                self.tuples_in += 1
            elif cls is Punctuation or isinstance(item, Punctuation):
                self.punctuations_in += 1
            cost = self.handle(item, port)
            self.items_processed += 1
            if cost == 0.0 and not self._outbox:
                continue  # nothing to charge, nothing to deliver
            self._complete_after(cost, False)
        if not queue and not self._busy and not self._finished:
            self.on_idle()

    def _complete_after(self, cost: float, final: bool) -> None:
        """Deliver the outbox after *cost* virtual ms (now, if zero)."""
        if cost == 0.0:
            outbox = self._outbox
            if outbox:
                self._outbox = []
                self._deliver(outbox)
            if final and self._downstream is not None:
                self._downstream.push(END_OF_STREAM, self._downstream_port)
            return
        if cost < 0:
            raise OperatorError(f"{self.name} computed a negative cost {cost!r}")
        self.busy_time += cost
        self._inflight = self._outbox
        self._inflight_final = final
        self._outbox = []
        self._busy = True
        self.engine.schedule(cost, self._complete_event)

    def _complete(self) -> None:
        """The in-flight completion: deliver its outbox, then pump."""
        self._busy = False
        self._finish_item(self._inflight, self._inflight_final)
        if not self._busy:
            self._pump()

    def _finish_item(self, outbox: List[Any], final: bool) -> None:
        """Deliver one item's emissions (and end-of-stream if *final*)."""
        self._deliver(outbox)
        if final and self._downstream is not None:
            self._downstream.push(END_OF_STREAM, self._downstream_port)

    def _deliver(self, outbox: List[Any]) -> None:
        """Hand emitted items downstream, stamped with the current time."""
        now = self.engine.now
        downstream = self._downstream
        port = self._downstream_port
        if (
            outbox
            and downstream is not None
            and downstream._accepts_batches
            and not downstream._busy
            and not downstream._queue
            and not downstream._finished
        ):
            n_tuples, n_puncts = downstream.accept_batch(outbox, now, port)
            self.tuples_out += n_tuples
            self.punctuations_out += n_puncts
            return
        tuples_out = 0
        for item in outbox:
            cls = item.__class__
            if cls is ResultBatch:
                # An operator fed item by item gets the batch's results
                # as tuples; with no downstream they are only counted.
                tuples_out += item.count
                if downstream is not None:
                    for tup in item.tuples(now):
                        downstream.push(tup, port)
                continue
            if cls is Tuple or isinstance(item, Tuple):
                tuples_out += 1
                if item.ts != now:
                    item = item.with_ts(now)
            elif cls is Punctuation or isinstance(item, Punctuation):
                self.punctuations_out += 1
                if item.ts != now:
                    item = item.with_ts(now)
            if downstream is not None:
                downstream.push(item, port)
        if tuples_out:
            self.tuples_out += tuples_out

    def run_background_task(self, cost: float, description: str = "") -> None:
        """Occupy the operator with non-item work for *cost* virtual ms.

        Used for reactive stages (disk join) started from :meth:`on_idle`.
        Emissions queued during the task are delivered at completion,
        like for a normal item.  Must only be called while idle.
        """
        if self._busy:
            raise OperatorError(
                f"{self.name} cannot start background task {description!r} while busy"
            )
        self._complete_after(cost, final=False)

    # ------------------------------------------------------------------
    # Output side (used by subclasses inside handle()/on_finish())
    # ------------------------------------------------------------------

    def emit(self, item: Any) -> None:
        """Queue *item* for delivery downstream at completion time."""
        self._outbox.append(item)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def handle(self, item: Any, port: int) -> float:
        """Process one input item; return its virtual cost (ms)."""
        raise NotImplementedError

    def accept_batch(
        self, items: List[Any], now: float, port: int
    ) -> PyTuple[int, int]:
        """Take a whole upstream outbox on *port* at *now*; return (tuples, puncts).

        Only called when :attr:`_accepts_batches` is set.  Must update
        the same counters the per-item path would, counting each result
        of a :class:`~repro.tuples.batch.ResultBatch` as one tuple.
        """
        raise NotImplementedError

    def on_idle(self) -> None:
        """Called when the input queue drains.  Default: do nothing."""

    def on_finish(self) -> float:
        """Called once after end-of-stream on all ports; return cost."""
        return 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def counters(self) -> dict:
        """Flat ``{name: number}`` snapshot of this operator's counters.

        Every operator exposes this uniform registry; subclasses extend
        it with their own counters (probes, purges, disk I/O, ...).
        The observability layer folds these snapshots into the run
        manifest — see :mod:`repro.obs.manifest`.
        """
        return {
            "items_processed": self.items_processed,
            "tuples_in": self.tuples_in,
            "punctuations_in": self.punctuations_in,
            "tuples_out": self.tuples_out,
            "punctuations_out": self.punctuations_out,
            "busy_time_ms": self.busy_time,
            "max_queue_length": self.max_queue_length,
        }

    def utilisation(self) -> float:
        """Fraction of elapsed virtual time this operator was busy."""
        if self.engine.now == 0:
            return 0.0
        return min(1.0, self.busy_time / self.engine.now)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
