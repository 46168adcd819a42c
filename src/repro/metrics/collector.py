"""The metrics sampler.

Samples registered gauges at fixed virtual-time intervals on the shared
simulation engine.  Sample events are pre-scheduled over a known
horizon (workload end times are known up front), so the collector never
keeps an otherwise-finished simulation alive.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import SimulationError
from repro.metrics.series import TimeSeries
from repro.sim.engine import SimulationEngine

Gauge = Callable[[], float]


class MetricsCollector:
    """Periodic sampling of named gauges into :class:`TimeSeries`.

    Parameters
    ----------
    engine:
        The shared simulation engine.
    interval_ms:
        Virtual time between samples.
    """

    def __init__(self, engine: SimulationEngine, interval_ms: float = 100.0) -> None:
        if interval_ms <= 0:
            raise SimulationError(f"interval_ms must be positive, got {interval_ms}")
        self.engine = engine
        self.interval_ms = interval_ms
        self._gauges: Dict[str, Gauge] = {}
        self.series: Dict[str, TimeSeries] = {}
        self._started = False

    def register_gauge(self, name: str, gauge: Gauge) -> None:
        """Track ``gauge()`` under *name*; must precede :meth:`start`."""
        if self._started:
            raise SimulationError("cannot register gauges after start()")
        if name in self._gauges:
            raise SimulationError(f"gauge {name!r} is already registered")
        self._gauges[name] = gauge
        self.series[name] = TimeSeries(name=name)

    def start(self, horizon_ms: float) -> None:
        """Pre-schedule samples from now until *horizon_ms* (absolute)."""
        if self._started:
            raise SimulationError("collector already started")
        self._started = True
        sample = self._sample
        interval = self.interval_ms
        events = []
        time = self.engine.now
        while time <= horizon_ms:
            events.append((time, sample))
            time += interval
        # One batch: the engine reserves the tie-breaker sequence
        # numbers in list order, so execution order is identical to a
        # schedule_at() loop, and keeps only the next sample in its heap.
        self.engine.schedule_many(events)

    def _sample(self) -> None:
        now = self.engine.now
        for name, gauge in self._gauges.items():
            self.series[name].append(now, float(gauge()))

    def __getitem__(self, name: str) -> TimeSeries:
        return self.series[name]

    def __repr__(self) -> str:
        return (
            f"MetricsCollector(interval={self.interval_ms:g}ms, "
            f"gauges={sorted(self._gauges)})"
        )
