"""Discrete-event simulation substrate.

The paper evaluates PJoin on wall-clock time in a Java engine.  This
reproduction instead drives every operator from a deterministic
discrete-event :class:`~repro.sim.engine.SimulationEngine` with a
virtual clock (milliseconds), and charges operator work through an
explicit :class:`~repro.sim.costs.CostModel`.  That preserves the
feedback loop the paper's results depend on — state size drives probe
cost drives output rate — while making every experiment deterministic
and independent of Python interpreter speed.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.arrivals import PoissonProcess, FixedIntervalProcess, ArrivalProcess
from repro.sim.costs import CostModel

__all__ = [
    "SimulationEngine",
    "ArrivalProcess",
    "PoissonProcess",
    "FixedIntervalProcess",
    "CostModel",
]
