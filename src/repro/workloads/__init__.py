"""Synthetic punctuated-stream workloads (the paper's benchmark system).

The paper built "a benchmark system to generate synthetic data streams
by controlling the arrival patterns and rates of the data and
punctuations".  This package reproduces it:

* :class:`~repro.workloads.spec.WorkloadSpec` /
  :class:`~repro.workloads.generator.PunctuatedStreamGenerator` — the
  generic many-to-many workload used by every figure: Poisson tuple
  inter-arrival (mean 2 ms), Poisson punctuation spacing measured in
  tuples/punctuation, per-stream asymmetric rates, seeded determinism;
* :mod:`~repro.workloads.auction` — the running example: an online
  auction's ``Open`` and ``Bid`` streams with per-item punctuations;
* :mod:`~repro.workloads.reference` — oracle results (full join, window
  join) computed directly from schedules, for tests and examples.
"""

from repro.workloads.spec import WorkloadSpec
from repro.workloads.generator import (
    GeneratedWorkload,
    PunctuatedStreamGenerator,
    generate_workload,
)
from repro.workloads.nary import (
    NaryGeneratedWorkload,
    NaryStreamGenerator,
    NaryWorkloadSpec,
    generate_nary_workload,
)
from repro.workloads.auction import AuctionSpec, AuctionWorkloadGenerator
from repro.workloads.sensors import SensorSpec, SensorWorkloadGenerator
from repro.workloads.bursty import make_bursty
from repro.workloads.faults import (
    InjectedViolation,
    delay_punctuations,
    drop_random_punctuations,
    inject_duplicates,
    inject_out_of_order,
    inject_punctuation_violation,
    inject_stall,
)
from repro.workloads.reference import (
    reference_join_multiset,
    reference_nway_join_multiset,
    reference_window_join_multiset,
)

__all__ = [
    "WorkloadSpec",
    "PunctuatedStreamGenerator",
    "GeneratedWorkload",
    "generate_workload",
    "NaryWorkloadSpec",
    "NaryStreamGenerator",
    "NaryGeneratedWorkload",
    "generate_nary_workload",
    "AuctionSpec",
    "AuctionWorkloadGenerator",
    "SensorSpec",
    "SensorWorkloadGenerator",
    "make_bursty",
    "InjectedViolation",
    "inject_punctuation_violation",
    "inject_duplicates",
    "inject_out_of_order",
    "inject_stall",
    "drop_random_punctuations",
    "delay_punctuations",
    "reference_join_multiset",
    "reference_nway_join_multiset",
    "reference_window_join_multiset",
]
