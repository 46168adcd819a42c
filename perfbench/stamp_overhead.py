"""Measure what block stamping costs, against the run-to-run spread.

Run from the repository root::

    python3 perfbench/stamp_overhead.py --workload paper_pjoin

Two measurements, both printed:

* the stamp wrapper's own cost per handled item (a tight loop of calls
  through the wrapper against direct calls), times the items one run
  handles, as a share of one run's median wall time;
* alternating runs of the workload's first input with and without the
  wrapper in one process, with the quartile spread of each side.

Stamping is cheap enough when its share is well below the run-to-run
spread of ``tuples_per_s``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Alternating stamped/plain runs of the first input of benchmark seed 1.
PAIRS = 20
SEED = 1


def per_call_ns(stamper: object, calls: int) -> float:
    """Extra ns per handled item that the stamp wrapper adds."""
    from repro.tuples.tuple import Tuple

    def handle(item: object, port: int) -> float:
        return 0.0

    stamped = stamper._stamped(handle, [stamper.every])  # type: ignore[attr-defined]
    item = Tuple.__new__(Tuple)
    best = {}
    for name, fn in (("direct", handle), ("stamped", stamped)):
        samples = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn(item, 0)
            samples.append((time.perf_counter_ns() - start) / calls)
        best[name] = min(samples)
    return best["stamped"] - best["direct"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper_pjoin")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.child import Stamper
    from perfbench.oracle import input_identity
    from perfbench.run import input_seed, quartile_spread
    from perfbench.workloads import WORKLOADS
    from repro.punctuations.punctuation import Punctuation
    from repro.tuples.tuple import Tuple

    workload = WORKLOADS[args.workload]
    data = workload.generate(input_seed(SEED, 0))
    counted = frozenset((Tuple, Punctuation))
    walls = {"stamped": [], "plain": []}
    handled = 0
    for pair in range(PAIRS):
        order = ("stamped", "plain") if pair % 2 == 0 else ("plain", "stamped")
        for side in order:
            stamper = Stamper(workload.stamp_every, counted)
            hook = stamper.hook if side == "stamped" else (lambda f: f)
            gc.collect()
            start = time.perf_counter()
            workload.run(data, hook)
            walls[side].append(time.perf_counter() - start)
            if side == "stamped":
                handled = len(stamper.stamps) * workload.stamp_every
    plain = statistics.median(walls["plain"])
    stamped = statistics.median(walls["stamped"])
    extra_ns = per_call_ns(Stamper(workload.stamp_every, counted), 200_000)
    items = input_identity(data)["items"]
    print(f"workload {args.workload}: {items} input items, {handled} handled items stamped")
    print(f"wrapper cost {extra_ns:.0f} ns per handled item = "
          f"{extra_ns * handled / 1e9 / plain * 100:.2f} % of a {plain * 1000:.1f} ms run")
    print(f"{PAIRS} alternating pairs: median stamped {stamped * 1000:.1f} ms "
          f"(spread {quartile_spread(walls['stamped']) * 100:.1f} %), plain "
          f"{plain * 1000:.1f} ms (spread {quartile_spread(walls['plain']) * 100:.1f} %), "
          f"difference {(stamped - plain) / plain * 100:+.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
