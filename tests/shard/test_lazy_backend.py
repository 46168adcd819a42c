"""The multiprocess backend loads on first use of its names.

An in-simulator sharded run must not import :mod:`multiprocessing`
(with it ``pickle``, ``socket`` and ``signal``): the import sits inside
the first run call and costs milliseconds and a megabyte there.  A
fresh process is the only place where ``sys.modules`` shows that.
"""

import os
import subprocess
import sys

import repro

CHILD = """
import sys
from repro.core.config import PJoinConfig
from repro.experiments.harness import pjoin_factory, run_join_experiment, run_options
from repro.skew.manager import SkewSpec
from repro.workloads.generator import generate_workload

workload = generate_workload(
    n_tuples_per_stream=300, punct_spacing_a=10, punct_spacing_b=10,
    active_values=24, zipf_exponent=1.4, seed=5,
)
skew = SkewSpec(hot_keys=True, hot_key_share=0.02, min_split_occupancy=8)
with run_options(shards=2, skew=skew):
    run = run_join_experiment(
        pjoin_factory(PJoinConfig(purge_threshold=10)), workload
    )
assert len(run.join.shards) == 2
assert run.join.router.counters()["hot_activations"] > 0
print(",".join(m for m in ("multiprocessing", "repro.shard.backend")
               if m in sys.modules) or "none")

# Every exported name still resolves; the backend's to its own objects.
import repro.shard as shard
from repro.shard import backend

for name in shard.__all__:
    value = getattr(shard, name)
    if name in BACKEND_NAMES:
        assert value is getattr(backend, name), name
print("resolved")
"""

BACKEND_NAMES = (
    "ShardedRunOutcome",
    "ShardPlan",
    "ShardWorkerPool",
    "fork_available",
    "run_sharded",
    "warm_pool",
)


def test_in_simulator_sharded_run_leaves_the_backend_unloaded():
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    snippet = f"BACKEND_NAMES = {BACKEND_NAMES!r}\n{CHILD}"
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=package_root),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["none", "resolved"]
