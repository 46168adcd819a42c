"""The repository's benchmark: four seeded workloads of punctuated joins.

Run from the repository root::

    python3 perfbench/run.py --workload paper_pjoin --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --report r.json

Each workload run is one fresh single-threaded process (``child.py``):
set-up (import and input generation), one run call, checks.  A
benchmark run derives a fixed number of input seeds from ``--seed`` and
cycles over them until ``--seconds`` have passed, so seed-to-seed
variation of the input averages out within one benchmark run.

Times are reported in reference seconds.  On a shared 2-vCPU VM other
tenants change the machine's speed by up to 1.7x from one fraction of
a second to the next, and everything the program does slows with it.
Each workload run therefore also times a fixed calibration job (the
benchmark's own code, ``child.calibration_job``) just before set-up and
just after the run call, and its wall times are scaled by
REFERENCE_CALIBRATION_S over that calibration time.  Unscaled figures
stay in the report.

The workloads and the metrics with their units are read from
``BENCHMARK.json``.

With ``--trace 0`` the last line of standard output is the JSON result
with every end-to-end metric; with ``--trace 1`` one more, traced run
of the first input follows and the result holds every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
# Inputs per benchmark run.  The mean state of paper_pjoin and
# zipf_shards varies by about 0.2 (coefficient of variation) from one
# input to the next, so they average 64 inputs; that of xjoin_budget and
# nary_drift by 0.03 or less, and 32 inputs, whose runs take longer,
# keep a benchmark run near --seconds.
INPUTS_PER_RUN = {"paper_pjoin": 64, "xjoin_budget": 32, "zipf_shards": 64, "nary_drift": 32}
# How long child.calibration_job takes on the reference machine, a
# 2-vCPU VM at 2.1 GHz with Python 3.11 (a typical value: its benchmark
# runs measure medians of 3.4 to 5.5 ms).
REFERENCE_CALIBRATION_S = 0.0042
# A workload run takes about a second (a traced one up to ten); these
# limits keep a hung or crawling program within the three minutes a
# benchmark run may take.
HARD_LIMIT_S = 110.0
CHILD_TIMEOUT_S = 30.0

# Fields every repeat of one input must reproduce exactly.
DETERMINISTIC = ("digest", "results", "events", "state_mean_tuples",
                 "virtual_duration_ms")


def spec() -> Dict[str, Any]:
    """BENCHMARK.json: the workloads, and every metric with its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in order."""
    return {m["name"]: m["unit"] for m in spec()[section]}


def input_seed(seed: int, index: int) -> int:
    """The seed of the *index*-th input of a benchmark run."""
    return seed * 1000 + index


def run_child(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    """One workload run in a fresh process; a crash is a failed run.

    The process caches bytecode under .perfbench-out, even where
    PYTHONDONTWRITEBYTECODE is set, so that set-up measures importing
    the program as an installed copy would, not compiling it each time.
    """
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(ROOT / ".perfbench-out" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed,
                "failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return {"workload": workload, "seed": seed,
            "failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}


def reference_scale(record: Dict[str, Any]) -> float:
    """Factor from one workload run's wall times to reference seconds."""
    return REFERENCE_CALIBRATION_S / record["calibration_s"]


def midmean(values: List[float]) -> float:
    """Mean of the middle half: robust to a few extreme inputs, but
    steadier than the median on well-behaved ones."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / med if med else 0.0


def measure(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Cycle over the run's inputs until *seconds* pass; aggregate.

    Every input runs at least once, and the first one twice, so that its
    deterministic fields are seen to repeat; after that the benchmark
    run stops as soon as *seconds* have passed.  Past HARD_LIMIT_S it
    stops in any case, so a program too slow to finish a cycle still
    gets a result.
    """
    seeds = [input_seed(seed, i) for i in range(INPUTS_PER_RUN[workload])]
    records: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if elapsed > HARD_LIMIT_S or (len(records) > len(seeds) and elapsed >= seconds):
            break
        records.append(run_child(workload, seeds[len(records) % len(seeds)], traced=False))
    return aggregate(workload, seed, seeds, records)


def aggregate(workload: str, seed: int, seeds: List[int],
              records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics over the runs of one benchmark run.

    Each input's value is the median over its repeats (tuples/s is the
    input's tuples over its median time).  The timing metrics, in
    reference seconds, report the mid-mean over the inputs, which trims
    runs the machine slowed down; the deterministic ones the plain mean,
    which varies least from seed to seed.  Set-up and peak RSS are
    medians over every run.  The deterministic fields must repeat
    exactly per input.
    """
    first: Dict[int, Dict[str, Any]] = {}
    for record in records:
        if record.get("failures"):
            continue
        reference = first.setdefault(record["seed"], record)
        for key in DETERMINISTIC:
            if record[key] != reference[key]:
                record["failures"] = [f"{key} did not repeat on seed {record['seed']}"]
    by_seed: Dict[int, List[Dict[str, Any]]] = {s: [] for s in seeds}
    for record in records:
        if not record.get("failures"):
            by_seed[record["seed"]].append(record)
    ok_seeds = [s for s in seeds if by_seed[s]]
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.get("failures")),
        "failures": sorted({f for r in records for f in r.get("failures", [])}),
        "runs": records,
    }
    if not ok_seeds:
        return result
    med = statistics.median
    ok_runs = [r for s in ok_seeds for r in by_seed[s]]

    def timings(scale: Callable[[Dict[str, Any]], float]) -> Dict[str, float]:
        def per_input(key: str) -> List[float]:
            return [med(r[key] * scale(r) for r in by_seed[s]) for s in ok_seeds]

        return {
            "tuples_per_s": midmean([
                by_seed[s][0]["tuples"] / wall
                for s, wall in zip(ok_seeds, per_input("wall_s"))]),
            "block_ms_p50": midmean(per_input("block_ms_p50")),
            "block_ms_p99": midmean(per_input("block_ms_p99")),
            "setup_s": med(r["setup_s"] * scale(r) for r in ok_runs),
        }

    def mean_over_inputs(key: str) -> float:
        return statistics.fmean(by_seed[s][0][key] for s in ok_seeds)

    result["metrics"] = {
        **timings(reference_scale),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in ok_runs),
        "state_mean_tuples": mean_over_inputs("state_mean_tuples"),
        "virtual_duration_ms": mean_over_inputs("virtual_duration_ms"),
    }
    result["unscaled"] = timings(lambda r: 1.0)
    result["calibration_s_median"] = med(r["calibration_s"] for r in ok_runs)
    result["inputs"] = [
        {key: by_seed[s][0][key] for key in (
            "seed", "digest", "tuples", "punctuations", "items", "results",
            "events", "state_mean_tuples", "virtual_duration_ms", "blocks")}
        | {"repeats": len(by_seed[s]),
           "wall_s_median": med(r["wall_s"] for r in by_seed[s]),
           "wall_s_spread": quartile_spread([r["wall_s"] for r in by_seed[s]])}
        for s in ok_seeds
    ]
    return result


def trace(workload: str, result: Dict[str, Any]) -> None:
    """One traced run of the first input; adds per-layer metrics."""
    add_trace(result, run_child(workload, input_seed(result["seed"], 0), traced=True))


def add_trace(result: Dict[str, Any], record: Dict[str, Any]) -> None:
    """Fold a traced run into *result*; overhead is against untraced runs."""
    first = record["seed"]
    result["attempted"] += 1
    if record.get("failures"):
        result["failed"] += 1
        result["failures"] = sorted(set(result["failures"]) | set(record["failures"]))
    result["traced"] = record
    if "metrics" not in record:
        return
    walls = [r["wall_s"] * reference_scale(r) for r in result["runs"]
             if r.get("seed") == first and not r.get("failures")]
    scale = reference_scale(record)
    units = metric_units("per_layer")
    layer = {name: value * scale if units.get(name) == "ms" else value
             for name, value in record["metrics"].items()}
    untraced_ms = statistics.median(walls) * 1000.0 if walls else 0.0
    layer["trace.overhead_pct"] = (
        (layer["experiments.run.ms"] - untraced_ms) / untraced_ms * 100.0
        if untraced_ms else 0.0
    )
    result["layer_metrics"] = layer


def contract_line(result: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """The benchmark's last output line for one workload."""
    if traced:
        units = metric_units("per_layer")
        values = result.get("layer_metrics", {})
    else:
        units = metric_units("end_to_end")
        values = result.get("metrics", {})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_summary(result: Dict[str, Any], traced: bool) -> None:
    name = result["workload"]
    print(f"== {name}: {result['attempted']} runs attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"   FAILED: {failure.splitlines()[-1] if failure else failure}")
    for inp in result.get("inputs", []):
        print(f"   input seed {inp['seed']}: digest {inp['digest']} "
              f"tuples {inp['tuples']} punctuations {inp['punctuations']} "
              f"results {inp['results']} events {inp['events']} "
              f"blocks {inp['blocks']} repeats {inp['repeats']}")
    for metric, unit in metric_units("end_to_end").items():
        if metric in result.get("metrics", {}):
            print(f"   {metric:<22} {result['metrics'][metric]:>14.4f} {unit}")
    if traced and "layer_metrics" in result:
        values = result["layer_metrics"]
        for metric, unit in metric_units("per_layer").items():
            print(f"   {metric:<30} {values[metric]:>14.4f} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    workloads = tuple(w["name"] for w in spec()["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the report (every input, the traced run) as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds)
        if args.trace:
            trace(name, result)
        print_summary(result, bool(args.trace))
        results.append(result)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        report = {
            "command": ["python3", "perfbench/run.py"] + (argv if argv is not None else sys.argv[1:]),
            "machine": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
            },
            "inputs_per_run": INPUTS_PER_RUN,
            "reference_calibration_s": REFERENCE_CALIBRATION_S,
            # Per-input medians and spreads stand for the single runs.
            "results": [{k: v for k, v in r.items() if k != "runs"} for r in results],
        }
        args.report.write_text(json.dumps(report, indent=1) + "\n")
    lines = [contract_line(r, bool(args.trace)) for r in results]
    if any(not line["metrics"] for line in lines):
        print("error: no run succeeded; no metrics to report", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": dict(zip(names, lines))}))
    else:
        print(json.dumps(lines[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
