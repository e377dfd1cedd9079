"""Repeat the benchmark over seeds and record how much each metric spreads.

    python3 perfbench/steadiness.py [--seeds 10] [--workload NAME ...] [--out FILE]

For each workload, runs the ``BENCHMARK.json`` command once per seed with
``--trace 0`` and reports, per end-to-end metric, the distance between the
first and third quartile of its values as a share of their median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound.  It
then makes two traced runs with one seed and checks that every count metric
repeats exactly.  The result is written as JSON to ``--out``, or printed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seeds = list(range(1, args.seeds + 1))
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds,
              "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version()},
              "workloads": {}}
    ok = True
    for workload in args.workload or names:
        runs = [run_once(spec, workload, seed, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "wall_s": [r["wall_s"] for r in runs], "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(values)
            entry["metrics"][metric["name"]] = {
                "values": values, "median": statistics.median(values),
                "spread": s, "bound": metric["bound"],
                "within_third_of_bound": s < metric["bound"] / 3}
            print(f"{workload:22s} {metric['name']:12s} median "
                  f"{statistics.median(values):.6g} spread {s:.4f} "
                  f"bound {metric['bound']}", flush=True)
        ok &= entry["correct"]
        traced = [run_once(spec, workload, seeds[0], 1) for _ in range(2)]
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        first, second = ({n: r["metrics"][n]["value"] for n in counts} for r in traced)
        entry["trace"] = {
            "counts_repeat_exactly": first == second,
            "counts": first,
            "self_sum_ratio": [r["metrics"]["trace.self_sum_ratio"]["value"]
                               for r in traced],
            "overhead_ratio": [r["metrics"]["trace.overhead_ratio"]["value"]
                               for r in traced],
            "correct": all(r["correct"] for r in traced),
            "wall_s": [r["wall_s"] for r in traced]}
        ok &= first == second and entry["trace"]["correct"]
        print(f"{workload:22s} traced: counts repeat {first == second}, "
              f"self_sum_ratio {entry['trace']['self_sum_ratio']}", flush=True)
        report["workloads"][workload] = entry
        if args.out:  # after each workload, so an interrupted run keeps its results
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    if not args.out:
        print(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
