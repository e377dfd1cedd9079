"""Run one workload of the imdot benchmark, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Single process, closed loop, one client:
each item starts when the previous one has finished, with ``--jobs 1``.

``--trace 0`` times whole passes over the workload's inputs, as many as fit
in ``--seconds`` and at least one, and prints the ``end_to_end`` metrics of
``BENCHMARK.json``, with times scaled to a machine of reference speed (see
``speed.py``).  ``--trace 1`` runs the workload's fixed traced items
twice, untraced and then with every public layer function wrapped, and
prints the ``per_layer`` metrics; the traced outputs must equal the
untraced ones byte for byte.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Without ``src/imdot`` the run exits 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"

#: Fresh processes timed for ``setup_s``; their median is reported.
SETUP_SAMPLES = 5

#: Time spent on the machine-speed batch after an item, as a share of the item.
SPEED_SHARE = 0.05


def measure_setup(probe) -> list:
    """Wall time of fresh processes that import imdot and solve once."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds samples up to 50 ms.
        subprocess.run([sys.executable, str(HERE / "setup_probe.py")], check=True)
        times.append(time.perf_counter() - start)
        probe.sample()
    return times


class Tally:
    """Item times and op counts over a sequence of items."""

    def __init__(self, workload, reference):
        self.workload, self.reference = workload, reference
        self.seconds, self.outputs = [], []
        self.attempted = self.failed = 0

    def run(self, item_seed: int, work_dir: Path):
        ops = len(self.workload.ops())
        start = time.perf_counter()
        try:
            out = self.workload.run(item_seed, work_dir)
        except Exception:
            traceback.print_exc()
            self.seconds.append(time.perf_counter() - start)
            self.outputs.append(None)
            self.attempted += ops
            self.failed += ops
            return
        bad = self.workload.failed_ops(out, self.reference.get(item_seed))
        for op in sorted(bad):
            print(f"FAILED op {op} of item {item_seed}", file=sys.stderr)
        self.seconds.append(out.seconds)
        self.outputs.append(out)
        self.attempted += ops
        self.failed += len(bad)


def timed_run(workload, reference, run_seed, seconds, work_dir) -> dict:
    from speed import SpeedProbe

    probe = SpeedProbe()
    setup = measure_setup(probe)
    tally = Tally(workload, reference)
    order = workload.order(run_seed)
    start = time.perf_counter()
    last_pass = 0.0
    # Whole passes over the inputs, so every run times the same work.
    while not tally.seconds or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        for item_seed in order:
            tally.run(item_seed, work_dir)
            probe.sample_for(SPEED_SHARE * tally.seconds[-1])
        last_pass = time.perf_counter() - pass_start
    times = tally.seconds
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": (tally.attempted - tally.failed) / sum(times),
        "item_s_p50": statistics.median(times),
    }
    speed = probe.factor()
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    print(f"items {len(times)}, item_s quartiles {q1:.4f} / {q3:.4f}, "
          f"setup samples {', '.join(f'{s:.4f}' for s in setup)} s, "
          f"failed_ops_ratio {tally.failed / tally.attempted} "
          f"({tally.failed}/{tally.attempted})")
    print(f"speed factor {speed:.4f} over {len(probe.samples)} reference batches; "
          "unscaled " + ", ".join(f"{k} {v}" for k, v in raw.items()))
    metrics = {
        "setup_s": raw["setup_s"] * speed,
        "ops_per_s": raw["ops_per_s"] / speed,
        "item_s_p50": raw["item_s_p50"] * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced_run(workload, reference, run_seed, work_dir) -> dict:
    from tracer import Tracer

    seeds = workload.order(run_seed)[:workload.trace_items]
    plain = Tally(workload, reference)
    for seed in seeds:
        plain.run(seed, work_dir)
    tracer = Tracer()
    traced = Tally(workload, reference)
    tracer.install()
    patched = tracer.patched_attributes()
    try:
        for seed in seeds:
            traced.run(seed, work_dir)
    finally:
        tracer.uninstall()

    restored = all(getattr(module, key) is original for module, key, original in patched)
    identical = all(a is not None and b is not None and a.fingerprint == b.fingerprint
                    for a, b in zip(plain.outputs, traced.outputs))
    if not restored:
        print("FAILED: a wrapped attribute was not restored", file=sys.stderr)
    if not identical:
        print("FAILED: traced outputs differ from untraced ones", file=sys.stderr)

    traced_s = sum(traced.seconds)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_s / sum(plain.seconds)
    metrics["trace.self_sum_ratio"] = tracer.self_ms_total() / (1e3 * traced_s)

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload.name}-{run_seed}.json"
    spans_path.write_text(json.dumps({"items": seeds, "spans": tracer.spans}))
    print(f"items {len(seeds)}, spans {len(tracer.spans)} written to {spans_path.name}")
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]}")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return {"correct": failed == 0 and restored and identical,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def environment(imdot_module) -> str:
    import numpy
    import scipy

    blas = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"blas threads {blas}, loop closed with 1 client, jobs 1, "
            f"imdot from {Path(imdot_module.__file__).parent}")


def main(argv=None) -> int:
    # One BLAS thread, set before NumPy is first imported; the set-up probes
    # inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from setup_probe import import_imdot, warm_up

    try:
        imdot = import_imdot()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    warm_up()

    workload = WORKLOADS[args.workload]
    reference = workload.load_reference()
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}; "
          + environment(imdot))
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        if args.trace:
            result = traced_run(workload, reference, args.seed, work_dir)
        else:
            result = timed_run(workload, reference, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    computed = result["metrics"]
    section = spec["per_layer" if args.trace else "end_to_end"]
    # A layer this workload never reaches reads 0 in the traced table.
    result["metrics"] = {
        m["name"]: {"value": computed[m["name"]] if not args.trace
                    else computed.get(m["name"], 0), "unit": m["unit"]}
        for m in section
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
