"""Tests of the benchmark itself: tracer, correctness gate, failure exit.

    python3 -m pytest -q perfbench

They run small variants of the workloads, so they take well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from setup_probe import import_imdot  # noqa: E402

import_imdot()

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ItemOutput, OracleWorkload, SweepWorkload  # noqa: E402

SMALL = {
    "sweep": SweepWorkload("tiny_sweep", n_classes=3, n=40, beta_grid=(0.25, 0.5, 1.0),
                           mode="both", inputs=(11, 12), trace_items=2),
    "oracle": OracleWorkload("tiny_oracle", n_classes=3, n=60, inputs=(13,),
                             trace_items=1),
}

COUNT_SUFFIXES = (".calls", ".errors")
COUNT_NAMES = ("lp.iterations", "lp.vars", "lp.rows", "lp.nnz",
               "experiments.near_tie_rows")


def reference_for(workload, work_dir):
    return {seed: workload.run(seed, work_dir).values for seed in workload.inputs}


def imdot_namespace():
    return {(name, key): value for name, module in sys.modules.items()
            if name == "imdot" or name.startswith("imdot.")
            for key, value in vars(module).items()}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_twice(request, tmp_path_factory):
    workload = SMALL[request.param]
    work_dir = tmp_path_factory.mktemp(workload.name)
    reference = reference_for(workload, work_dir)
    before = imdot_namespace()
    results = [run.traced_run(workload, reference, 5, work_dir) for _ in range(2)]
    return workload, results, before


def test_traced_outputs_equal_untraced_and_pass_the_gate(traced_twice):
    # traced_run is correct only if every traced item's data outputs equal
    # the untraced ones byte for byte and every op passes its checks.
    _, results, _ = traced_twice
    for result in results:
        assert result["correct"]
        assert result["failed"] == 0


def test_every_wrapped_attribute_is_restored(traced_twice):
    _, _, before = traced_twice
    after = imdot_namespace()
    assert all(after[key] is value for key, value in before.items())


def test_counts_repeat_exactly(traced_twice):
    _, (first, second), _ = traced_twice
    counts = [name for name in first["metrics"]
              if name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES]
    assert "lp.solve.calls" in counts and "lp.iterations" in counts
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}


def test_self_times_sum_to_the_traced_wall(traced_twice):
    _, results, _ = traced_twice
    for result in results:
        assert abs(result["metrics"]["trace.self_sum_ratio"] - 1.0) <= 0.05


def test_tracer_rebinds_direct_imports_and_restores_them():
    import imdot.checks
    import imdot.families

    original = imdot.families.ground_union
    assert imdot.checks.ground_union is original
    tracer = Tracer()
    tracer.install()
    try:
        assert imdot.checks.ground_union is imdot.families.ground_union
        assert imdot.checks.ground_union is not original
        imdot.checks.ground_union([[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    finally:
        tracer.uninstall()
    assert imdot.checks.ground_union is original
    table = tracer.layer_table()
    assert table["families.ground_union"]["calls"] == 1


def test_self_time_subtracts_children():
    tracer = Tracer()
    # parent 0..10 s with children 1..3 s and 4..8 s
    tracer.spans = [["a", 0.0, 10.0, None], ["b", 1.0, 3.0, 0], ["b", 4.0, 8.0, 0]]
    table = tracer.layer_table()
    assert table["a"]["self_ms"] == pytest.approx(4000.0)
    assert table["b"] == {"calls": 2, "ms": pytest.approx(6000.0),
                          "self_ms": pytest.approx(6000.0)}


def test_gate_fails_deviations_and_broken_invariants():
    workload = SMALL["sweep"]
    ref = {"0.25/global": 0.9, "0.25/per_class_split": 0.5,
           "0.5/global": 0.8, "0.5/per_class_split": 0.2,
           "1.0/global": 0.7, "1.0/per_class_split": 0.1}
    assert workload.failed_ops(ItemOutput(1.0, values=dict(ref)), ref) == set()

    off = dict(ref, **{"0.5/global": 0.8 + 1e-7})
    assert workload.failed_ops(ItemOutput(1.0, values=off), ref) == {"0.5/global"}

    above = dict(ref, **{"1.0/per_class_split": 0.75})  # above global, and rising
    assert workload.failed_ops(ItemOutput(1.0, values=above), above) == \
        {"1.0/per_class_split"}

    missing = dict(ref)
    del missing["0.25/global"]
    assert workload.failed_ops(ItemOutput(1.0, values=missing), ref) == {"0.25/global"}
    assert workload.failed_ops(ItemOutput(1.0, values=dict(ref)), {}) == set(ref)


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "oracle_views", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
