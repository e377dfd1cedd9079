import csv
import json

import numpy as np
import pytest

import imdot.experiments

from imdot.cli import main
from imdot.datagen import ToyConfig, generate_pair, shared_atom_label_shift
from imdot.experiments import (
    accuracy,
    propagate_labels,
    run_sweep,
    write_draws_csv,
    write_summary_csv,
)
from imdot.lp import solve
from imdot.measures import cost_matrix, empirical_measure
from imdot.ot import (
    TransportPlanSet,
    _assemble_blocks,
    _solve_blocks,
    partial_ot_beta_split,
)


class TestPropagateLabels:
    def test_identity_plan(self):
        plan = np.eye(2) / 2
        labels = propagate_labels(plan, np.array([1, 2]))
        assert np.array_equal(labels, [1, 2])

    def test_majority(self):
        plan = np.array([[0.3, 0.7]])
        labels = propagate_labels(plan, np.array([1, 2]))
        assert labels[0] == 2

    def test_tie_goes_to_smallest_class(self):
        plan = np.array([[0.5, 0.5], [0.5, 0.5 * (1 + 1e-12)], [0.5, 0.6]])
        labels = propagate_labels(plan, np.array([1, 2]))
        assert np.array_equal(labels, [1, 1, 2])

    def test_labels_do_not_depend_on_backend(self):
        # On this draw the dense LP and column generation give a row two
        # class votes that tie up to rounding; a plain argmax labelled it
        # differently.
        source, target = generate_pair(ToyConfig(
            n_classes=3, n_source=60, n_target=60, eta=1.0, seed=3))
        args = (empirical_measure(target), [empirical_measure(source).weights],
                [cost_matrix(target.points, source.points)], np.array([1.5]))
        dense = solve(_assemble_blocks(*args)).x.reshape(len(target), len(source))
        (_, plans, _), = _solve_blocks(*args)
        votes = [np.stack([plan[:, source.labels == k].sum(axis=1) for k in (1, 2, 3)],
                          axis=1) for plan in (dense, plans[0])]
        # A plain argmax differs on this draw, so the tie rule is what agrees.
        assert np.any(np.argmax(votes[0], axis=1) != np.argmax(votes[1], axis=1))
        assert np.array_equal(propagate_labels(dense, source.labels, 3),
                              propagate_labels(plans[0], source.labels, 3))

    def test_zero_row_errors(self):
        plan = np.array([[0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            propagate_labels(plan, np.array([1, 2]))

    def test_scaling_invariance(self, rng):
        plan = rng.random((4, 6)) + 1e-3
        labels = rng.integers(1, 4, size=6)
        base = propagate_labels(plan, labels, 3)
        scaled = propagate_labels(37.5 * plan, labels, 3)
        assert np.array_equal(base, scaled)

    def test_plan_set_blocks_align_with_labels(self):
        source_labels = np.array([2, 1, 2])
        plans = (np.array([[0.6], [0.0]]),        # class-1 block: column 1
                 np.array([[0.0, 0.0], [0.2, 0.2]]))  # class-2 block: columns 0, 2
        plan_set = TransportPlanSet(plans, np.zeros(2), 0.0)
        labels = propagate_labels(plan_set, source_labels)
        assert np.array_equal(labels, [1, 2])

    def test_perfect_recovery_on_disjoint_shared_atoms(self):
        source, conds, target = shared_atom_label_shift(
            [[[0.0, 0.0]], [[1.0, 0.0]]], [0.8, 0.2], [0.5, 0.5])
        costs = [cost_matrix(target.points, c.points) for c in conds]
        plan_set = partial_ot_beta_split(target, conds, [0.8, 0.2], 0.3, costs)
        assert plan_set.objective == pytest.approx(0.0, abs=1e-9)
        source_labels = np.array([1, 2])  # atom order: class 1 then class 2
        target_labels = np.array([1, 2])
        predicted = propagate_labels(plan_set, source_labels)
        assert accuracy(predicted, target_labels) == 1.0


class TestAccuracy:
    def test_values(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 1], [2, 2]) == 0.0
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 1]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1, 2], [1])


CFG = ToyConfig(n_classes=3, n_source=45, n_target=45, seed=2)


class TestRunSweep:
    def test_single_draw_beta_zero_objectives_agree(self):
        result = run_sweep(CFG, [0.0], draws=1, mode="both")
        objectives = {r.mode: r.objective for r in result.records}
        assert objectives["global"] == pytest.approx(
            objectives["per_class_split"], abs=1e-8)

    def test_record_layout_and_summary(self, tmp_path):
        result = run_sweep(CFG, [0.0, 0.5], draws=2, mode="both")
        assert len(result.records) == 2 * 2 * 2
        assert not result.failures
        summary = result.summary()
        assert [row[0] for row in summary] == [0.0, 0.5]
        for _, med, lo, hi in summary:
            assert lo <= med <= hi

        draws_path = tmp_path / "draws.csv"
        summary_path = tmp_path / "summary.csv"
        write_draws_csv(result, draws_path)
        write_summary_csv(result, summary_path)
        with draws_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"draw", "seed", "beta", "mode", "accuracy",
                                "objective", "solve_ms"}
        # summary is a pure function of the recorded values
        med = np.median([
            float(next(r["accuracy"] for r in rows
                       if (r["draw"], r["beta"], r["mode"]) == (str(d), "0.5", "per_class_split")))
            - float(next(r["accuracy"] for r in rows
                         if (r["draw"], r["beta"], r["mode"]) == (str(d), "0.5", "global")))
            for d in range(2)
        ])
        with summary_path.open() as fh:
            srows = list(csv.DictReader(fh))
        assert float(srows[1]["median_diff"]) == pytest.approx(med)

    def test_jobs_do_not_change_results(self):
        serial = run_sweep(CFG, [0.5], draws=2, mode="both", jobs=1)
        parallel = run_sweep(CFG, [0.5], draws=2, mode="both", jobs=2)
        strip = lambda recs: [(r.draw, r.seed, r.beta, r.mode, r.accuracy,
                               r.objective) for r in recs]
        assert strip(serial.records) == strip(parallel.records)

    def test_workers_are_capped_by_the_draws(self, monkeypatch):
        # A stand-in executor that records its size and starts no process.
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(imdot.experiments, "ProcessPoolExecutor", Recorder)
        result = run_sweep(CFG, [0.5], draws=2, mode="global", jobs=5000)
        assert sizes == [2]
        assert [r.draw for r in result.records] == [0, 1]
        run_sweep(CFG, [0.5], draws=1, mode="global", jobs=5000)
        assert sizes == [2]   # one draw runs in this process

    def test_timings_are_optional_in_csv(self, tmp_path):
        result = run_sweep(CFG, [0.0], draws=1, mode="global")
        bare = tmp_path / "bare.csv"
        timed = tmp_path / "timed.csv"
        write_draws_csv(result, bare)
        write_draws_csv(result, timed, include_timings=True)
        assert bare.read_text().splitlines()[1].endswith(",")
        assert not timed.read_text().splitlines()[1].endswith(",")

    def test_single_mode_has_no_summary(self):
        result = run_sweep(CFG, [0.0], draws=1, mode="global")
        with pytest.raises(ValueError):
            result.summary()

    def test_a_failed_walk_is_retried_one_beta_at_a_time(self, monkeypatch, tmp_path):
        # The global walk fails over the whole grid, and alone only at 0.5:
        # 0.0 is solved on its own, 0.5 is recorded as a failure.
        walk = imdot.experiments.partial_ot_global_path
        calls = []

        def failing(target, source, cost, grid):
            calls.append(list(grid))
            if len(grid) > 1 or grid[0] == 0.5:
                raise RuntimeError(f"planted failure on {list(grid)}")
            return walk(target, source, cost, grid)

        monkeypatch.setattr(imdot.experiments, "partial_ot_global_path", failing)
        result = run_sweep(CFG, [0.0, 0.5], draws=1, mode="both")
        assert calls == [[0.0, 0.5], [0.0], [0.5]]
        by_key = {(r.beta, r.mode): r for r in result.records}
        assert [(r.beta, r.mode) for r in result.records] == [
            (0.0, "global"), (0.0, "per_class_split"),
            (0.5, "global"), (0.5, "per_class_split")]
        failed = by_key[(0.5, "global")]
        assert np.isnan(failed.accuracy) and np.isnan(failed.objective)
        assert failed.solve_seconds == 0.0
        for key in ((0.0, "global"), (0.0, "per_class_split"), (0.5, "per_class_split")):
            assert np.isfinite(by_key[key].accuracy) and np.isfinite(by_key[key].objective)
        # The retried 0.0 is the value a one-entry walk gives.
        monkeypatch.undo()
        reference = run_sweep(CFG, [0.0], draws=1, mode="global").records[0]
        assert (by_key[(0.0, "global")].objective, by_key[(0.0, "global")].accuracy) == (
            reference.objective, reference.accuracy)
        expected = (0, 0.5, "global", repr(RuntimeError("planted failure on [0.5]")))
        assert result.failures == (expected,)
        # The summary skips the failed pair.
        assert np.isnan(result.summary()[1][1])

        monkeypatch.setattr(imdot.experiments, "partial_ot_global_path", failing)
        out = tmp_path / "w"
        assert main(["sweep", "--k", "3", "--n", "45", "--seed", "2", "--draws", "1",
                     "--beta-grid", "0,0.5", "--jobs", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["failures"] == [list(expected)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_sweep(CFG, [0.0], draws=0)
        with pytest.raises(ValueError):
            run_sweep(CFG, [0.0], draws=1, mode="sideways")
        with pytest.raises(ValueError, match="job"):
            run_sweep(CFG, [0.0], draws=1, jobs=0)
