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
from imdot.measures import ROUNDING_TOL, cost_matrix, empirical_measure
from imdot.ot import (
    TransportPlanSet,
    _solve_blocks,
    partial_ot_beta_split,
)

from reference import dense_lp


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
        # On this draw the dense LP and column generation (from the lift of
        # the coarse start, n = 60) give a row two class votes that tie up
        # to rounding; a plain argmax labelled it differently.
        source, target = generate_pair(ToyConfig(
            n_classes=3, n_source=60, n_target=60, eta=1.0, seed=5))
        t, s = empirical_measure(target), empirical_measure(source)
        cost = cost_matrix(target.points, source.points)
        dense = solve(dense_lp(t, [s.weights], [cost], np.ones(1), 0.5))
        dense = dense.x[1:].reshape(len(target), len(source))
        (_, plans, _), = _solve_blocks(t, [s], [cost], np.ones(1), [0.5])
        votes = [np.stack([plan[:, source.labels == k].sum(axis=1) for k in (1, 2, 3)],
                          axis=1) for plan in (dense, plans[0])]
        # A plain argmax differs on this draw, so the tie rule is what agrees.
        assert np.any(np.argmax(votes[0], axis=1) != np.argmax(votes[1], axis=1))
        assert np.array_equal(propagate_labels(dense, source.labels, 3),
                              propagate_labels(plans[0], source.labels, 3))

    def test_every_plan_set_block_is_checked_against_its_labels(self):
        # A third block with no label to match, carrying 0.9 of row 0's mass.
        plans = (np.array([[0.04], [0.5]]), np.array([[0.06], [0.0]]),
                 np.array([[0.9], [0.0]]))
        plan_set = TransportPlanSet(plans, np.zeros(3), 0.0)
        with pytest.raises(ValueError, match="class block width does not match its labels"):
            propagate_labels(plan_set, np.array([1, 2]))
        # A block of width 0 matches no label.
        empty = TransportPlanSet((*plans[:2], np.zeros((2, 0))), np.zeros(3), 0.0)
        assert np.array_equal(propagate_labels(empty, np.array([1, 2])), [2, 1])

    def test_a_label_beyond_the_last_block_is_rejected(self):
        # One block for the labels 1 and 2: the column labelled 2 has none.
        plan_set = TransportPlanSet((np.array([[0.1], [0.5]]),), np.zeros(1), 0.0)
        with pytest.raises(ValueError, match="source label 2 has no block: the plan set "
                                             "has 1"):
            propagate_labels(plan_set, np.array([1, 2]))

    @pytest.mark.parametrize("form", ["dense", "plan_set"])
    @pytest.mark.parametrize("labels, n_classes, named", [
        ([1, 2, 3], 2, r"source_labels must lie in 1\.\.2, got range \[1, 3\]$"),
        ([0, 1, 2], 2, r"source_labels must lie in 1\.\.2, got range \[0, 2\]$"),
        ([0, 1, 2], None, r"source_labels must lie in 1\.\.2, got range \[0, 2\]$"),
    ])
    def test_a_label_outside_the_classes_is_rejected(self, form, labels, n_classes, named):
        # The column of the outside label carries mass; dropping it would
        # still label every row.
        plan = np.array([[0.1, 0.0, 0.4], [0.0, 0.5, 0.0]])
        if form == "plan_set":
            plan = TransportPlanSet(tuple(plan[:, [j]] for j in np.argsort(labels)),
                                    np.zeros(3), 0.0)
        with pytest.raises(ValueError, match=named):
            propagate_labels(plan, np.array(labels), n_classes)

    @staticmethod
    def as_form(plan, form):
        """``plan`` as a dense matrix or as the plan set of labels 1, 2."""
        return plan if form == "dense" else TransportPlanSet(
            (plan[:, :1], plan[:, 1:]), np.zeros(2), 0.0)

    @pytest.mark.parametrize("form", ["dense", "plan_set"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-9])
    def test_a_plan_that_is_not_one_is_rejected(self, form, bad):
        # A NaN vote loses every comparison, so argmax would label row 1 by class 1.
        plan = self.as_form(np.array([[0.5, 0.0], [bad, 0.5]]), form)
        with pytest.raises(ValueError, match=r"^plan (block 1 )?must be finite with no entry "
                                             r"below -1e-12, got row 1: "):
            propagate_labels(plan, np.array([1, 2]), 2)

    @pytest.mark.parametrize("form", ["dense", "plan_set"])
    def test_a_plan_may_carry_the_rounding_of_a_solver(self, form):
        plan = self.as_form(np.array([[0.5, -ROUNDING_TOL], [-ROUNDING_TOL, 0.5]]), form)
        assert np.array_equal(propagate_labels(plan, np.array([1, 2]), 2), [1, 2])

    @pytest.mark.parametrize("plan", [np.zeros((2, 0)), TransportPlanSet((), np.zeros(0), 0.0)])
    def test_no_class_is_rejected(self, plan):
        # Without a class there is no vote to label a target row by.
        with pytest.raises(ValueError, match="^n_classes must be a positive integer, got 0$"):
            propagate_labels(plan, np.zeros(0, dtype=int), 0)

    @pytest.mark.parametrize("labels", [[2, 1.5], ["2", "1"]])
    def test_labels_that_are_not_whole_numbers_are_rejected(self, labels):
        # Cast to int, [2, 1.5] labelled the row by class 1.
        with pytest.raises(ValueError, match=r"^source_labels must be (whole numbers|a vector "
                                             r"of numbers), got "):
            propagate_labels([[0.2, 0.8]], labels)

    def test_an_empty_label_vector_has_no_default_classes(self):
        with pytest.raises(ValueError, match="^n_classes must be a positive integer, got 0$"):
            propagate_labels(np.zeros((1, 0)), [])

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

    def test_an_empty_beta_grid_is_named_before_any_draw(self, monkeypatch):
        def drawn(task):
            raise AssertionError("a draw ran")

        monkeypatch.setattr(imdot.experiments, "_run_draw", drawn)
        with pytest.raises(ValueError, match="^beta_grid must not be empty$"):
            run_sweep(CFG, [], draws=2)

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

    def test_a_bad_beta_grid_is_named_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(imdot.experiments, "generate_pair",
                            lambda config: drawn.append(config))
        config = ToyConfig(n_source=30, n_target=30)
        for grid in ([-0.5], [0.0, np.nan], [0.25, np.inf], [[0.5]]):
            with pytest.raises(ValueError, match="^beta_grid must be"):
                run_sweep(config, grid, 1)
        assert drawn == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_sweep(CFG, [0.0], draws=0)
        with pytest.raises(ValueError):
            run_sweep(CFG, [0.0], draws=1, mode="sideways")
        with pytest.raises(ValueError, match="job"):
            run_sweep(CFG, [0.0], draws=1, jobs=0)
        with pytest.raises(ValueError, match="^draws must be a positive integer, got True$"):
            run_sweep(CFG, [0.0], draws=True)
        with pytest.raises(ValueError, match="^jobs must be a positive integer, got 1.5$"):
            run_sweep(CFG, [0.0], draws=1, jobs=1.5)
