"""Column generation against the dense LP over every arc.

Every LP-backed transport solve runs column generation on one warm HiGHS
model and is certified on the full problem: on the model's columns, and on
every other arc by the pricing pass that ended it.  The references here are the
dense LP of ``reference.dense_lp`` through ``lp.solve`` and, for small
balanced problems, vertex enumeration.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import imdot.lp
import imdot.ot
from imdot.checks import dyadic_weights
from imdot.datagen import ToyConfig, draw_seeds, generate_pair
from imdot.lp import (
    CHOOSE_SIMPLEX,
    DEVEX_PRICING,
    FEASIBILITY_TOL,
    GAP_TOL,
    HighsModel,
    LinearProgram,
    LpError,
    certify,
    solve,
)
from imdot.measures import (
    DiscreteMeasure,
    class_conditionals,
    cost_matrix,
    empirical_measure,
)
from imdot.ot import (
    COARSE_MIN_ATOMS,
    NEAREST_ARCS,
    _initial_arcs,
    _north_west_corner,
    _solve_blocks,
    _verify_plan,
    partial_ot_beta_split,
    partial_ot_beta_split_path,
    partial_ot_global_path,
    partial_ot_per_class,
)

from reference import brute_force_transport_value, dense_lp

BETAS = (0.0, 0.25, 1 / 3, 1.0, 1.49, 3.0)

#: HiGHS ``simplex_strategy`` value: dual simplex on every run.
DUAL_SIMPLEX = 1


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * (1.0 + abs(b))


def points(rng, n, kind, pool):
    if kind == "continuous":
        return rng.uniform(-2, 2, (n, 2))
    if kind == "lattice":
        return rng.integers(0, 3, (n, 2)).astype(float)
    return pool[rng.integers(0, len(pool), n)]


def weights(rng, n, kind):
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    w = dyadic_weights(rng, n)
    if kind == "zero_atom" and n > 1:
        w[int(rng.integers(n))] = 0.0
    return w / w.sum()


@st.composite
def problems(draw):
    """``(target, sources, costs, cap_scale, budget)``: continuous,
    lattice (cost ties) or duplicate atoms, ``n_t != n_s``, an empty class,
    dyadic weights, a zero-weight atom or uniform ``1/n`` weights, in global
    (one block), per-class or split mode."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "lattice", "duplicates"]))
    mode = draw(st.sampled_from(["global", "per_class", "split"]))
    weight_kind = draw(st.sampled_from(["dyadic", "zero_atom", "uniform"]))
    pool = rng.uniform(-2, 2, (3, 2))
    n_t = draw(st.integers(1, 8))
    target = DiscreteMeasure(points(rng, n_t, kind, pool), weights(rng, n_t, weight_kind))
    if mode == "global":
        sizes = [draw(st.integers(1, 8))]
    else:
        sizes = draw(st.lists(st.integers(0, 4), min_size=2, max_size=3))
        if not any(sizes):
            sizes[0] = 1
    sources = [DiscreteMeasure(points(rng, n, kind, pool),
                               weights(rng, n, weight_kind) if n else np.empty(0))
               for n in sizes]
    p = dyadic_weights(rng, len(sizes)) * (np.array(sizes) > 0)
    p /= p.sum()
    costs = [cost_matrix(target.points, c.points) for c in sources]
    beta = draw(st.sampled_from(BETAS))
    if mode == "global":
        return target, sources, costs, np.ones(1), beta
    if mode == "per_class":
        return target, sources, costs, p + beta * rng.random(len(p)), 0.0
    return target, sources, costs, p, beta


def dense(target, sources, costs, cap_scale, budget):
    return solve(dense_lp(target, [s.weights for s in sources], costs, cap_scale, budget))


@settings(max_examples=200, deadline=None)
@given(problems())
def test_column_generation_matches_the_dense_lp(problem):
    target, sources, costs, cap_scale, budget = problem
    reference = dense(*problem)
    ((sol, _, _),) = _solve_blocks(target, sources, costs, cap_scale, [budget])
    assert close(sol.value, reference.value), (sol.value, reference.value)


def test_balanced_transport_matches_vertex_enumeration(rng):
    for kind in ("continuous", "lattice", "duplicates"):
        pool = rng.uniform(-2, 2, (2, 2))
        for n_t, n_s in ((1, 3), (2, 3), (3, 2), (3, 3)):
            target = DiscreteMeasure(points(rng, n_t, kind, pool),
                                     weights(rng, n_t, "dyadic"))
            source = DiscreteMeasure(points(rng, n_s, kind, pool),
                                     weights(rng, n_s, "zero_atom"))
            cost = cost_matrix(target.points, source.points)
            ((sol, _, _),) = _solve_blocks(target, [source], [cost], np.ones(1), [0.0])
            brute = brute_force_transport_value(cost.entries, target.weights,
                                                source.weights)
            assert abs(sol.value - brute) <= 1e-9 * (1.0 + brute), (kind, sol.value, brute)


def test_lattice_ties_match_the_dense_lp():
    # Uniform weights on a scaled lattice: many tied costs, so many optimal
    # plans, and cycles of zero cost that sum to about -1e-16 in floating
    # point.
    rng = np.random.default_rng(243)
    for _ in range(30):
        n_t, n_s = rng.integers(5, 25, 2)
        target = DiscreteMeasure(rng.integers(0, 4, (n_t, 2)) * 3.7,
                                 weights(rng, n_t, "uniform"))
        source = DiscreteMeasure(rng.integers(0, 4, (n_s, 2)) * 3.7,
                                 weights(rng, n_s, "uniform"))
        cost = cost_matrix(target.points, source.points)
        ((sol, _, _),) = _solve_blocks(target, [source], [cost], np.ones(1), [0.0])
        reference = dense(target, [source], [cost], np.ones(1), 0.0)
        assert close(sol.value, reference.value), (sol.value, reference.value)


def split_instance(rng, n_t=40, sizes=(25, 0, 30)):
    """``(target, conditionals, costs, p)`` with an empty middle class and
    zero-weight atoms."""
    target = DiscreteMeasure(rng.uniform(-2, 2, (n_t, 2)), weights(rng, n_t, "zero_atom"))
    conds = [DiscreteMeasure(rng.uniform(-2, 2, (n, 2)) + 0.5 * k,
                             weights(rng, n, "zero_atom") if n else np.empty(0))
             for k, n in enumerate(sizes)]
    costs = [cost_matrix(target.points, c.points) for c in conds]
    return target, conds, costs, np.array([0.5, 0.0, 0.5])


def test_initial_arcs_are_the_nearest_over_all_classes_and_the_corner(rng):
    target, conds, costs, p = split_instance(rng, n_t=15, sizes=(6, 0, 9))
    cost = np.hstack([c.entries for c in costs])
    capacity = np.concatenate([s * c.weights for s, c in zip(p, conds)])
    rows, cols = _initial_arcs(cost, target.weights, capacity)
    m = min(NEAREST_ARCS, cost.shape[1])
    nearest = {(i, j) for i in range(len(cost)) for j in np.argsort(cost[i])[:m]}
    corner = set(zip(*_north_west_corner(target.weights, capacity)))
    assert corner and not corner <= nearest
    assert set(zip(rows, cols)) == nearest | corner


@pytest.mark.parametrize("budget", [0.3, 0.0])
def test_columns_reach_highs_as_the_assembled_columns(monkeypatch, rng, budget):
    # K = 3 with an empty middle class and zero-weight atoms, with the beta
    # columns of a split and pinned at zero by a zero budget.
    target, conds, costs, p = split_instance(rng, n_t=15, sizes=(6, 0, 9))
    cond_weights = [c.weights for c in conds]
    assert all(np.any(w == 0) for w in cond_weights if len(w))
    batches, runs = [], []
    add_columns, run = HighsModel.add_columns, HighsModel.run

    def recorded_add(model, cost, starts, indices, values, lower, upper):
        assert len(starts) > 1                       # no empty add
        batches.append([(float(cost[k]), tuple(indices[starts[k]:starts[k + 1]].tolist()),
                         tuple(values[starts[k]:starts[k + 1]].tolist()),
                         float(lower[k]), float(upper[k])) for k in range(len(starts) - 1)])
        return add_columns(model, cost, starts, indices, values, lower, upper)

    def recorded_run(model):
        runs.append(len(batches))
        return run(model)

    monkeypatch.setattr(HighsModel, "add_columns", recorded_add)
    monkeypatch.setattr(HighsModel, "run", recorded_run)
    lp = dense_lp(target, cond_weights, costs, p, budget)
    assembled = []
    for j in range(lp.n_vars):
        span = slice(lp.A.indptr[j], lp.A.indptr[j + 1])
        assembled.append((float(lp.c[j]), tuple(lp.A.indices[span].tolist()),
                          tuple(lp.A.data[span].tolist()), float(lp.lower[j]),
                          float(lp.upper[j])))
    column = {col: j for j, col in enumerate(assembled)}
    ((sol, _, _),) = _solve_blocks(target, conds, costs, p, [budget])
    added = [col for batch in batches for col in batch]
    n_beta = len(cond_weights)
    assert len(added) == sol.columns
    # The beta columns first, then arcs, each an assembled column, none
    # twice, and each batch in column order.
    assert added[:n_beta] == assembled[:n_beta]
    assert len(set(added)) == len(added)
    assert set(added) <= set(assembled)
    for batch in batches:
        order = [column[col] for col in batch]
        assert order == sorted(order)
    # The dense solve: every column with its bounds, in one batch, in one run.
    batches.clear()
    runs.clear()
    solve(lp)
    assert batches == [assembled]
    assert runs == [1]


class TestCoarseStart:
    """Walks whose target reaches ``COARSE_MIN_ATOMS`` start from the lifted
    support of their coarsened problem, and end at the dense optimum."""

    @staticmethod
    def instance(rng, mode, kind, dim):
        """``(target, sources, costs, cap_scale, budgets)`` with 50-80
        target atoms: a global or split walk over three budgets, or one
        per-class entry at budget 0."""
        pool = rng.uniform(-2, 2, (5, dim))

        def draw(n):
            if kind == "lattice":
                return rng.integers(0, 4, (n, dim)) * 3.7
            if kind == "duplicates":
                return pool[rng.integers(0, len(pool), n)]
            if kind == "equal":
                return np.full((n, dim), 1.5)
            return rng.uniform(-2, 2, (n, dim))

        weight_kind = "uniform" if kind == "lattice" else "zero_atom"
        n_t = int(rng.integers(COARSE_MIN_ATOMS, 81))
        target = DiscreteMeasure(draw(n_t), weights(rng, n_t, weight_kind))
        if mode == "global":
            sizes = [int(rng.integers(50, 81))]
        else:
            sizes = [int(rng.integers(20, 40)), 0, int(rng.integers(20, 40))]
        sources = [DiscreteMeasure(draw(n), weights(rng, n, weight_kind) if n else np.empty(0))
                   for n in sizes]
        costs = [cost_matrix(target.points, c.points) for c in sources]
        grid = np.array([0.0, 0.3, 1.0])
        if mode == "global":
            return target, sources, costs, np.ones(1), grid
        p = np.array([0.5, 0.0, 0.5])
        if mode == "per_class":
            return target, sources, costs, p + rng.random(3), np.zeros(1)
        return target, sources, costs, p, grid

    @pytest.mark.parametrize("mode", ["global", "per_class", "split"])
    @pytest.mark.parametrize("kind, dim", [("continuous", 2), ("lattice", 2), ("duplicates", 2),
                                           ("equal", 2), ("continuous", 1), ("continuous", 3)])
    def test_coarse_start_matches_the_dense_lp(self, monkeypatch, rng, mode, kind, dim):
        target, sources, costs, cap_scale, budgets = self.instance(rng, mode, kind, dim)
        lifts = self.recorded_lifts(monkeypatch)
        walked = _solve_blocks(target, sources, costs, cap_scale, budgets)
        # One coarse level.  Points of zero extent have no lift and keep the
        # nearest arcs and the corner.
        ((n_atoms, arcs),) = lifts
        assert n_atoms == target.n_atoms
        assert (arcs is None) == (kind == "equal")
        for (sol, _, _), budget in zip(walked, budgets):
            reference = dense(target, sources, costs, cap_scale, budget)
            assert close(sol.value, reference.value), (budget, sol.value, reference.value)

    def test_infeasible_entries_name_the_fine_problem(self, monkeypatch, rng):
        # Capacity 0.5 against a unit target of 64 atoms: the coarse walk is
        # infeasible too, and the error is still raised by the fine walk.
        walks = []
        walk_blocks = imdot.ot._walk_blocks

        def recorded(target, cond_weights, costs, cap_scale, budgets, lifted):
            walked = walk_blocks(target, cond_weights, costs, cap_scale, budgets, lifted)
            walks.append((target.n_atoms, len(budgets), len(walked)))
            return walked

        monkeypatch.setattr(imdot.ot, "_walk_blocks", recorded)
        target = DiscreteMeasure(rng.uniform(-2, 2, (64, 2)), np.full(64, 1 / 64))
        conds = [DiscreteMeasure(rng.uniform(-2, 2, (32, 2)) + k, np.full(32, 1 / 32))
                 for k in range(2)]
        costs = [cost_matrix(target.points, c.points) for c in conds]
        with pytest.raises(LpError, match="^transport LP ended infeasible; target mass 1.0, "
                                          "total capacity 0.5$") as raised:
            partial_ot_per_class(target, conds, [0.25, 0.25], [0.0, 0.0], costs)
        assert not any(entry.name == "_coarse_arcs" for entry in raised.traceback)
        assert walks[0][0] < 64 and walks[0][1:] == (1, 0)
        # A walk whose coarse level solves beta = 1 and fails at beta = 0.5.
        walks.clear()
        source = DiscreteMeasure(np.vstack([c.points for c in conds]), np.full(64, 1 / 128))
        cost = cost_matrix(target.points, source.points)
        with pytest.raises(LpError, match="^transport LP ended infeasible; target mass 1.0, "
                                          "total capacity 0.75$") as raised:
            partial_ot_global_path(target, source, cost, [0.5, 1.0])
        assert not any(entry.name == "_coarse_arcs" for entry in raised.traceback)
        assert walks[0][0] < 64 and walks[0][1:] == (2, 1)

    @staticmethod
    def far_atom_pair(rng, far):
        """``(target, source, cost)``: 150 atoms in the unit square on each
        side, one of them moved to (100, 100)."""
        n = 150
        pts = [rng.random((n, 2)), rng.random((n, 2))]
        pts[far == "source"][-1] = 100.0
        target, source = (DiscreteMeasure(p, np.full(n, 1 / n)) for p in pts)
        return target, source, cost_matrix(target.points, source.points)

    @staticmethod
    def recorded_lifts(monkeypatch):
        """``(target.n_atoms, lift)`` of every :func:`imdot.ot._coarse_arcs`
        call, in call order."""
        lifts = []
        coarse_arcs = imdot.ot._coarse_arcs

        def recorded(target, *args):
            lifts.append((target.n_atoms, coarse_arcs(target, *args)))
            return lifts[-1][1]

        monkeypatch.setattr(imdot.ot, "_coarse_arcs", recorded)
        return lifts

    @staticmethod
    def recorded_starts(monkeypatch):
        """``(lp.n_vars, initial)`` of every :func:`imdot.lp.solve_path` call
        the walks make, coarse and fine, in call order."""
        starts = []
        solve_path = imdot.ot.solve_path

        def recorded(lp, bounds, initial, price):
            starts.append((lp.n_vars, np.array(initial)))
            return solve_path(lp, bounds, initial, price)

        monkeypatch.setattr(imdot.ot, "solve_path", recorded)
        return starts

    @pytest.mark.parametrize("far", ["source", "target"])
    def test_one_far_atom_keeps_the_start_small(self, monkeypatch, rng, far):
        # A far source atom falls into an edge cell of the grid over the
        # target.  A far target atom widens every cell to about 7.7, so that
        # one cell holds all the other atoms of both sides and the lift,
        # nearly every arc, is left out.
        target, source, cost = self.far_atom_pair(rng, far)
        n = target.n_atoms
        starts = self.recorded_starts(monkeypatch)
        path = partial_ot_global_path(target, source, cost, [0.0, 0.5])
        monkeypatch.undo()
        (fine_start,) = [len(start) for n_vars, start in starts if n_vars == 1 + n * n]
        assert fine_start < n * n / 8, fine_start
        for (value, _), beta in zip(path, (0.0, 0.5)):
            reference = dense(target, [source], [cost], np.ones(1), beta)
            assert close(value, reference.value), (beta, value, reference.value)

    @pytest.mark.parametrize("mode", ["global", "split"])
    def test_a_lifted_walk_starts_from_the_lift_alone(self, monkeypatch, rng, mode):
        target, sources, costs, cap_scale, budgets = self.instance(rng, mode, "continuous", 2)
        lifts = self.recorded_lifts(monkeypatch)
        starts = self.recorded_starts(monkeypatch)
        _solve_blocks(target, sources, costs, cap_scale, budgets)
        n_beta = len(sources)
        n_src = sum(source.n_atoms for source in sources)
        ((_, (rows, cols)),) = lifts
        (fine,) = [start for n_vars, start in starts
                   if n_vars == n_beta + target.n_atoms * n_src]
        # The beta columns and the lifted arcs; no nearest arc, no corner.
        assert np.array_equal(fine, np.append(np.arange(n_beta), n_beta + rows * n_src + cols))

    @pytest.mark.parametrize("case", ["few_atoms", "far_target"])
    def test_walks_without_a_lift_start_from_the_nearest_arcs_and_the_corner(
            self, monkeypatch, rng, case):
        if case == "few_atoms":
            n = COARSE_MIN_ATOMS - 1
            target, source = (DiscreteMeasure(rng.random((n, 2)), np.full(n, 1 / n))
                              for _ in range(2))
            cost = cost_matrix(target.points, source.points)
        else:
            target, source, cost = self.far_atom_pair(rng, "target")
        starts = self.recorded_starts(monkeypatch)
        partial_ot_global_path(target, source, cost, [0.0, 0.5])
        n_t, n_s = target.n_atoms, source.n_atoms
        (fine,) = [start for n_vars, start in starts if n_vars == 1 + n_t * n_s]
        # The beta column, then the corner at capacity scale 1.
        rows, cols = _initial_arcs(cost.entries, target.weights, source.weights)
        assert np.array_equal(fine, np.append(0, 1 + rows * n_s + cols))

    def test_the_coarse_walk_runs_at_the_ends_of_the_grid(self, monkeypatch, rng):
        # An 11-budget split walk, its budgets in no order: the coarse walk
        # runs at the largest and the smallest budget, the fine walk at every
        # budget from the largest down.  A one-budget walk runs the coarse
        # walk at its one budget.
        target, sources, costs, p, _ = self.instance(rng, "split", "continuous", 2)
        walks = []
        walk_blocks = imdot.ot._walk_blocks

        def recorded(target, cond_weights, costs, cap_scale, budgets, lifted):
            walks.append((target.n_atoms, list(budgets)))
            return walk_blocks(target, cond_weights, costs, cap_scale, budgets, lifted)

        monkeypatch.setattr(imdot.ot, "_walk_blocks", recorded)
        grid = rng.permutation(np.linspace(0.0, 1.0, 11))
        partial_ot_beta_split_path(target, sources, p, grid, costs)
        (n_coarse, coarse), (n_fine, fine) = walks
        assert n_coarse < n_fine == target.n_atoms
        assert coarse == [1.0, 0.0]
        assert fine == sorted(grid, reverse=True)
        walks.clear()
        partial_ot_beta_split(target, sources, p, 0.3, costs)
        assert [budgets for _, budgets in walks] == [[0.3], [0.3]]

    @pytest.mark.parametrize("mode", ["global", "split"])
    def test_coarse_start_saves_simplex_iterations(self, monkeypatch, mode):
        # Input 3000 at K = 3, n = 300, against the nearest-only start that
        # a floor no target reaches forces.  Iterations are counted over
        # every HiGHS run, the coarse walks' included.
        seed = int(draw_seeds(3000, 1)[0])
        source, target = generate_pair(ToyConfig(n_classes=3, n_source=300,
                                                 n_target=300, seed=seed))
        t, s = empirical_measure(target), empirical_measure(source)
        conds, p = class_conditionals(source)
        cost = cost_matrix(target.points, source.points)
        costs = [cost_matrix(target.points, cond.points) for cond in conds]
        grid = (0.25, 0.5, 0.75, 1.0)
        iterations = []
        run = HighsModel.run

        def counted(model):
            result = run(model)
            iterations[-1] += result[2]
            return result

        def walk():
            iterations.append(0)
            if mode == "global":
                return [value for value, _ in partial_ot_global_path(t, s, cost, grid)]
            return [plan_set.objective for plan_set in
                    partial_ot_beta_split_path(t, conds, p, grid, costs)]

        monkeypatch.setattr(HighsModel, "run", counted)
        coarse = walk()
        monkeypatch.setattr(imdot.ot, "COARSE_MIN_ATOMS", 10**9)
        nearest = walk()
        for a, b in zip(coarse, nearest):
            assert abs(a - b) <= 1e-14 * abs(b), (a, b)
        assert iterations[0] < iterations[1], iterations


class TestGridWalk:
    GRID = np.array([0.0, 0.1, 0.25, 0.4, 0.7, 1.0])

    def walk(self, instance):
        target, conds, costs, p = instance
        return [sol for sol, _, _ in _solve_blocks(target, conds, costs, p, self.GRID)]

    def test_downward_walk_and_cold_agree(self, rng):
        instance = split_instance(rng)
        down = self.walk(instance)
        target, conds, costs, p = instance
        for e, budget in enumerate(self.GRID):
            ((cold, _, _),) = _solve_blocks(target, conds, costs, p, [budget])
            reference = dense(target, conds, costs, p, budget)
            for sol in (down[e], cold):
                assert close(sol.value, cold.value), (budget, sol.value, cold.value)
                assert close(sol.value, reference.value)
        # The downward walk starts at the largest budget and reuses its model.
        assert down[0].columns >= down[-1].columns
        assert all(sol.columns < reference.columns for sol in down)

    def test_global_capacities_walked_on_one_model(self, rng):
        target = DiscreteMeasure(rng.uniform(-2, 2, (30, 2)), weights(rng, 30, "dyadic"))
        source = DiscreteMeasure(rng.uniform(-2, 2, (35, 2)), weights(rng, 35, "zero_atom"))
        cost = cost_matrix(target.points, source.points)
        betas = [0.0, 0.3, 1.49, 3.0]
        walked = _solve_blocks(target, [source], [cost], np.ones(1), betas)
        for (sol, _, _), beta in zip(walked, betas):
            reference = dense(target, [source], [cost], np.ones(1), beta)
            assert close(sol.value, reference.value)

    def test_global_relaxation_is_the_one_class_split(self, rng):
        # One LP: the source at capacity scale 1, its one beta column taking
        # the whole budget.  60 atoms, so both walks take the coarse start.
        target = DiscreteMeasure(rng.uniform(-2, 2, (60, 2)), weights(rng, 60, "dyadic"))
        source = DiscreteMeasure(rng.uniform(-2, 2, (70, 2)), weights(rng, 70, "zero_atom"))
        cost = cost_matrix(target.points, source.points)
        walked = partial_ot_global_path(target, source, cost, self.GRID)
        split = partial_ot_beta_split_path(target, [source], [1.0], self.GRID, [cost])
        for (value, plan), plan_set in zip(walked, split):
            assert value == plan_set.objective
            assert np.array_equal(plan, plan_set.plans[0])

    def test_a_global_walk_changes_only_the_budget_row(self, monkeypatch, rng):
        target = DiscreteMeasure(rng.uniform(-2, 2, (30, 2)), weights(rng, 30, "dyadic"))
        source = DiscreteMeasure(rng.uniform(-2, 2, (35, 2)), weights(rng, 35, "zero_atom"))
        cost = cost_matrix(target.points, source.points)
        changed = []
        set_row_bounds = HighsModel.set_row_bounds

        def recorded(model, rows, lower, upper):
            changed.append(list(rows))
            return set_row_bounds(model, rows, lower, upper)

        monkeypatch.setattr(HighsModel, "set_row_bounds", recorded)
        partial_ot_global_path(target, source, cost, [0.25, 0.5, 0.75, 1.0])
        # Rows: 30 targets, 35 capacities, then the budget row.
        assert changed == [[30 + 35]] * 3

    def test_path_is_the_one_budget_call_per_entry(self, rng):
        target, conds, costs, p = split_instance(rng, n_t=15, sizes=(6, 0, 9))
        path = partial_ot_beta_split_path(target, conds, p, self.GRID, costs)
        assert len(path) == len(self.GRID)
        for budget, plan_set in zip(self.GRID, path):
            one = partial_ot_beta_split(target, conds, p, budget, costs)
            assert close(plan_set.objective, one.objective)
            assert plan_set.beta.sum() == pytest.approx(budget, abs=1e-8)
        assert partial_ot_beta_split_path(target, conds, p, [], costs) == []

    def test_paths_match_the_dense_lp_under_both_simplex_methods(self, monkeypatch, rng):
        target, conds, costs, p = split_instance(rng)
        # The same classes with the last one moved far from every target:
        # none of its arcs is among the nearest, so only the corner support
        # and pricing bring them in.
        far = [*conds[:-1], DiscreteMeasure(conds[-1].points + 50.0, conds[-1].weights)]
        far_costs = [cost_matrix(target.points, c.points) for c in far]
        cost = np.hstack([c.entries for c in far_costs])
        assert np.all(np.sort(cost, axis=1)[:, NEAREST_ARCS - 1] < far_costs[-1].entries.min())
        source = DiscreteMeasure(np.vstack([c.points for c in conds]),
                                 np.concatenate([c.weights for c in conds]) / 2)
        cost = cost_matrix(target.points, source.points)
        # The dense references run on HighsModel too, so they are solved
        # before the walks' runs are recorded.
        split_references = [
            [dense(target, classes, class_costs, p, budget).value
             for budget in self.GRID]
            for classes, class_costs in ((conds, costs), (far, far_costs))]
        global_references = [
            dense(target, [source], [cost], np.ones(1), beta).value
            for beta in self.GRID]

        strategies = []
        run = HighsModel.run

        def recorded(model):
            result = run(model)
            option = model._highs.getOptionValue
            assert option("simplex_dual_edge_weight_strategy")[1] == DEVEX_PRICING
            strategies.append(option("simplex_strategy")[1])
            return result

        monkeypatch.setattr(HighsModel, "run", recorded)
        # HiGHS's own choice of simplex, then dual simplex on every run.
        for strategy in (CHOOSE_SIMPLEX, DUAL_SIMPLEX):
            monkeypatch.setattr(imdot.lp, "CHOOSE_SIMPLEX", strategy)
            strategies.clear()
            for (classes, class_costs), references in zip(
                    ((conds, costs), (far, far_costs)), split_references):
                path = partial_ot_beta_split_path(target, classes, p, self.GRID, class_costs)
                for plan_set, reference in zip(path, references):
                    assert close(plan_set.objective, reference, rel=1e-9)
            path = partial_ot_global_path(target, source, cost, self.GRID)
            for (value, _), reference in zip(path, global_references):
                assert close(value, reference, rel=1e-9)
            # At least one run per entry of each walk, each under the strategy.
            assert len(strategies) >= 3 * len(self.GRID)
            assert set(strategies) == {strategy}

    def test_negative_budget_in_the_grid(self, rng):
        target, conds, costs, p = split_instance(rng, n_t=5, sizes=(2, 0, 3))
        with pytest.raises(ValueError, match="nonnegative"):
            partial_ot_beta_split_path(target, conds, p, [0.5, -0.1], costs)


class TestSimplexPath:
    """A certified value does not depend on which simplex HiGHS ran.

    Each walk runs under HiGHS's own choice of simplex (primal after a
    pricing round, from a basis still primal feasible) and with every run
    taking dual simplex.  The draws are K = 3,
    n = 300 toy pairs on which pricing at the certificate's bound,
    ``-dual_tolerance(c)``, ended the two rules 2.4e-11 (global walk,
    beta = 0.25) and 8.8e-12 (split walk, beta = 0) apart.
    """

    GRID = (0.0, 0.25, 0.5, 1.0)

    @pytest.mark.parametrize("mode, draw, beta", [("global", 2, 0.25), ("split", 3, 0.0)])
    def test_both_simplex_rules_end_at_the_dense_optimum(self, monkeypatch, mode,
                                                         draw, beta):
        seed = int(draw_seeds(2024, 6)[draw])
        source, target = generate_pair(ToyConfig(n_classes=3, n_source=300,
                                                 n_target=300, seed=seed))
        t, s = empirical_measure(target), empirical_measure(source)
        conds, p = class_conditionals(source)
        cost = cost_matrix(target.points, source.points)
        costs = [cost_matrix(target.points, cond.points) for cond in conds]

        def walk():
            if mode == "global":
                return [value for value, _ in partial_ot_global_path(t, s, cost, self.GRID)]
            return [plan_set.objective for plan_set in
                    partial_ot_beta_split_path(t, conds, p, self.GRID, costs)]

        default = walk()
        # Every run takes dual simplex, also after a pricing round.
        monkeypatch.setattr(imdot.lp, "CHOOSE_SIMPLEX", DUAL_SIMPLEX)
        all_dual = walk()
        monkeypatch.undo()
        for a, b in zip(default, all_dual):
            assert abs(a - b) <= 1e-14 * abs(b), (a, b)
        if mode == "global":
            reference = dense(t, [s], [cost], np.ones(1), beta)
        else:
            reference = dense(t, conds, costs, p, beta)
        e = self.GRID.index(beta)
        for value in (default[e], all_dual[e]):
            assert abs(value - reference.value) <= 1e-12 * reference.value


#: One split walk over the 90k arcs of a K = 3, n = 300 toy pair, from the
#: coarse start, printing the reprs of its objectives and of their
#: certificates' duality gaps.
SPLIT_WALK = """
import numpy as np
from imdot.datagen import ToyConfig, draw_seeds, generate_pair
from imdot.measures import class_conditionals, cost_matrix, empirical_measure
from imdot.ot import _solve_blocks

seed = int(draw_seeds(3000, 1)[0])
source, target = generate_pair(ToyConfig(n_classes=3, n_source=300, n_target=300, seed=seed))
conds, p = class_conditionals(source)
costs = [cost_matrix(target.points, cond.points) for cond in conds]
walk = _solve_blocks(empirical_measure(target), conds, costs, p, (0.25, 0.5, 0.75, 1.0))
print([(repr(sol.value), repr(sol.gap)) for sol, _, _ in walk])
"""


def test_objectives_do_not_depend_on_the_blas_thread_count():
    # A dot product over more than about 10k entries runs threaded in
    # OpenBLAS, and its rounding follows the thread count; the objective
    # and the dual objective of the certificate are correctly rounded sums
    # instead, so neither the value nor the gap moves.
    src = str(Path(imdot.lp.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        printed.append(subprocess.run([sys.executable, "-c", SPLIT_WALK], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert printed[0] and printed[0] == printed[1]


class TestCertificate:
    """Planted faults: the full-arc certificate is independent of pricing."""

    def captured(self, monkeypatch, rng):
        """``(lp, x, row_dual)`` of a split walk at budget 0.3: its dense LP
        over every arc, the walk's ``x`` scattered over every column, and
        the row duals that the model's certificate accepted.  ``lp.certify``
        accepts them on the dense LP too."""
        seen = []

        def capture(lp, x, row_dual, c_norm=None):
            seen.append(row_dual)
            return certify(lp, x, row_dual, c_norm)

        monkeypatch.setattr(imdot.lp, "certify", capture)
        target, conds, costs, p = split_instance(rng)
        ((sol, _, _),) = _solve_blocks(target, conds, costs, p, [0.3])
        monkeypatch.undo()
        (row_dual,) = seen
        lp = dense_lp(target, [c.weights for c in conds], costs, p, 0.3)
        assert certify(lp, sol.x, row_dual) == (sol.value, sol.residual, sol.gap)
        return lp, sol.x, row_dual

    def test_pricing_that_misses_arcs_is_caught(self, monkeypatch, rng):
        # Pricing that never adds an arc stops at the restricted optimum of
        # the initial support, which some arc outside the model beats.  The
        # model's columns pass their certificate; the pricing pass does not,
        # and neither does the dense LP's certificate of the scattered plan.
        target, conds, costs, p = split_instance(rng)
        seen, starts = [], []
        solve_path = imdot.ot.solve_path

        def capture(lp, x, row_dual, c_norm=None):
            seen.append((x, row_dual))
            return certify(lp, x, row_dual, c_norm)

        def recorded(lp, bounds, initial, price):
            starts.append(np.unique(initial))
            return solve_path(lp, bounds, initial, price)

        monkeypatch.setattr(imdot.lp, "certify", capture)
        monkeypatch.setattr(imdot.ot, "solve_path", recorded)
        monkeypatch.setattr(imdot.ot, "pricing_tolerance", lambda c: np.inf)
        with pytest.raises(LpError, match="reduced cost"):
            _solve_blocks(target, conds, costs, p, [0.3])
        monkeypatch.undo()
        ((x_model, row_dual),), (start,) = seen, starts
        lp = dense_lp(target, [c.weights for c in conds], costs, p, 0.3)
        assert len(start) < lp.n_vars
        x = np.zeros(lp.n_vars)
        x[start] = x_model
        with pytest.raises(LpError, match="reduced cost"):
            certify(lp, x, row_dual)

    def test_an_arc_outside_the_model_that_prices_out(self, monkeypatch, rng):
        lp, x, row_dual = self.captured(monkeypatch, rng)
        _, residual, gap = certify(lp, x, row_dual)
        reduced = lp.c - lp.A.T @ row_dual
        # The unused arc whose reduced cost is largest: far from the
        # restricted model's support.  The first three columns are beta.
        unused = 3 + np.flatnonzero(x[3:] == 0)
        j = unused[np.argmax(reduced[unused])]
        c = lp.c.copy()
        c[j] -= reduced[j] + 1e-3
        with pytest.raises(LpError, match=f"column {j} has reduced cost"):
            certify(LinearProgram(c, lp.A, lp.row_lower, lp.row_upper), x, row_dual)

    def test_perturbed_duals(self, monkeypatch, rng):
        lp, x, row_dual = self.captured(monkeypatch, rng)
        n_t = 40
        # Raising the dual of the heaviest target prices out its used arcs.
        duals = row_dual.copy()
        duals[np.argmax(lp.row_upper[:n_t])] += 1e-3
        with pytest.raises(LpError, match="reduced cost"):
            certify(lp, x, duals)
        # A capacity dual of the wrong sign on a `<=` row; the target duals
        # fall by as much, so no reduced cost turns negative.
        duals = row_dual.copy()
        shift = 1e-3 - duals[n_t]
        duals[n_t] += shift
        duals[:n_t] -= shift
        with pytest.raises(LpError, match="wrong sign"):
            certify(lp, x, duals)

    def test_broken_marginal(self, monkeypatch, rng):
        lp, x, row_dual = self.captured(monkeypatch, rng)
        broken = x.copy()
        broken[np.flatnonzero(broken > 1e-6)[0]] *= 0.5
        with pytest.raises(LpError, match="feasibility"):
            certify(lp, broken, row_dual)

    def test_nan_in_the_plan(self, monkeypatch, rng):
        lp, x, row_dual = self.captured(monkeypatch, rng)
        broken = x.copy()
        broken[np.flatnonzero(broken > 1e-6)[0]] = np.nan
        with pytest.raises(LpError, match="feasibility"):
            certify(lp, broken, row_dual)

    def test_nan_in_a_row_dual(self, monkeypatch, rng):
        lp, x, row_dual = self.captured(monkeypatch, rng)
        for i in (0, len(row_dual) - 1):   # a target row and the budget row
            duals = row_dual.copy()
            duals[i] = np.nan
            with pytest.raises(LpError):
                certify(lp, x, duals)

    def test_nan_in_a_verified_plan(self):
        target = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        plan, capacity = np.diag([0.5, 0.5]), np.array([0.5, 0.5])
        _verify_plan(target, capacity, plan)
        for entry in ((0, 0), (0, 1)):
            broken = plan.copy()
            broken[entry] = np.nan
            with pytest.raises(LpError):
                _verify_plan(target, capacity, broken)


class TestModelCertificate:
    """A walk certifies its model's columns at the scale of every arc, and
    takes every other arc's certificate from the pricing pass that ended
    the entry; that is ``lp.certify`` on the dense LP, to the bit."""

    @staticmethod
    def instance(rng, mode):
        """``(target, sources, costs, cap_scale)`` with 8 to 12 atoms a
        side: one block, or a split with an empty middle class."""
        n_t = int(rng.integers(8, 13))
        target = DiscreteMeasure(rng.uniform(-2, 2, (n_t, 2)), weights(rng, n_t, "zero_atom"))
        if mode == "global":
            sizes, cap_scale = [int(rng.integers(8, 13))], np.ones(1)
        else:
            sizes, cap_scale = [int(rng.integers(4, 7)), 0, int(rng.integers(4, 7))], \
                np.array([0.5, 0.0, 0.5])
        sources = [DiscreteMeasure(rng.uniform(-2, 2, (n, 2)),
                                   weights(rng, n, "dyadic") if n else np.empty(0))
                   for n in sizes]
        return target, sources, [cost_matrix(target.points, c.points) for c in sources], \
            cap_scale

    @pytest.mark.parametrize("mode", ["global", "split"])
    @pytest.mark.parametrize("lifted", [False, True])
    def test_the_model_certificate_is_the_dense_one(self, monkeypatch, rng, mode, lifted):
        # A lowered floor gives these small targets the coarse start.
        if lifted:
            monkeypatch.setattr(imdot.ot, "COARSE_MIN_ATOMS", 4)
        lifts = TestCoarseStart.recorded_lifts(monkeypatch)
        seen = []

        def capture(lp, x, row_dual, c_norm=None):
            seen.append((row_dual, c_norm))
            return certify(lp, x, row_dual, c_norm)

        monkeypatch.setattr(imdot.lp, "certify", capture)
        budgets = np.array([0.25, 0.0, 1.0, 0.6])
        partial = 0
        for _ in range(6):
            target, sources, costs, cap_scale = self.instance(rng, mode)
            seen.clear()
            walked = _solve_blocks(target, sources, costs, cap_scale, budgets)
            # The fine walk certifies last, from the largest budget down.
            order = np.argsort(-budgets, kind="stable")
            for e, (row_dual, c_norm) in zip(order, seen[-len(budgets):]):
                sol = walked[e][0]
                lp = dense_lp(target, [c.weights for c in sources], costs, cap_scale,
                              budgets[e])
                assert c_norm == lp.c_norm
                assert certify(lp, sol.x, row_dual) == (sol.value, sol.residual, sol.gap)
                partial += sol.columns < lp.n_vars
        assert partial > 0
        assert any(lift is not None for _, lift in lifts) == lifted

    def test_a_model_with_every_arc_is_not_priced(self, monkeypatch, rng):
        # No more sources than NEAREST_ARCS: the start holds every arc.
        n = imdot.ot.NEAREST_ARCS
        target, source = (DiscreteMeasure(rng.uniform(-2, 2, (n, 2)), np.full(n, 1 / n))
                          for _ in range(2))
        cost = cost_matrix(target.points, source.points)

        def priced(reduced, tol):
            raise AssertionError("a model with every arc was priced")

        monkeypatch.setattr(imdot.ot, "_priced_arcs", priced)
        for value, _ in partial_ot_global_path(target, source, cost, [0.0, 0.5]):
            assert value >= 0.0


class TestObservability:
    def test_residual_and_gap_within_their_bounds_on_both_paths(self, rng):
        target, conds, costs, p = split_instance(rng)
        lp = dense_lp(target, [c.weights for c in conds], costs, p, 0.4)
        ((colgen, _, _),) = _solve_blocks(target, conds, costs, p, [0.4])
        dense_sol = solve(lp)
        scale = 1.0 + np.max(np.abs(lp.row_upper))
        for sol in (colgen, dense_sol):
            assert 0.0 <= sol.residual <= FEASIBILITY_TOL * scale
            assert 0.0 <= sol.gap <= GAP_TOL * (1.0 + abs(sol.value))
        assert (dense_sol.rounds, dense_sol.columns) == (1, lp.n_vars)
        assert colgen.rounds >= 1 and colgen.columns < lp.n_vars

    def test_small_assignment_takes_one_round_on_every_arc(self, rng):
        # With no more sources than NEAREST_ARCS the initial support is every
        # arc, so the first run is already optimal on the full problem.
        n = 6
        target = DiscreteMeasure(rng.uniform(-2, 2, (n, 2)), np.full(n, 1 / n))
        source = DiscreteMeasure(rng.uniform(-2, 2, (n, 2)), np.full(n, 1 / n))
        cost = cost_matrix(target.points, source.points)
        ((sol, _, _),) = _solve_blocks(target, [source], [cost], np.ones(1), [0.0])
        assert n <= imdot.ot.NEAREST_ARCS
        assert (sol.rounds, sol.columns) == (1, 1 + n * n)
        assert sol.residual <= FEASIBILITY_TOL and sol.gap <= GAP_TOL * (1 + sol.value)


def test_infeasible_capacity_is_reported():
    # Capacity 0.5 against a unit target: infeasible on every support.
    target = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    source = DiscreteMeasure([[0.0, 1.0], [2.0, 2.0]], [0.25, 0.25])
    cost = cost_matrix(target.points, source.points)
    with pytest.raises(LpError, match="^transport LP ended infeasible; target mass 1.0, "
                                      "total capacity 0.5$"):
        _solve_blocks(target, [source], [cost], np.ones(1), [0.0])
    # A walk solves beta = 1 (capacity 1.0) first and names the entry that
    # fails after it, beta = 0.5.
    with pytest.raises(LpError, match="total capacity 0.75$"):
        partial_ot_global_path(target, source, cost, [0.5, 1.0])
