import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import imdot.ot
from imdot import checks
from imdot.checks import dyadic_weights, random_points, random_transport_instance
from imdot.datagen import shared_atom_label_shift
from imdot.lp import LinearProgram, LpError, solve
from imdot.measures import CostMatrix, DiscreteMeasure, cost_matrix, mix
from imdot.ot import (
    _ArcGrid,
    _beta_columns,
    lipschitz_imd_dual,
    partial_ot_beta_split,
    partial_ot_beta_split_path,
    partial_ot_global,
    partial_ot_global_path,
    partial_ot_per_class,
    plan_set_to_dict,
    support_distance_imd,
    wasserstein1,
)

from reference import brute_force_transport_value, dense_lp


def two_atom_instance():
    """T = delta_a; S = (a: 1/2, b: 1/2) with d(a, b) = 1."""
    target = DiscreteMeasure([[0.0, 0.0]], [1.0])
    source = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    return target, source, cost_matrix(target.points, source.points)


class TestWasserstein1:
    def test_identity(self, rng):
        pts = random_points(rng, 5)
        m = DiscreteMeasure(pts, dyadic_weights(rng, 5, normalize=True))
        value, plan = wasserstein1(m, m, cost_matrix(pts, pts))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert plan.sum() == pytest.approx(1.0, abs=1e-8)

    def test_singleton_transport(self):
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        s = DiscreteMeasure([[3.0, 4.0]], [1.0])
        value, _ = wasserstein1(t, s, cost_matrix(t.points, s.points))
        assert value == pytest.approx(5.0)

    def test_mass_mismatch(self):
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        s = DiscreteMeasure([[1.0, 0.0]], [0.5])
        with pytest.raises(ValueError):
            wasserstein1(t, s, cost_matrix(t.points, s.points))

    def test_masses_within_tolerance(self):
        t = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        for gap in (5e-11, -5e-11):
            s = DiscreteMeasure([[0.0, 1.0], [1.0, 1.0]], [0.5, 0.5 + gap])
            value, _ = wasserstein1(t, s, cost_matrix(t.points, s.points))
            assert value == pytest.approx(1.0, abs=1e-9)
        for gap in (2e-10, -2e-10):
            s = DiscreteMeasure([[0.0, 1.0], [1.0, 1.0]], [0.5, 0.5 + gap])
            with pytest.raises(ValueError, match="mass mismatch"):
                wasserstein1(t, s, cost_matrix(t.points, s.points))

    def test_uniform_weights_match_vertex_enumeration(self, rng):
        for n_t, n_s in ((2, 3), (3, 2), (4, 2), (3, 4)):
            t = DiscreteMeasure(random_points(rng, n_t), np.full(n_t, 1 / n_t))
            s = DiscreteMeasure(random_points(rng, n_s), np.full(n_s, 1 / n_s))
            cost = cost_matrix(t.points, s.points)
            value, plan = wasserstein1(t, s, cost)
            brute = brute_force_transport_value(cost.entries, t.weights, s.weights)
            assert value == pytest.approx(brute, abs=1e-9)
            assert np.max(np.abs(plan.sum(axis=0) - s.weights)) <= 1e-12

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(5):
            pts_t, pts_s = random_points(rng, 3), random_points(rng, 3)
            t = DiscreteMeasure(pts_t, dyadic_weights(rng, 3, normalize=True))
            s = DiscreteMeasure(pts_s, dyadic_weights(rng, 3, normalize=True))
            cost = cost_matrix(pts_t, pts_s)
            value, _ = wasserstein1(t, s, cost)
            brute = brute_force_transport_value(cost.entries, t.weights, s.weights)
            assert value == pytest.approx(brute, abs=1e-9)


class TestPartialGlobal:
    def test_beta_zero_equals_wasserstein(self, rng):
        pts_t, pts_s = random_points(rng, 4), random_points(rng, 5)
        t = DiscreteMeasure(pts_t, dyadic_weights(rng, 4, normalize=True))
        s = DiscreteMeasure(pts_s, dyadic_weights(rng, 5, normalize=True))
        cost = cost_matrix(pts_t, pts_s)
        w1, _ = wasserstein1(t, s, cost)
        v0, _ = partial_ot_global(t, s, cost, 0.0)
        assert v0 == pytest.approx(w1, abs=1e-8)

    def test_two_atom_hand_lp(self):
        target, source, cost = two_atom_instance()
        v0, _ = partial_ot_global(target, source, cost, 0.0)
        v1, _ = partial_ot_global(target, source, cost, 1.0)
        assert v0 == pytest.approx(0.5, abs=1e-9)
        assert v1 == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_beta(self, rng):
        # also: equal to per-class OT at beta * p, and split dominance
        passed, detail = checks.ot_monotonicity_and_split_dominance(rng, 10)
        assert passed, detail

    def test_negative_beta(self):
        target, source, cost = two_atom_instance()
        with pytest.raises(ValueError):
            partial_ot_global(target, source, cost, -0.5)
        # True would be beta = 1.
        with pytest.raises(ValueError, match="^beta must be a number, got True$"):
            partial_ot_global(target, source, cost, True)

    def test_path_is_the_one_entry_call_per_relaxation(self, rng):
        target, source, _, _, _ = random_transport_instance(rng)
        cost = cost_matrix(target.points, source.points)
        grid = [0.0, 0.1, 0.5, 1.0, 3.0]
        path = partial_ot_global_path(target, source, cost, grid)
        assert len(path) == len(grid)
        for beta, (value, plan) in zip(grid, path):
            one, _ = partial_ot_global(target, source, cost, beta)
            assert value == pytest.approx(one, rel=1e-12, abs=1e-12)
            assert np.max(plan.sum(axis=0) - (1 + beta) * source.weights) <= 1e-8
        assert partial_ot_global_path(target, source, cost, []) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_relaxations_must_be_finite(rng, bad):
    target, source, conds, p, costs = random_transport_instance(rng)
    cost = cost_matrix(target.points, source.points)
    beta_vec = np.zeros(len(p))
    beta_vec[-1] = bad
    calls = [
        ("beta", lambda: partial_ot_global(target, source, cost, bad)),
        ("beta_grid", lambda: partial_ot_global_path(target, source, cost, [0.5, bad])),
        ("beta_vec", lambda: partial_ot_per_class(target, conds, p, beta_vec, costs)),
        ("beta_total", lambda: partial_ot_beta_split(target, conds, p, bad, costs)),
        ("beta_grid", lambda: partial_ot_beta_split_path(target, conds, p, [bad], costs)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_proportions_must_be_finite_and_nonnegative(rng, bad):
    target, source, conds, p, costs = random_transport_instance(rng)
    p = np.array(p, dtype=float)
    p[0] = bad
    beta_vec = np.zeros(len(p))
    calls = [
        lambda: partial_ot_per_class(target, conds, p, beta_vec, costs),
        lambda: partial_ot_beta_split(target, conds, p, 0.5, costs),
        lambda: partial_ot_beta_split_path(target, conds, p, [0.0, 0.5], costs),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^proportions must be finite and nonnegative"):
            call()


class TestPartialPerClass:
    def test_beta_zero_equals_wasserstein(self, rng):
        passed, detail = checks.ot_beta_zero_degeneracy(rng, 5)
        assert passed, detail

    def test_shared_atom_thresholds(self):
        passed, detail = checks.ot_label_shift_thresholds(None, 1)
        assert passed, detail

    def test_empty_class_with_relaxation(self, rng):
        target = DiscreteMeasure(random_points(rng, 3),
                                 dyadic_weights(rng, 3, normalize=True))
        atoms = random_points(rng, 4)
        conds = [DiscreteMeasure(atoms, np.full(4, 0.25)),
                 DiscreteMeasure(np.empty((0, 2)), np.empty(0))]
        p = np.array([1.0, 0.0])
        costs = [cost_matrix(target.points, c.points) for c in conds]
        plan_set = partial_ot_per_class(target, conds, p, [0.0, 0.7], costs)
        assert plan_set.plans[1].shape == (3, 0)

    def test_plan_invariants(self, rng):
        target, _, conds, p, costs = random_transport_instance(rng)
        beta_vec = rng.uniform(0, 1, size=len(p))
        plan_set = partial_ot_per_class(target, conds, p, beta_vec, costs)
        row_sum = sum(plan.sum(axis=1) for plan in plan_set.plans)
        assert np.max(np.abs(row_sum - target.weights)) <= 1e-8
        for k, plan in enumerate(plan_set.plans):
            if plan.size:
                assert plan.min() >= -1e-12
                caps = (p[k] + beta_vec[k]) * conds[k].weights
                assert np.max(plan.sum(axis=0) - caps) <= 1e-8


class TestBetaSplit:
    def test_zero_budget_is_classic(self, rng):
        target, source, conds, p, costs = random_transport_instance(rng)
        plan_set = partial_ot_beta_split(target, conds, p, 0.0, costs)
        w1, _ = wasserstein1(target, source,
                             cost_matrix(target.points, source.points))
        assert plan_set.objective == pytest.approx(w1, abs=1e-8)
        assert np.allclose(plan_set.beta, 0.0, atol=1e-9)

    def test_label_shift_puts_slack_on_deficit(self):
        source, conds, target = shared_atom_label_shift(
            [[[0.0, 0.0]], [[1.0, 0.0]]], [0.8, 0.2], [0.5, 0.5])
        costs = [cost_matrix(target.points, c.points) for c in conds]
        plan_set = partial_ot_beta_split(target, conds, [0.8, 0.2], 0.3, costs)
        assert plan_set.objective == pytest.approx(0.0, abs=1e-9)
        assert np.sum(plan_set.beta) == pytest.approx(0.3, abs=1e-8)

    def test_plan_export(self, rng):
        target, _, conds, p, costs = random_transport_instance(rng)
        plan_set = partial_ot_beta_split(target, conds, p, 0.5, costs)
        data = plan_set_to_dict(plan_set)
        assert set(data) == {"beta", "objective", "plans"}
        total = sum(m for block in data["plans"] for _, _, m in block["triplets"])
        assert total == pytest.approx(target.total_mass, abs=1e-6)


class TestBlockAssembly:
    """The LP handed to HiGHS for two classes of sizes (2, 3) and two targets.

    Arc (i, j) of the concatenated source (class 1's two atoms, then class
    2's three) is column 5 i + j: x[0, 0] .. x[0, 4], then x[1, 0] ..
    x[1, 4].  beta_1, beta_2 come first, ahead of the arcs, and the budget
    row last; without a split the budget is 0, which pins both at zero.
    The program's LP and the tests' dense reference must both be this one.
    """

    PLAN_ROWS = [[1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]]
    CAP_ROWS = np.hstack([np.eye(5), np.eye(5)]).tolist()
    # capacity columns -w_k (class 2 has a zero-weight atom) and budget row
    SPLIT_COLS = [[0, 0], [0, 0],
                  [-0.25, 0], [-0.75, 0],
                  [0, -0.5], [0, -0.5], [0, 0],
                  [1, 1]]

    @staticmethod
    def running_lp(target, cond_weights, costs, cap_scale, budget):
        """The LP of a walk whose model holds every arc: the columns of
        ``_ArcGrid`` and the rows of ``_beta_columns`` plus the budget row,
        as ``_walk_blocks`` hands them to ``lp.solve_path``."""
        betas, lower, upper = _beta_columns(target, cond_weights, cap_scale)
        grid = _ArcGrid(np.hstack([cost.entries for cost in costs]), betas)
        c, starts, rows, values, col_lower, col_upper = grid.columns(np.arange(grid.n_vars))
        A = sp.csc_matrix((values, rows, starts), shape=(len(upper) + 1, grid.n_vars))
        return LinearProgram(c, A, np.append(lower, budget), np.append(upper, budget),
                             col_lower, col_upper)

    def assembled(self, budget):
        target = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        weights = [np.array([0.25, 0.75]), np.array([0.5, 0.5, 0.0])]
        costs = [CostMatrix(np.arange(4.0).reshape(2, 2)),
                 CostMatrix(np.arange(6.0).reshape(2, 3))]
        lps = [build(target, weights, costs, np.array([0.5, 0.5]), budget)
               for build in (self.running_lp, dense_lp)]
        for lp in lps:
            solve(lp)
            assert lp.A.has_canonical_format
        return lps

    def test_without_split(self):
        expected = np.hstack([self.SPLIT_COLS,
                              self.PLAN_ROWS + self.CAP_ROWS + [[0] * 10]])
        for lp in self.assembled(0.0):
            assert np.array_equal(lp.A.toarray(), expected)
            assert lp.A.nnz == np.count_nonzero(expected)
            assert np.array_equal(lp.row_lower, [0.5, 0.5] + [-np.inf] * 5 + [0.0])
            assert np.array_equal(lp.row_upper, [0.5, 0.5, 0.125, 0.375, 0.25, 0.25, 0.0, 0.0])
            assert np.array_equal(lp.c, [0, 0, 0, 1, 0, 1, 2, 2, 3, 3, 4, 5])

    def test_with_split(self):
        expected = np.hstack([self.SPLIT_COLS,
                              self.PLAN_ROWS + self.CAP_ROWS + [[0] * 10]])
        for lp in self.assembled(0.5):
            assert np.array_equal(lp.A.toarray(), expected)
            assert lp.A.nnz == np.count_nonzero(expected)
            assert np.array_equal(lp.row_lower, [0.5, 0.5] + [-np.inf] * 5 + [0.5])
            assert np.array_equal(lp.row_upper, [0.5, 0.5, 0.125, 0.375, 0.25, 0.25, 0.0, 0.5])
            assert np.array_equal(lp.c, [0, 0, 0, 1, 0, 1, 2, 2, 3, 3, 4, 5])

    def test_matches_the_kron_reference_on_random_shapes(self, rng):
        for _ in range(60):
            n_t = int(rng.integers(1, 6))
            sizes = rng.integers(0, 5, int(rng.integers(1, 5)))
            target = DiscreteMeasure(rng.uniform(-1, 1, (n_t, 2)), dyadic_weights(rng, n_t))
            cond_weights = [dyadic_weights(rng, n) if n else np.empty(0) for n in sizes]
            for w in cond_weights:
                w[rng.random(len(w)) < 0.3] = 0.0
            costs = [cost_matrix(target.points, rng.uniform(-1, 1, (n, 2))) for n in sizes]
            cap_scale = rng.uniform(0, 2, len(sizes))
            for budget in (0.0, float(rng.uniform(0, 1))):
                lp = self.running_lp(target, cond_weights, costs, cap_scale, budget)
                reference = dense_lp(target, cond_weights, costs, cap_scale, budget)
                for field in ("c", "row_lower", "row_upper", "lower", "upper"):
                    assert np.array_equal(getattr(lp, field), getattr(reference, field))
                assert lp.A.shape == reference.A.shape
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(lp.A, field), getattr(reference.A, field))
                assert lp.A.has_canonical_format


class TestCoordinateScales:
    """Zero-relaxation values of every entry point against vertex enumeration
    of the balanced LP, with coordinates scaled by 1e-6, 1 and 1e6 and a
    relative tolerance, on uniform weights and on dyadic weights with a
    zero-weight source atom."""

    REL_TOL = 1e-9

    def assert_close(self, value, brute):
        assert abs(value - brute) <= self.REL_TOL * brute, (value, brute)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("weights", ["uniform", "dyadic"])
    def test_wasserstein_and_global(self, rng, scale, weights):
        for _ in range(6):
            n_t, n_s = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            if weights == "uniform":
                w_t, w_s = np.full(n_t, 1 / n_t), np.full(n_s, 1 / n_s)
            else:
                w_t = dyadic_weights(rng, n_t, normalize=True)
                w_s = dyadic_weights(rng, n_s)
                w_s[int(rng.integers(n_s))] = 0.0
                w_s /= w_s.sum()
            t = DiscreteMeasure(scale * random_points(rng, n_t), w_t)
            s = DiscreteMeasure(scale * random_points(rng, n_s), w_s)
            cost = cost_matrix(t.points, s.points)
            brute = brute_force_transport_value(cost.entries, w_t, w_s)
            self.assert_close(wasserstein1(t, s, cost)[0], brute)
            self.assert_close(partial_ot_global(t, s, cost, 0.0)[0], brute)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_per_class_with_an_empty_class(self, rng, scale):
        empty = DiscreteMeasure(np.empty((0, 2)), np.empty(0))
        for case in range(6):
            n_t, n_s = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            t = DiscreteMeasure(scale * random_points(rng, n_t),
                                dyadic_weights(rng, n_t, normalize=True))
            cond = DiscreteMeasure(scale * random_points(rng, n_s),
                                   np.full(n_s, 1 / n_s))
            conds, p = ([cond, empty], [1.0, 0.0]) if case % 2 else \
                ([empty, cond], [0.0, 1.0])
            costs = [cost_matrix(t.points, c.points) for c in conds]
            brute = brute_force_transport_value(
                cost_matrix(t.points, cond.points).entries, t.weights, cond.weights)
            self.assert_close(partial_ot_per_class(
                t, conds, p, np.zeros(2), costs).objective, brute)
            self.assert_close(partial_ot_beta_split(
                t, conds, p, 0.0, costs).objective, brute)


class TestLipschitzDual:
    def test_identity_zero_potential(self, rng):
        pts = random_points(rng, 4)
        m = DiscreteMeasure(pts, dyadic_weights(rng, 4, normalize=True))
        value, potential = lipschitz_imd_dual(m, m)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert np.max(np.abs(potential.values)) <= 1e-8

    def test_deficit_instance(self):
        source, conds, target = shared_atom_label_shift(
            [[[0.0, 0.0]], [[1.0, 0.0]]], [0.8, 0.2], [0.5, 0.5])
        relaxed = mix(source, conds, [0.0, 0.29])
        value, _ = lipschitz_imd_dual(target, relaxed)
        assert value == pytest.approx(0.01, abs=1e-9)

    def test_primal_dual_agreement(self, rng):
        passed, detail = checks.ot_primal_dual_agreement(rng, 20)
        assert passed, detail

    def test_empty_source_errors(self):
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        s = DiscreteMeasure([[1.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            lipschitz_imd_dual(t, s)

    def nan_potential(self, monkeypatch, target, source, entry):
        def broken(lp):
            sol = solve(lp)
            x = sol.x.copy()
            x[entry] = np.nan
            return dataclasses.replace(sol, x=x)

        monkeypatch.setattr(imdot.ot, "solve", broken)
        lipschitz_imd_dual(target, source)

    def test_nan_potential_breaks_the_lipschitz_check(self, monkeypatch, rng):
        target = DiscreteMeasure(random_points(rng, 3), dyadic_weights(rng, 3, normalize=True))
        source = DiscreteMeasure(random_points(rng, 2), dyadic_weights(rng, 2, normalize=True))
        with pytest.raises(LpError, match="Lipschitz"):
            self.nan_potential(monkeypatch, target, source, 1)

    def test_nan_potential_breaks_the_sign_check(self, monkeypatch):
        # One shared atom: no Lipschitz row, so only the sign check sees it.
        m = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(LpError, match="negative on the source support"):
            self.nan_potential(monkeypatch, m, m, 0)


class TestSupportDistance:
    def test_contained_support(self, rng):
        pts = random_points(rng, 4)
        t = DiscreteMeasure(pts[:2], [0.5, 0.5])
        s = DiscreteMeasure(pts, np.full(4, 0.25))
        assert support_distance_imd(t, s) == 0.0

    def test_singleton(self):
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        s = DiscreteMeasure([[3.0, 4.0]], [1.0])
        assert support_distance_imd(t, s) == pytest.approx(5.0)

    def test_empty_source(self):
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            support_distance_imd(t, DiscreteMeasure(np.empty((0, 2)), np.empty(0)))

    def test_equals_zero_localized_dual(self, rng):
        passed, detail = checks.ot_support_distance_identity(rng, 20)
        assert passed, detail
