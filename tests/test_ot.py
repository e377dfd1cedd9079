import numpy as np
import pytest

from imdot import checks
from imdot.checks import dyadic_weights, random_points, random_transport_instance
from imdot.datagen import shared_atom_label_shift
import imdot.ot
from imdot.measures import CostMatrix, DiscreteMeasure, cost_matrix, mix
from imdot.ot import (
    _solve_blocks,
    _solve_blocks_highs,
    lipschitz_imd_dual,
    partial_ot_beta_split,
    partial_ot_global,
    partial_ot_per_class,
    plan_set_to_dict,
    support_distance_imd,
    wasserstein1,
)

from test_lp import brute_force_transport_value


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

    def test_uniform_weights_take_the_assignment_path(self, rng):
        for n_t, n_s in ((2, 3), (3, 2), (4, 2), (3, 4)):
            t = DiscreteMeasure(random_points(rng, n_t), np.full(n_t, 1 / n_t))
            s = DiscreteMeasure(random_points(rng, n_s), np.full(n_s, 1 / n_s))
            cost = cost_matrix(t.points, s.points)
            sol, _, _ = _solve_blocks(t, [s.weights], [cost], np.ones(1))
            assert sol.backend == "assignment"
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

    Plan variables are row-major inside each class block: class 1 holds
    x[0,0], x[0,1], x[1,0], x[1,1] and class 2 x[0,0] .. x[1,2]; the split
    appends beta_1, beta_2.
    """

    PLAN_ROWS = [[1, 1, 0, 0, 1, 1, 1, 0, 0, 0],
                 [0, 0, 1, 1, 0, 0, 0, 1, 1, 1]]
    CAP_ROWS = [[1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 1, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 0, 1, 0, 0, 1]]
    # capacity columns -w_k (class 2 has a zero-weight atom) and budget row
    SPLIT_COLS = [[0, 0], [0, 0],
                  [-0.25, 0], [-0.75, 0],
                  [0, -0.5], [0, -0.5], [0, 0],
                  [1, 1]]

    def solve_captured(self, monkeypatch, budget):
        captured = []

        def capture(lp):
            captured.append(lp)
            return solve(lp)

        solve = imdot.ot.solve
        monkeypatch.setattr(imdot.ot, "solve", capture)
        target = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        weights = [np.array([0.25, 0.75]), np.array([0.5, 0.5, 0.0])]
        costs = [CostMatrix(np.arange(4.0).reshape(2, 2)),
                 CostMatrix(np.arange(6.0).reshape(2, 3))]
        sol = _solve_blocks_highs(target, weights, costs, np.array([0.5, 0.5]), budget)
        assert sol.status == "optimal"
        (lp,) = captured
        assert lp.A.has_canonical_format
        return lp

    def test_without_split(self, monkeypatch):
        lp = self.solve_captured(monkeypatch, None)
        expected = np.array(self.PLAN_ROWS + self.CAP_ROWS, dtype=float)
        assert np.array_equal(lp.A.toarray(), expected)
        assert lp.A.nnz == np.count_nonzero(expected)
        assert lp.relations == ("=",) * 2 + ("<=",) * 5
        assert np.array_equal(lp.b, [0.5, 0.5, 0.125, 0.375, 0.25, 0.25, 0.0])
        assert np.array_equal(lp.c, [0, 1, 2, 3, 0, 1, 2, 3, 4, 5])

    def test_with_split(self, monkeypatch):
        lp = self.solve_captured(monkeypatch, 0.5)
        expected = np.hstack([self.PLAN_ROWS + self.CAP_ROWS + [[0] * 10],
                              self.SPLIT_COLS])
        assert np.array_equal(lp.A.toarray(), expected)
        assert lp.A.nnz == np.count_nonzero(expected)
        assert lp.relations == ("=",) * 2 + ("<=",) * 5 + ("=",)
        assert np.array_equal(lp.b, [0.5, 0.5, 0.125, 0.375, 0.25, 0.25, 0.0, 0.5])
        assert np.array_equal(lp.c, [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 0, 0])


class TestCoordinateScales:
    """Zero-relaxation values of every entry point against vertex enumeration
    of the balanced LP, with coordinates scaled by 1e-6, 1 and 1e6 and a
    relative tolerance.  Uniform weights take the assignment backend and
    dyadic weights HiGHS."""

    REL_TOL = 1e-9

    def assert_close(self, value, brute):
        assert abs(value - brute) <= self.REL_TOL * brute, (value, brute)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("backend", ["assignment", "highs"])
    def test_wasserstein_and_global(self, rng, scale, backend):
        for _ in range(6):
            n_t, n_s = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            if backend == "assignment":
                w_t, w_s = np.full(n_t, 1 / n_t), np.full(n_s, 1 / n_s)
            else:
                w_t = dyadic_weights(rng, n_t, normalize=True)
                w_s = dyadic_weights(rng, n_s)
                w_s[int(rng.integers(n_s))] = 0.0
                w_s /= w_s.sum()
            t = DiscreteMeasure(scale * random_points(rng, n_t), w_t)
            s = DiscreteMeasure(scale * random_points(rng, n_s), w_s)
            cost = cost_matrix(t.points, s.points)
            sol, _, _ = _solve_blocks(t, [s.weights], [cost], np.ones(1))
            assert sol.backend == backend
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
