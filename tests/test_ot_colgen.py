"""Column generation against the dense LP over every arc.

Every LP-backed transport solve runs column generation on one warm HiGHS
model and is certified on the full problem.  The references here are the
dense LP of ``_assemble_blocks`` through ``lp.solve`` and, for small
balanced problems, vertex enumeration.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import imdot.ot
from imdot.checks import dyadic_weights
from imdot.lp import (
    DEVEX_PRICING,
    DUAL_SIMPLEX,
    FEASIBILITY_TOL,
    GAP_TOL,
    PRIMAL_SIMPLEX,
    HighsModel,
    LinearProgram,
    LpError,
    certify,
    solve,
)
from imdot.measures import DiscreteMeasure, cost_matrix
from imdot.ot import (
    NEAREST_ARCS,
    _assemble_blocks,
    _column_generation,
    _initial_arcs,
    _north_west_corner,
    _solve_blocks,
    _verify_plans,
    partial_ot_beta_split,
    partial_ot_beta_split_path,
    partial_ot_global_path,
)

from test_lp import brute_force_transport_value

BETAS = (0.0, 0.25, 1 / 3, 1.0, 1.49, 3.0)


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
    """``(target, cond_weights, costs, cap_scale, budget)``: continuous,
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
    conds = [points(rng, n, kind, pool) for n in sizes]
    cond_weights = [weights(rng, n, weight_kind) if n else np.empty(0) for n in sizes]
    p = dyadic_weights(rng, len(sizes)) * (np.array(sizes) > 0)
    p /= p.sum()
    costs = [cost_matrix(target.points, c) for c in conds]
    beta = draw(st.sampled_from(BETAS))
    if mode == "global":
        return target, cond_weights, costs, np.array([1.0 + beta]), None
    if mode == "per_class":
        return target, cond_weights, costs, p + beta * rng.random(len(p)), None
    return target, cond_weights, costs, p, beta


def dense(target, cond_weights, costs, cap_scale, budget):
    return solve(_assemble_blocks(target, cond_weights, costs, cap_scale, budget))


@settings(max_examples=200, deadline=None)
@given(problems())
def test_column_generation_matches_the_dense_lp(problem):
    target, cond_weights, costs, cap_scale, budget = problem
    reference = dense(*problem)
    (sol,) = _column_generation(target, cond_weights, costs, cap_scale[None, :],
                                None if budget is None else [budget])
    assert reference.status == sol.status == "optimal"
    assert close(sol.value, reference.value), (sol.value, reference.value)
    # Through the entry point, which also verifies the plans.
    ((checked, _, _),) = _solve_blocks(target, cond_weights, costs, cap_scale,
                                       None if budget is None else [budget])
    assert close(checked.value, reference.value)


def test_balanced_transport_matches_vertex_enumeration(rng):
    for kind in ("continuous", "lattice", "duplicates"):
        pool = rng.uniform(-2, 2, (2, 2))
        for n_t, n_s in ((1, 3), (2, 3), (3, 2), (3, 3)):
            target = DiscreteMeasure(points(rng, n_t, kind, pool),
                                     weights(rng, n_t, "dyadic"))
            w = weights(rng, n_s, "zero_atom")
            cost = cost_matrix(target.points, points(rng, n_s, kind, pool))
            (sol,) = _column_generation(target, [w], [cost], np.ones((1, 1)), None)
            brute = brute_force_transport_value(cost.entries, target.weights, w)
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
        w = weights(rng, n_s, "uniform")
        cost = cost_matrix(target.points, rng.integers(0, 4, (n_s, 2)) * 3.7)
        ((sol, _, _),) = _solve_blocks(target, [w], [cost], np.ones(1))
        reference = dense(target, [w], [cost], np.ones(1), None)
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


def split_blocks(rng, **sizes):
    target, conds, costs, p = split_instance(rng, **sizes)
    return target, [c.weights for c in conds], costs, p


def test_initial_arcs_are_the_nearest_over_all_classes_and_the_corner(rng):
    target, cond_weights, costs, p = split_blocks(rng, n_t=15, sizes=(6, 0, 9))
    cost = np.hstack([c.entries for c in costs])
    capacity = np.concatenate([s * w for s, w in zip(p, cond_weights)])
    rows, cols = _initial_arcs(cost, target.weights, capacity)
    m = min(NEAREST_ARCS, cost.shape[1])
    nearest = {(i, j) for i in range(len(cost)) for j in np.argsort(cost[i])[:m]}
    corner = set(zip(*_north_west_corner(target.weights, capacity)))
    assert corner and not corner <= nearest
    assert set(zip(rows, cols)) == nearest | corner


@pytest.mark.parametrize("budget", [0.3, None])
def test_columns_reach_highs_as_the_assembled_columns(monkeypatch, rng, budget):
    # K = 3 with an empty middle class and zero-weight atoms, with and
    # without the beta columns of a split.
    target, cond_weights, costs, p = split_blocks(rng, n_t=15, sizes=(6, 0, 9))
    assert all(np.any(w == 0) for w in cond_weights if len(w))
    added, add_columns = [], HighsModel.add_columns

    def recorded(model, cost, starts, indices, values):
        assert len(starts) > 1                       # no empty add
        for k in range(len(starts) - 1):
            span = slice(starts[k], starts[k + 1])
            added.append((float(cost[k]), tuple(np.asarray(indices)[span].tolist()),
                          tuple(np.asarray(values)[span].tolist())))
        return add_columns(model, cost, starts, indices, values)

    monkeypatch.setattr(HighsModel, "add_columns", recorded)
    (sol,) = _column_generation(target, cond_weights, costs, p[None, :],
                                None if budget is None else [budget])
    lp = _assemble_blocks(target, cond_weights, costs, p, budget)
    assembled = []
    for j in range(lp.n_vars):
        span = slice(lp.A.indptr[j], lp.A.indptr[j + 1])
        assembled.append((float(lp.c[j]), tuple(lp.A.indices[span].tolist()),
                          tuple(lp.A.data[span].tolist())))
    n_beta = 0 if budget is None else len(cond_weights)
    assert sol.status == "optimal" and len(added) == sol.columns
    # The beta columns first, then arcs, each an assembled column, none twice.
    assert added[:n_beta] == assembled[lp.n_vars - n_beta:]
    assert len(set(added)) == len(added)
    assert set(added) <= set(assembled)


class TestGridWalk:
    GRID = np.array([0.0, 0.1, 0.25, 0.4, 0.7, 1.0])

    def walk(self, instance):
        target, cond_weights, costs, p = instance
        scales = np.tile(p, (len(self.GRID), 1))
        return _column_generation(target, cond_weights, costs, scales, self.GRID)

    def test_downward_walk_and_cold_agree(self, rng):
        instance = split_blocks(rng)
        down = self.walk(instance)
        target, cond_weights, costs, p = instance
        for e, budget in enumerate(self.GRID):
            (cold,) = _column_generation(target, cond_weights, costs, p[None, :], [budget])
            reference = dense(target, cond_weights, costs, p, budget)
            for sol in (down[e], cold):
                assert sol.status == "optimal"
                assert close(sol.value, cold.value), (budget, sol.value, cold.value)
                assert close(sol.value, reference.value)
        # The downward walk starts at the largest budget and reuses its model.
        assert down[0].columns >= down[-1].columns
        assert all(sol.columns < reference.columns for sol in down)

    def test_global_capacities_walked_on_one_model(self, rng):
        target = DiscreteMeasure(rng.uniform(-2, 2, (30, 2)), weights(rng, 30, "dyadic"))
        source_w = weights(rng, 35, "zero_atom")
        cost = cost_matrix(target.points, rng.uniform(-2, 2, (35, 2)))
        scales = 1.0 + np.array([[0.0], [0.3], [1.49], [3.0]])
        walked = _column_generation(target, [source_w], [cost], scales, None)
        for sol, scale in zip(walked, scales):
            reference = solve(_assemble_blocks(target, [source_w], [cost], scale))
            assert close(sol.value, reference.value)

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
            [dense(target, [c.weights for c in classes], class_costs, p, budget).value
             for budget in self.GRID]
            for classes, class_costs in ((conds, costs), (far, far_costs))]
        global_references = [
            dense(target, [source.weights], [cost], np.array([1.0 + beta]), None).value
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
        for (classes, class_costs), references in zip(
                ((conds, costs), (far, far_costs)), split_references):
            path = partial_ot_beta_split_path(target, classes, p, self.GRID, class_costs)
            for plan_set, reference in zip(path, references):
                assert close(plan_set.objective, reference, rel=1e-9)
        path = partial_ot_global_path(target, source, cost, self.GRID)
        for (value, _), reference in zip(path, global_references):
            assert close(value, reference, rel=1e-9)
        # Dual simplex once per entry of each walk, primal after pricing rounds.
        assert strategies.count(DUAL_SIMPLEX) == 3 * len(self.GRID)
        assert PRIMAL_SIMPLEX in strategies

    def test_negative_budget_in_the_grid(self, rng):
        target, conds, costs, p = split_instance(rng, n_t=5, sizes=(2, 0, 3))
        with pytest.raises(ValueError, match="nonnegative"):
            partial_ot_beta_split_path(target, conds, p, [0.5, -0.1], costs)


class TestCertificate:
    """Planted faults: the full-arc certificate is independent of pricing."""

    def captured(self, monkeypatch, rng):
        seen = []

        def capture(lp, x, row_dual):
            seen.append((lp, x, row_dual))
            return certify(lp, x, row_dual)

        monkeypatch.setattr(imdot.ot, "certify", capture)
        target, cond_weights, costs, p = split_blocks(rng)
        _column_generation(target, cond_weights, costs, p[None, :], [0.3])
        monkeypatch.undo()
        (found,) = seen
        return found

    def test_pricing_that_misses_arcs_is_caught(self, monkeypatch, rng):
        # Pricing that never adds an arc stops at the restricted optimum of
        # the initial support, which some arc outside the model beats.
        target, cond_weights, costs, p = split_blocks(rng)
        monkeypatch.setattr(imdot.ot, "dual_tolerance", lambda c: np.inf)
        with pytest.raises(LpError, match="reduced cost"):
            _column_generation(target, cond_weights, costs, p[None, :], [0.3])

    def test_an_arc_outside_the_model_that_prices_out(self, monkeypatch, rng):
        lp, x, row_dual = self.captured(monkeypatch, rng)
        residual, gap = certify(lp, x, row_dual)
        reduced = lp.c - lp.A.T @ row_dual
        # The unused arc whose reduced cost is largest: far from the
        # restricted model's support.  The last three columns are beta.
        unused = np.flatnonzero(x[:-3] == 0)
        j = unused[np.argmax(reduced[unused])]
        c = lp.c.copy()
        c[j] -= reduced[j] + 1e-3
        with pytest.raises(LpError, match=f"column {j} has reduced cost"):
            certify(LinearProgram(c, lp.A, lp.relations, lp.b), x, row_dual)

    def test_perturbed_duals(self, monkeypatch, rng):
        lp, x, row_dual = self.captured(monkeypatch, rng)
        n_t = 40
        # Raising the dual of the heaviest target prices out its used arcs.
        duals = row_dual.copy()
        duals[np.argmax(lp.b[:n_t])] += 1e-3
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
        _verify_plans(target, [capacity], [1.0], [plan])
        for entry in ((0, 0), (0, 1)):
            broken = plan.copy()
            broken[entry] = np.nan
            with pytest.raises(LpError):
                _verify_plans(target, [capacity], [1.0], [broken])


class TestObservability:
    def test_residual_and_gap_within_their_bounds_on_both_paths(self, rng):
        target, cond_weights, costs, p = split_blocks(rng)
        lp = _assemble_blocks(target, cond_weights, costs, p, 0.4)
        ((colgen, _, _),) = _solve_blocks(target, cond_weights, costs, p, [0.4])
        dense_sol = solve(lp)
        scale = 1.0 + np.max(np.abs(lp.b))
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
        cost = cost_matrix(target.points, rng.uniform(-2, 2, (n, 2)))
        ((sol, _, _),) = _solve_blocks(target, [np.full(n, 1 / n)], [cost], np.ones(1))
        assert n <= imdot.ot.NEAREST_ARCS
        assert (sol.rounds, sol.columns) == (1, n * n)
        assert sol.residual <= FEASIBILITY_TOL and sol.gap <= GAP_TOL * (1 + sol.value)


def test_infeasible_capacity_is_reported():
    # Capacity 0.5 against a unit target: infeasible on every support.
    target = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    cost = cost_matrix(target.points, np.array([[0.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(LpError, match="infeasible"):
        _solve_blocks(target, [np.array([0.25, 0.25])], [cost], np.ones(1))
