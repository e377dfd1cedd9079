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
from imdot.lp import FEASIBILITY_TOL, GAP_TOL, LinearProgram, LpError, certify, solve
from imdot.measures import DiscreteMeasure, cost_matrix
from imdot.ot import (
    _assemble_blocks,
    _column_generation,
    _solve_blocks,
    partial_ot_beta_split,
    partial_ot_beta_split_path,
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


def weights(rng, n, zero_atom):
    w = dyadic_weights(rng, n)
    if zero_atom and n > 1:
        w[int(rng.integers(n))] = 0.0
    return w / w.sum()


@st.composite
def problems(draw):
    """``(target, cond_weights, costs, cap_scale, budget)``: continuous,
    lattice (cost ties) or duplicate atoms, ``n_t != n_s``, an empty class,
    a zero-weight atom, in global (one block), per-class or split mode."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "lattice", "duplicates"]))
    mode = draw(st.sampled_from(["global", "per_class", "split"]))
    zero_atom = draw(st.booleans())
    pool = rng.uniform(-2, 2, (3, 2))
    n_t = draw(st.integers(1, 8))
    target = DiscreteMeasure(points(rng, n_t, kind, pool), weights(rng, n_t, zero_atom))
    if mode == "global":
        sizes = [draw(st.integers(1, 8))]
    else:
        sizes = draw(st.lists(st.integers(0, 4), min_size=2, max_size=3))
        if not any(sizes):
            sizes[0] = 1
    conds = [points(rng, n, kind, pool) for n in sizes]
    cond_weights = [weights(rng, n, zero_atom) if n else np.empty(0) for n in sizes]
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
            target = DiscreteMeasure(points(rng, n_t, kind, pool), weights(rng, n_t, False))
            w = weights(rng, n_s, True)
            cost = cost_matrix(target.points, points(rng, n_s, kind, pool))
            (sol,) = _column_generation(target, [w], [cost], np.ones((1, 1)), None)
            brute = brute_force_transport_value(cost.entries, target.weights, w)
            assert abs(sol.value - brute) <= 1e-9 * (1.0 + brute), (kind, sol.value, brute)


def split_instance(rng, n_t=40, sizes=(25, 0, 30)):
    """``(target, conditionals, costs, p)`` with an empty middle class and
    zero-weight atoms."""
    target = DiscreteMeasure(rng.uniform(-2, 2, (n_t, 2)), weights(rng, n_t, True))
    conds = [DiscreteMeasure(rng.uniform(-2, 2, (n, 2)) + 0.5 * k,
                             weights(rng, n, True) if n else np.empty(0))
             for k, n in enumerate(sizes)]
    costs = [cost_matrix(target.points, c.points) for c in conds]
    return target, conds, costs, np.array([0.5, 0.0, 0.5])


def split_blocks(rng, **sizes):
    target, conds, costs, p = split_instance(rng, **sizes)
    return target, [c.weights for c in conds], costs, p


class TestGridWalk:
    GRID = np.array([0.0, 0.1, 0.25, 0.4, 0.7, 1.0])

    def walk(self, instance, order):
        target, cond_weights, costs, p = instance
        scales = np.tile(p, (len(self.GRID), 1))
        return _column_generation(target, cond_weights, costs, scales, self.GRID, order)

    def test_downward_upward_and_cold_agree(self, rng):
        instance = split_blocks(rng)
        down = self.walk(instance, None)
        up = self.walk(instance, list(range(len(self.GRID))))
        target, cond_weights, costs, p = instance
        for e, budget in enumerate(self.GRID):
            (cold,) = _column_generation(target, cond_weights, costs, p[None, :], [budget])
            reference = dense(target, cond_weights, costs, p, budget)
            for sol in (down[e], up[e], cold):
                assert sol.status == "optimal"
                assert close(sol.value, cold.value), (budget, sol.value, cold.value)
                assert close(sol.value, reference.value)
        # The downward walk starts at the largest budget and reuses its model.
        assert down[0].columns >= down[-1].columns
        assert all(sol.columns < reference.columns for sol in down)

    def test_global_capacities_walked_on_one_model(self, rng):
        target = DiscreteMeasure(rng.uniform(-2, 2, (30, 2)), weights(rng, 30, False))
        source_w = weights(rng, 35, True)
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

    def test_assignment_reports_no_rounds(self, rng):
        n = 6
        target = DiscreteMeasure(rng.uniform(-2, 2, (n, 2)), np.full(n, 1 / n))
        cost = cost_matrix(target.points, rng.uniform(-2, 2, (n, 2)))
        ((sol, _, _),) = _solve_blocks(target, [np.full(n, 1 / n)], [cost], np.ones(1))
        assert sol.backend == "assignment"
        assert (sol.rounds, sol.columns) == (0, 0)
        assert sol.residual <= FEASIBILITY_TOL and sol.gap <= GAP_TOL * (1 + sol.value)


def test_infeasible_capacity_is_reported():
    # Capacity 0.5 against a unit target: infeasible on every support.
    target = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    cost = cost_matrix(target.points, np.array([[0.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(LpError, match="infeasible"):
        _solve_blocks(target, [np.array([0.25, 0.25])], [cost], np.ones(1))
