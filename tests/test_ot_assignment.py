"""Assignment-shaped global transport against HiGHS.

Global-mode problems with uniform ``1/n`` weights are assignment problems
with replicated atoms.  They go through the same column generation and the
same certificate as every other transport problem; the dense LP over every
arc, solved by ``lp.solve``, is the reference here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import imdot.lp
from imdot.lp import LpError, certify, solve
from imdot.measures import DiscreteMeasure, cost_matrix
from imdot.ot import _solve_blocks

from reference import dense_lp

BETAS = (0.0, 1 / 3, 0.25, 0.75, 1.0, 3.0)


def uniform(points):
    points = np.asarray(points, dtype=float)
    return DiscreteMeasure(points, np.full(len(points), 1.0 / len(points)))


def solve_both(target, source, beta):
    """``(cost, column generation, dense LP)`` of the global problem with
    capacity ``(1 + beta) * source.weights``."""
    cost = cost_matrix(target.points, source.points)
    ((colgen, plans, _),) = _solve_blocks(target, [source], [cost], np.ones(1), [beta])
    highs = solve(dense_lp(target, [source.weights], [cost], np.ones(1), beta))
    return cost.entries, (colgen, plans[0]), (highs, highs.x[1:].reshape(cost.entries.shape))


@st.composite
def instances(draw):
    """Uniform target and source: continuous, lattice (many cost ties) or
    drawn with repeats from a few atoms (duplicate atoms)."""
    n_t = draw(st.integers(1, 7))
    n_s = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["continuous", "lattice", "duplicates"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        pts_t, pts_s = rng.uniform(-2, 2, (n_t, 2)), rng.uniform(-2, 2, (n_s, 2))
    elif kind == "lattice":
        pts_t, pts_s = rng.integers(0, 3, (n_t, 2)), rng.integers(0, 3, (n_s, 2))
    else:
        pool = rng.uniform(-2, 2, (3, 2))
        pts_t, pts_s = pool[rng.integers(0, 3, n_t)], pool[rng.integers(0, 3, n_s)]
    return uniform(pts_t), uniform(pts_s), draw(st.sampled_from(BETAS))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_assignment_matches_highs(instance):
    target, source, beta = instance
    cost, (colgen, plan), (highs, highs_plan) = solve_both(target, source, beta)
    assert abs(colgen.value - highs.value) <= 1e-9 * (1.0 + abs(highs.value))
    capacity = (1.0 + beta) * source.weights
    for p in (plan, highs_plan):
        assert np.allclose(p.sum(axis=1), target.weights, atol=1e-12)
        assert np.all(p.sum(axis=0) <= capacity + 1e-12)
        assert float(np.sum(cost * p)) == pytest.approx(highs.value, abs=1e-9)


class TestCertificate:
    def instance(self, monkeypatch, rng):
        """``(lp, x, row_dual)`` of an 8x8 uniform problem at ``beta = 0.5``:
        its dense LP over every arc, the solve's ``x`` scattered over every
        column, and the row duals that the model's certificate accepted.
        ``lp.certify`` accepts them on the dense LP too."""
        seen = []

        def capture(lp, x, row_dual, c_norm=None):
            seen.append(row_dual)
            return certify(lp, x, row_dual, c_norm)

        monkeypatch.setattr(imdot.lp, "certify", capture)
        target = uniform(rng.uniform(-2, 2, (8, 2)))
        source = uniform(rng.uniform(-2, 2, (8, 2)))
        cost = cost_matrix(target.points, source.points)
        ((sol, _, _),) = _solve_blocks(target, [source], [cost], np.ones(1), [0.5])
        monkeypatch.undo()
        (row_dual,) = seen
        lp = dense_lp(target, [source.weights], [cost], np.ones(1), 0.5)
        assert certify(lp, sol.x, row_dual) == (sol.value, sol.residual, sol.gap)
        return lp, sol.x, row_dual

    def test_swapped_rows_are_not_optimal(self, monkeypatch, rng):
        # Swapping two target rows keeps both marginals of a uniform plan,
        # so only the duality gap can reject the swapped plan.
        lp, x, row_dual = self.instance(monkeypatch, rng)
        # Column 0 is the beta column, then the 64 arcs.
        plan = x[1:].reshape(8, 8)
        cost = lp.c[1:].reshape(8, 8)
        best = float(np.sum(cost * plan))
        for i, j in ((i, j) for i in range(len(plan)) for j in range(i)):
            swapped = plan.copy()
            swapped[[i, j]] = plan[[j, i]]
            if np.sum(cost * swapped) > best + 1e-6:
                break
        else:
            pytest.fail("no suboptimal row swap found")
        certify(lp, x, row_dual)
        with pytest.raises(LpError, match="duality gap"):
            certify(lp, np.append(x[0], swapped.ravel()), row_dual)

    def test_broken_marginal(self, monkeypatch, rng):
        lp, x, row_dual = self.instance(monkeypatch, rng)
        broken = x[1:].reshape(8, 8).copy()
        broken[0] *= 0.5
        with pytest.raises(LpError, match="feasibility"):
            certify(lp, np.append(x[0], broken.ravel()), row_dual)
