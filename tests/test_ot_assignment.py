"""The assignment backend of global-mode transport against HiGHS.

Global-mode problems with uniform weights and a small-denominator ``beta``
are solved by replicated assignment and certified from the plan's residual
graph; everything else goes through column generation on HiGHS.  The dense
LP over every arc, solved by ``lp.solve``, is the reference here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imdot.lp import LpError, solve
from imdot.measures import DiscreteMeasure, cost_matrix
from imdot.ot import (
    _assemble_blocks,
    _certify_transport,
    _replication,
    _solve_blocks,
    partial_ot_global,
)

BETAS = (0.0, 1 / 3, 0.25, 0.75, 1.0, 3.0)


def uniform(points):
    points = np.asarray(points, dtype=float)
    return DiscreteMeasure(points, np.full(len(points), 1.0 / len(points)))


def solve_both(target, source, beta):
    cost = cost_matrix(target.points, source.points)
    scale = np.array([1.0 + beta])
    fast, = _solve_blocks(target, [source.weights], [cost], scale)
    highs = solve(_assemble_blocks(target, [source.weights], [cost], scale))
    return cost.entries, fast, (highs, [highs.x.reshape(cost.entries.shape)], None)


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
    cost, (fast, fast_plans, _), (highs, highs_plans, _) = solve_both(
        target, source, beta)
    assert fast.backend == "assignment" and highs.backend == "highs"
    assert abs(fast.value - highs.value) <= 1e-9 * (1.0 + abs(highs.value))
    capacity = (1.0 + beta) * source.weights
    for plan in (fast_plans[0], highs_plans[0]):
        _certify_transport(cost, target.weights, capacity, plan)


def test_rounding_on_lattice_ties_is_not_a_negative_cycle():
    # Cycles of zero cost on a lattice sum to about -1e-16 in floating point;
    # without the certificate's arc lift some of these plans were rejected.
    rng = np.random.default_rng(243)
    for _ in range(30):
        n_t, n_s = rng.integers(5, 25, 2)
        target = uniform(rng.integers(0, 4, (n_t, 2)) * 3.7)
        source = uniform(rng.integers(0, 4, (n_s, 2)) * 3.7)
        cost, (fast, _, _), (_, highs_plans, _) = solve_both(target, source, 0.0)
        assert fast.backend == "assignment"
        _certify_transport(cost, target.weights, source.weights, highs_plans[0])


def test_public_global_takes_assignment_and_agrees(rng):
    target = uniform(rng.uniform(-2, 2, (9, 2)))
    source = uniform(rng.uniform(-2, 2, (12, 2)))
    cost, (fast, _, _), (highs, _, _) = solve_both(target, source, 0.5)
    value, plan = partial_ot_global(target, source, cost_matrix(
        target.points, source.points), 0.5)
    assert fast.backend == "assignment"
    assert value == fast.value
    assert value == pytest.approx(highs.value, abs=1e-12)
    assert np.max(plan.sum(axis=0)) <= 1.5 / 12 + 1e-15


class TestFallback:
    def test_non_uniform_weights(self, rng):
        pts = rng.uniform(-2, 2, (5, 2))
        target = uniform(pts)
        source = DiscreteMeasure(pts, [0.1, 0.2, 0.3, 0.2, 0.2])
        _, (fast, _, _), _ = solve_both(target, source, 0.5)
        assert fast.backend == "highs"

    def test_beta_without_small_fraction(self, rng):
        target, source = uniform(rng.uniform(-2, 2, (5, 2))), uniform(
            rng.uniform(-2, 2, (4, 2)))
        _, (fast, _, _), (highs, _, _) = solve_both(target, source, 1.49)
        assert fast.backend == "highs"
        assert fast.value == highs.value

    def test_entry_cap(self, rng):
        # beta = 3/64 replicates targets 64 and sources 67 times: n = 30 is
        # 3.86e6 entries, n = 31 is 4.12e6, above the cap.
        scale = 1.0 + 3 / 64
        assert _replication(np.full(30, 1 / 30), np.full(30, 1 / 30), scale) == (64, 67)
        assert _replication(np.full(31, 1 / 31), np.full(31, 1 / 31), scale) is None
        target = uniform(rng.uniform(-2, 2, (31, 2)))
        source = uniform(rng.uniform(-2, 2, (31, 2)))
        _, (fast, _, _), _ = solve_both(target, source, 3 / 64)
        assert fast.backend == "highs"


class TestCertificate:
    def instance(self, rng):
        target = uniform(rng.uniform(-2, 2, (8, 2)))
        source = uniform(rng.uniform(-2, 2, (8, 2)))
        cost, (fast, plans, _), _ = solve_both(target, source, 0.5)
        assert fast.backend == "assignment"
        return cost, target.weights, 1.5 * source.weights, plans[0]

    def test_swapped_rows_are_not_optimal(self, rng):
        cost, demand, capacity, plan = self.instance(rng)
        best = float(np.sum(cost * plan))
        for i, j in ((i, j) for i in range(len(plan)) for j in range(i)):
            swapped = plan.copy()
            swapped[[i, j]] = plan[[j, i]]
            if np.sum(cost * swapped) > best + 1e-6:
                break
        else:
            pytest.fail("no suboptimal row swap found")
        _certify_transport(cost, demand, capacity, plan)
        with pytest.raises(LpError, match="negative cycle"):
            _certify_transport(cost, demand, capacity, swapped)

    def test_broken_marginal(self, rng):
        cost, demand, capacity, plan = self.instance(rng)
        broken = plan.copy()
        broken[0] *= 0.5
        with pytest.raises(LpError, match="feasibility"):
            _certify_transport(cost, demand, capacity, broken)
