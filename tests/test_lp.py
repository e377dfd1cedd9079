from itertools import combinations

import numpy as np
import pytest

from imdot.checks import dyadic_weights
from imdot.lp import LinearProgram, LpError, dual_of, dump_lp, solve


def brute_force_transport_value(cost, t, s):
    """Minimum over the basic feasible plans of the balanced transport LP."""
    n_t, n_s = cost.shape
    n = n_t * n_s
    A = np.zeros((n_t + n_s, n))
    for i in range(n_t):
        A[i, i * n_s:(i + 1) * n_s] = 1.0
    for j in range(n_s):
        A[n_t + j, j::n_s] = 1.0
    b = np.concatenate([t, s])
    rank = n_t + n_s - 1
    best = np.inf
    for cols in combinations(range(n), rank):
        B = A[:, cols]
        x, residual, matrix_rank, _ = np.linalg.lstsq(B, b, rcond=None)
        if matrix_rank < rank or np.max(np.abs(B @ x - b)) > 1e-9:
            continue
        if np.min(x) < -1e-9:
            continue
        best = min(best, float(cost.ravel()[list(cols)] @ x))
    return best


def test_single_constraint_maximize():
    # maximize x s.t. x <= 3, x >= 0, stated as min -x
    sol = solve(LinearProgram([-1.0], [[1.0]], ["<="], [3.0]))
    assert sol.status == "optimal"
    assert -sol.value == pytest.approx(3.0, abs=1e-9)


def test_forced_sum():
    sol = solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], ["="], [1.0]))
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_2x2_transport_against_vertex_enumeration():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = np.array([0.5, 0.5])
    s = np.array([0.5, 0.5])
    A = np.array([
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ], dtype=float)
    sol = solve(LinearProgram(cost.ravel(), A, ["="] * 4, np.concatenate([t, s])))
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert sol.value == pytest.approx(brute_force_transport_value(cost, t, s), abs=1e-9)


def test_random_transport_matches_vertex_enumeration(rng):
    for _ in range(5):
        n = 3
        cost = rng.uniform(0, 2, size=(n, n))
        t = dyadic_weights(rng, n, normalize=True)
        s = dyadic_weights(rng, n, normalize=True)
        A = np.zeros((2 * n, n * n))
        for i in range(n):
            A[i, i * n:(i + 1) * n] = 1.0
            A[n + i, i::n] = 1.0
        sol = solve(LinearProgram(cost.ravel(), A, ["="] * (2 * n),
                                  np.concatenate([t, s])))
        assert sol.value == pytest.approx(
            brute_force_transport_value(cost, t, s), abs=1e-9)


def test_infeasible_and_unbounded():
    infeasible = LinearProgram([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])
    assert solve(infeasible).status == "infeasible"
    unbounded = LinearProgram([-1.0], [[1.0]], [">="], [0.0])
    assert solve(unbounded).status == "unbounded"


def test_mixed_relations_and_bounds():
    # min x + 2y s.t. x + y >= 1, y <= 4, 0 <= x <= 0.25
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], [">=", "<="],
                       [1.0, 4.0], upper=[0.25, np.inf])
    sol = solve(lp)
    assert sol.value == pytest.approx(0.25 + 2 * 0.75, abs=1e-9)


def test_strong_duality_on_random_instances(rng):
    for _ in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        A = rng.uniform(-1, 1, size=(m, n))
        x_feasible = rng.uniform(0, 1, size=n)
        relations = [str(r) for r in rng.choice(["<=", "=", ">="], size=m)]
        b = A @ x_feasible
        b += np.where(np.asarray(relations) == "<=", 0.1, 0.0)
        b -= np.where(np.asarray(relations) == ">=", 0.1, 0.0)
        c = rng.uniform(0.1, 1.0, size=n)  # positive costs keep it bounded
        lp = LinearProgram(c, A, relations, b)
        primal = solve(lp)
        if primal.status != "optimal":
            continue
        dual = solve(dual_of(lp))
        assert dual.status == "optimal"
        assert primal.value == pytest.approx(-dual.value, abs=1e-7)


def test_permuted_variables_same_value(rng):
    n, m = 6, 4
    A = rng.uniform(-1, 1, size=(m, n))
    b = A @ rng.uniform(0, 1, size=n) + 0.05
    c = rng.uniform(0.1, 1.0, size=n)
    lp = LinearProgram(c, A, ["<="] * m, b)
    base = solve(lp).value
    for _ in range(5):
        perm = rng.permutation(n)
        permuted = LinearProgram(c[perm], A[:, perm], ["<="] * m, b)
        assert solve(permuted).value == pytest.approx(base, abs=1e-9)


def test_dump_roundtrips_the_shape():
    lp = LinearProgram([1.0, -2.5], [[1.0, 0.0]], ["<="], [3.0])
    text = dump_lp(lp)
    assert "n_vars=2" in text and "row 0 <=" in text

    big = LinearProgram(np.ones(2000), np.ones((1, 2000)), ["<="], [1.0])
    assert "too large" in dump_lp(big)


def test_dual_of_rejects_general_bounds():
    lp = LinearProgram([1.0], [[1.0]], ["<="], [1.0], upper=[2.0])
    with pytest.raises(ValueError):
        dual_of(lp)
