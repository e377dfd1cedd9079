import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import imdot
from imdot.checks import dyadic_weights
from imdot.lp import (
    DEVEX_PRICING,
    DUAL_SIMPLEX,
    PRIMAL_SIMPLEX,
    HighsModel,
    LinearProgram,
    LpError,
    _split_rows,
    certify,
    dual_of,
    dump_lp,
    solve,
)
from imdot.ot import _difference_rows


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


def test_a_shifted_dual_of_a_zero_rhs_row_is_caught(monkeypatch):
    # min x1 + 2 x2  s.t.  x1 - x2 <= 0,  x1 + x2 >= 1: optimum 1.5 at
    # (0.5, 0.5), row duals (-0.5, 1.5).  Row 0's right-hand side is 0, so
    # shifting its dual leaves b @ y, and with it the gap, as it was; only
    # the reduced costs show the fault.
    lp = LinearProgram([1.0, 2.0], [[1.0, -1.0], [1.0, 1.0]], ["<=", ">="], [0.0, 1.0])
    assert solve(lp).value == pytest.approx(1.5, abs=1e-12)

    def shifted(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.ineqlin.marginals[0] -= 0.5
        return res

    monkeypatch.setattr(imdot.lp, "linprog", shifted)
    with pytest.raises(LpError, match="column 1 has reduced cost -5.000e-01"):
        solve(lp)


# Column 0 has cost 1e-6 and no row entry, so its reduced cost is 1e-6 at
# every row dual; column 1 meets the demand of row 0 at cost 1, dual 1.
def sign_lp(lower, upper):
    return LinearProgram([1e-6, 1.0], [[0.0, 1.0]], ["="], [1.0],
                         lower=[lower, 0.0], upper=[upper, np.inf])


@pytest.mark.parametrize("lower, upper", [(0.0, np.inf), (0.0, 0.0)])
def test_a_positive_reduced_cost_needs_a_finite_lower_bound(lower, upper):
    residual, gap = certify(sign_lp(lower, upper), np.array([0.0, 1.0]), np.array([1.0]))
    assert (residual, gap) == (0.0, 0.0)


@pytest.mark.parametrize("lower, upper", [(-np.inf, np.inf), (-np.inf, 0.0)])
def test_a_positive_reduced_cost_on_a_column_without_lower_bound_raises(lower, upper):
    with pytest.raises(LpError, match="column 0 has reduced cost 1.000e-06 above"):
        certify(sign_lp(lower, upper), np.array([0.0, 1.0]), np.array([1.0]))


@pytest.mark.parametrize("lower, upper, x0, d0", [
    (0.0, 1.0, 1.0, -1.0),     # a box at its upper bound: u * d
    (0.5, 1.0, 0.5, 1.0),      # a box at its lower bound: l * d
    (0.5, 0.5, 0.5, 1.0),      # pinned, either sign
    (0.5, 0.5, 0.5, -1.0),
])
def test_finite_bounds_enter_the_dual_objective(lower, upper, x0, d0):
    # min c0 x0 - x1  s.t.  x0 + x1 <= 3,  x1 >= 0: the row's dual is -1, so
    # x0's reduced cost is c0 + 1 = d0.
    c = [d0 - 1.0, -1.0]
    lp = LinearProgram(c, [[1.0, 1.0]], ["<="], [3.0],
                       lower=[lower, 0.0], upper=[upper, np.inf])
    x = np.array([x0, 3.0 - x0])
    residual, gap = certify(lp, x, np.array([-1.0]))
    # Without the bound term the gap would be |x0 * d0| >= 0.5.
    assert (residual, gap) == (0.0, 0.0)
    sol = solve(lp)
    assert sol.value == float(lp.c @ sol.x) == pytest.approx(float(lp.c @ x), abs=1e-12)
    # The same reduced cost on a column with no bound on its side.
    open_side = dict(upper=[np.inf, np.inf]) if d0 < 0 else dict(lower=[-np.inf, 0.0])
    with pytest.raises(LpError, match="column 0 has reduced cost"):
        certify(LinearProgram(c, [[1.0, 1.0]], ["<="], [3.0], **open_side), x,
                np.array([-1.0]))


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


def test_only_the_lp_module_imports_the_private_highs_binding():
    private = "scipy.optimize._highspy"
    importers = []
    for path in sorted(Path(imdot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n == private or n.startswith(private + ".") for n in names):
                importers.append(path.stem)
    assert importers == ["lp"]


def test_warm_model_runs_the_simplex_its_basis_admits():
    # Row 0: the columns meet a demand; row 1: the columns with a 1 there
    # share a capacity of 2.
    model = HighsModel([1.0, -np.inf], [1.0, 2.0])

    def run():
        status, x, _, _ = model.run()
        # Every run prices its dual simplex by Devex weights.
        assert model._highs.getOptionValue(
            "simplex_dual_edge_weight_strategy")[1] == DEVEX_PRICING
        return status, x, model._highs.getOptionValue("simplex_strategy")[1]

    model.add_columns([3.0], [0, 1], [0], [1.0])
    status, x, strategy = run()
    assert (status, strategy) == ("optimal", DUAL_SIMPLEX)    # a new model
    model.add_columns([1.0, 2.0], [0, 2, 3], [0, 1, 0], [1.0, 1.0, 1.0])
    status, x, strategy = run()
    assert (status, strategy) == ("optimal", PRIMAL_SIMPLEX)  # columns only
    assert np.allclose(x, [0.0, 1.0, 0.0])
    model.set_row_bounds([0], [3.0], [3.0])
    status, x, strategy = run()
    assert (status, strategy) == ("optimal", DUAL_SIMPLEX)    # new bounds
    assert np.allclose(x, [0.0, 2.0, 1.0])
    model.add_columns([0.5], [0, 2], [0, 1], [1.0, 1.0])
    model.set_row_bounds([0], [2.0], [2.0])
    status, x, strategy = run()
    assert (status, strategy) == ("optimal", DUAL_SIMPLEX)    # both changed
    assert np.allclose(x, [0.0, 0.0, 0.0, 2.0])


def test_rejected_highs_changes_raise():
    model = HighsModel([1.0, -np.inf], [1.0, 2.0])
    # A column with an entry in row 2 of a 2-row model.
    with pytest.raises(LpError, match="addCols"):
        model.add_columns([1.0], [0, 3], [0, 1, 2], [1.0, 1.0, 1.0])
    assert model.n_cols == 0
    with pytest.raises(LpError, match="changeRowBounds failed on row 2"):
        model.set_row_bounds([2], [0.0], [1.0])
    model.add_columns([1.0], [0, 2], [0, 1], [1.0, 1.0])
    status, x, _, _ = model.run()
    assert (status, model.n_cols) == ("optimal", 1)
    assert np.allclose(x, [1.0])


def test_rejected_highs_options_raise(monkeypatch):
    # HiGHS refuses feasibility tolerances below 1e-10 and keeps its old
    # value; a model must not go on with it.
    monkeypatch.setattr(imdot.lp, "HIGHS_TOL", 1e-11)
    with pytest.raises(LpError, match=r"setOptionValue\('primal_feasibility_tolerance', 1e-11\)"):
        HighsModel([1.0], [1.0])
    monkeypatch.undo()
    model = HighsModel([1.0], [1.0])
    model.add_columns([1.0], [0, 1], [0], [1.0])
    monkeypatch.setattr(imdot.lp, "DUAL_SIMPLEX", 99)
    with pytest.raises(LpError, match=r"setOptionValue\('simplex_strategy', 99\)"):
        model.run()


def test_split_rows_hands_an_all_le_lp_over_as_it_is(rng):
    A = rng.uniform(-1, 1, (4, 3))
    A[A < 0] = 0.0
    b = rng.uniform(0, 1, 4)
    for matrix in (A, sp.csr_matrix(A), sp.csc_matrix(A)):
        lp = LinearProgram(np.ones(3), matrix, ["<="] * 4, b)
        A_ub, b_ub, A_eq, b_eq = _split_rows(lp)
        assert A_ub is lp.A and b_ub is lp.b and A_eq is None and b_eq is None
        # The same rows stated as >=, through the general path.
        flipped = LinearProgram(np.ones(3), -matrix, [">="] * 4, -b)
        G_ub, g_ub, G_eq, g_eq = _split_rows(flipped)
        dense = (lambda M: M.toarray()) if sp.issparse(matrix) else np.asarray
        assert np.array_equal(dense(A_ub), dense(G_ub)) and np.array_equal(b_ub, g_ub)
        assert G_eq is None and g_eq is None


def test_lipschitz_difference_rows_equal_identity_differences():
    for n in range(1, 8):
        i_idx, j_idx, A = _difference_rows(n)
        eye = sp.eye(n, format="csr")
        reference = eye[i_idx] - eye[j_idx]
        assert A.format == "csr" and A.shape == reference.shape
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, field), getattr(reference, field)), (n, field)
        assert np.array_equal((i_idx, j_idx), np.nonzero(~np.eye(n, dtype=bool)))
