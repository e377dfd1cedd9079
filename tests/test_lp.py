import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import imdot
from imdot.checks import dyadic_weights
from imdot.lp import (
    CHOOSE_SIMPLEX,
    DEVEX_PRICING,
    HighsModel,
    HighsModelStatus,
    LinearProgram,
    LpError,
    _Highs,
    certify,
    dual_tolerance,
    dump_lp,
    pricing_tolerance,
    solve,
    solve_path,
)
from imdot.measures import DiscreteMeasure, cost_matrix
from imdot.ot import _difference_rows

from reference import brute_force_transport_value, dense_lp, dual_of


def rows(relations, b):
    """``(row_lower, row_upper)`` of rows stated as ``A x (<=|=|>=) b``."""
    relations, b = np.asarray(relations), np.asarray(b, dtype=float)
    return np.where(relations == "<=", -np.inf, b), np.where(relations == ">=", np.inf, b)


def test_single_constraint_maximize():
    # maximize x s.t. x <= 3, x >= 0, stated as min -x
    sol = solve(LinearProgram([-1.0], [[1.0]], *rows(["<="], [3.0])))
    assert -sol.value == pytest.approx(3.0, abs=1e-9)


def test_forced_sum():
    sol = solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], *rows(["="], [1.0])))
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
    sol = solve(LinearProgram(cost.ravel(), A, *rows(["="] * 4, np.concatenate([t, s]))))
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
        sol = solve(LinearProgram(cost.ravel(), A,
                                  *rows(["="] * (2 * n), np.concatenate([t, s]))))
        assert sol.value == pytest.approx(
            brute_force_transport_value(cost, t, s), abs=1e-9)


def test_infeasible_and_unbounded():
    infeasible = LinearProgram([1.0], [[1.0], [1.0]], *rows(["<=", ">="], [1.0, 2.0]))
    with pytest.raises(LpError, match="^LP is infeasible\n") as failure:
        solve(infeasible)
    assert str(failure.value).endswith(dump_lp(infeasible))
    unbounded = LinearProgram([-1.0], [[1.0]], *rows([">="], [0.0]))
    with pytest.raises(LpError, match="Unbounded"):
        solve(unbounded)


def test_an_lp_without_columns_is_solved_by_its_row_bounds():
    # HiGHS runs no simplex on a model without columns (kModelEmpty): it is
    # feasible exactly when every row admits 0.
    sol = solve(LinearProgram(np.zeros(0), np.zeros((1, 0)), [-1.0], [1.0]))
    assert (sol.value, sol.x.shape, sol.iterations) == (0.0, (0,), 0)
    with pytest.raises(LpError, match="^LP is infeasible\n"):
        solve(LinearProgram(np.zeros(0), np.zeros((1, 0)), [1.0], [2.0]))
    # The bounds are read back from HiGHS, after each change.
    lp = LinearProgram(np.zeros(0), np.zeros((1, 0)), [-1.0], [1.0])
    walk = [([-1.0], [1.0]), ([0.0], [0.0]), ([1.0], [2.0]), ([0.0], [0.0])]
    assert [sol.value for sol in solve_path(lp, walk, [])] == [0.0, 0.0]


def test_mixed_relations_and_bounds():
    # min x + 2y s.t. x + y >= 1, y <= 4, 0 <= x <= 0.25
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]],
                       *rows([">=", "<="], [1.0, 4.0]), upper=[0.25, np.inf])
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
        lp = LinearProgram(c, A, *rows(relations, b))
        primal = solve(lp)  # feasible at x_feasible, so optimal
        dual = solve(dual_of(lp))
        assert primal.value == pytest.approx(-dual.value, abs=1e-7)


def test_a_shifted_dual_of_a_zero_rhs_row_is_caught(monkeypatch):
    # min x1 + 2 x2  s.t.  x1 - x2 <= 0,  x1 + x2 >= 1: optimum 1.5 at
    # (0.5, 0.5), row duals (-0.5, 1.5).  Row 0's upper bound is 0, so
    # shifting its dual leaves its bound term 0 * y0, and with it the gap, as
    # it was; only the reduced costs show the fault.
    lp = LinearProgram([1.0, 2.0], [[1.0, -1.0], [1.0, 1.0]],
                       *rows(["<=", ">="], [0.0, 1.0]))
    assert solve(lp).value == pytest.approx(1.5, abs=1e-12)

    run = HighsModel.run

    def shifted(model):
        status, row_dual, iterations = run(model)
        row_dual[0] -= 0.5
        return status, row_dual, iterations

    monkeypatch.setattr(HighsModel, "run", shifted)
    with pytest.raises(LpError, match="column 1 has reduced cost -5.000e-01"):
        solve(lp)


def undercut_lp(undercut):
    """One demand row ``x0 + x1 + x2 = 1``: column 0 costs 1, column 1
    undercuts it by ``undercut``, and column 2 costs 1000, which sets
    ``||c||_inf``."""
    return LinearProgram([1.0, 1.0 - undercut, 1000.0], [[1.0, 1.0, 1.0]], [1.0], [1.0])


def walk_from_column_0(lp, price):
    return solve_path(lp, [(lp.row_lower, lp.row_upper)], [0], price)


def report_without_adding(lp):
    """Pricing that adds no column and reports the smallest reduced cost
    over every column."""
    def price(row_dual):
        return (), float(np.min(lp.c - lp.A.T @ row_dual))
    return price


def test_columns_outside_the_model_are_held_to_the_scale_of_every_column():
    # Column 1 prices 1e-6 below zero: beyond the dual tolerance of the
    # model's own costs, within that of every column.
    lp = undercut_lp(1e-6)
    assert dual_tolerance(1.0) < 1e-6 < dual_tolerance(lp.c_norm)
    (sol,) = walk_from_column_0(lp, report_without_adding(lp))
    assert (sol.value, sol.columns, sol.gap) == (1.0, 1, 0.0)
    assert np.array_equal(sol.x, [1.0, 0.0, 0.0])
    # 1e-4 below zero is beyond both.
    lp = undercut_lp(1e-4)
    with pytest.raises(LpError, match="a column outside the model has reduced cost "
                                      "-1.000e-04 below -1.001e-05"):
        walk_from_column_0(lp, report_without_adding(lp))


def test_a_nan_reduced_cost_outside_the_model_is_caught():
    lp = undercut_lp(0.0)
    with pytest.raises(LpError, match="a column outside the model has reduced cost nan"):
        walk_from_column_0(lp, lambda row_dual: ((), np.nan))


def test_pricing_that_names_only_held_columns_ends_the_entry(monkeypatch):
    # Columns 0 and 1 start in the model; pricing names both, and column
    # 2, the only one outside, prices at 999.5.
    lp = undercut_lp(0.5)
    added, priced = [], []
    add_columns = HighsModel.add_columns

    def recorded(model, cost, *args):
        added.append(len(cost))
        return add_columns(model, cost, *args)

    def price(row_dual):
        reduced = lp.c - lp.A.T @ row_dual
        priced.append(reduced)
        return [1, 0, 1], float(np.min(reduced))

    monkeypatch.setattr(HighsModel, "add_columns", recorded)
    (sol,) = solve_path(lp, [(lp.row_lower, lp.row_upper)], [0, 1], price)
    assert added == [2]
    assert np.array_equal(priced[0], [0.5, 0.0, 999.5])
    assert (sol.value, sol.columns, sol.rounds, sol.gap) == (0.5, 2, 1, 0.0)
    assert np.array_equal(sol.x, [0.0, 1.0, 0.0])


def test_a_model_with_every_column_is_not_priced():
    def price(row_dual):
        raise AssertionError("a model with every column was priced")

    lp = undercut_lp(0.5)
    bounds = [(lp.row_lower, lp.row_upper)]
    # From every column, and from none: the empty model is infeasible, so
    # the path adds every column before its first optimal run.
    for initial in ([0, 1, 2], []):
        (sol,) = solve_path(lp, bounds, initial, price)
        assert (sol.value, sol.columns) == (0.5, 3)
    with pytest.raises(ValueError, match="a model without every column needs pricing"):
        solve_path(lp, bounds, [0])


def test_a_walk_drops_priced_out_columns_but_never_its_start(monkeypatch):
    # Row 0: x0 + x1 + x2 = 1 at costs 3, 1 and 2; row 1 caps x1, at 2 and
    # then at 0.5.  The walk starts from column 0 alone, which meets the
    # demand at either cap.  At the first entry x1 carries the demand, and
    # x0 and x2 end at zero, priced out.  x2 is dropped before the second
    # entry and x0, the start, is kept; the lower cap then prices x2
    # negative, and it comes back.
    lp = LinearProgram([3.0, 1.0, 2.0], [[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
                       [1.0, -np.inf], [1.0, 2.0])
    bounds = [(lp.row_lower, lp.row_upper), ([1.0, -np.inf], [1.0, 0.5])]
    held, added, dropped = [], [], []
    add_columns, delete_columns = HighsModel.add_columns, HighsModel.delete_columns

    def recorded_add(model, cost, *args):
        held.extend(cost)
        added.append(list(cost))
        return add_columns(model, cost, *args)

    def recorded_delete(model, positions):
        dropped.append([held[k] for k in positions])
        held[:] = np.delete(held, positions)
        return delete_columns(model, positions)

    def price(row_dual):
        reduced = lp.c - lp.A.T @ row_dual
        return np.flatnonzero(reduced < -1e-9), float(np.min(reduced))

    monkeypatch.setattr(HighsModel, "add_columns", recorded_add)
    monkeypatch.setattr(HighsModel, "delete_columns", recorded_delete)
    walked = solve_path(lp, bounds, [0], price)
    # Columns are named by their costs: 3 is the start, 2 the dropped one.
    assert added == [[3.0], [1.0, 2.0], [2.0]]
    assert dropped == [[2.0]]
    assert [sol.columns for sol in walked] == [3, 3]
    for sol, (row_lower, row_upper) in zip(walked, bounds):
        full = solve(LinearProgram(lp.c, lp.A, row_lower, row_upper))
        assert sol.value == pytest.approx(full.value, abs=1e-12)
        assert np.allclose(sol.x, full.x, atol=1e-12)
    assert [sol.value for sol in walked] == pytest.approx([1.0, 1.5], abs=1e-12)


def test_a_walk_without_pricing_drops_nothing(monkeypatch):
    def refused(model, positions):
        raise AssertionError("a walk without pricing dropped a column")

    monkeypatch.setattr(HighsModel, "delete_columns", refused)
    lp = LinearProgram([3.0, 1.0, 2.0], [[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
                       [1.0, -np.inf], [1.0, 2.0])
    walked = solve_path(lp, [(lp.row_lower, lp.row_upper), ([1.0, -np.inf], [1.0, 0.5])],
                        np.arange(3))
    assert [sol.value for sol in walked] == pytest.approx([1.0, 1.5], abs=1e-12)


# Column 0 has cost 1e-6 and no row entry, so its reduced cost is 1e-6 at
# every row dual; column 1 meets the demand of row 0 at cost 1, dual 1.
def sign_lp(lower, upper):
    return LinearProgram([1e-6, 1.0], [[0.0, 1.0]], [1.0], [1.0],
                         lower=[lower, 0.0], upper=[upper, np.inf])


@pytest.mark.parametrize("lower, upper", [(0.0, np.inf), (0.0, 0.0)])
def test_a_positive_reduced_cost_needs_a_finite_lower_bound(lower, upper):
    value, residual, gap = certify(sign_lp(lower, upper), np.array([0.0, 1.0]),
                                   np.array([1.0]))
    assert (value, residual, gap) == (1.0, 0.0, 0.0)


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
    lp = LinearProgram(c, [[1.0, 1.0]], [-np.inf], [3.0],
                       lower=[lower, 0.0], upper=[upper, np.inf])
    x = np.array([x0, 3.0 - x0])
    _, residual, gap = certify(lp, x, np.array([-1.0]))
    # Without the bound term the gap would be |x0 * d0| >= 0.5.
    assert (residual, gap) == (0.0, 0.0)
    sol = solve(lp)
    assert sol.value == float(lp.c @ sol.x) == pytest.approx(float(lp.c @ x), abs=1e-12)
    # The same reduced cost on a column with no bound on its side.
    open_side = dict(upper=[np.inf, np.inf]) if d0 < 0 else dict(lower=[-np.inf, 0.0])
    with pytest.raises(LpError, match="column 0 has reduced cost"):
        certify(LinearProgram(c, [[1.0, 1.0]], [-np.inf], [3.0], **open_side), x,
                np.array([-1.0]))


# One column pinned at 1, so that its reduced cost may have either sign, in
# one row x0 = 1 or x0 bounded on one side by 1.
def row_lp(row_lower, row_upper):
    return LinearProgram([0.5], [[1.0]], [row_lower], [row_upper], lower=[1.0], upper=[1.0])


@pytest.mark.parametrize("row_lower, row_upper, dual", [
    (1.0, np.inf, -0.25),      # a >= row with a negative dual
    (-np.inf, 1.0, 0.25),      # a <= row with a positive dual
])
def test_a_row_dual_against_an_absent_bound_has_the_wrong_sign(row_lower, row_upper, dual):
    with pytest.raises(LpError, match="dual of row 0 has the wrong sign: "):
        certify(row_lp(row_lower, row_upper), np.array([1.0]), np.array([dual]))


@pytest.mark.parametrize("dual", [-0.25, 0.25])
def test_an_equality_row_takes_a_dual_of_either_sign(dual):
    _, residual, gap = certify(row_lp(1.0, 1.0), np.array([1.0]), np.array([dual]))
    assert (residual, gap) == (0.0, 0.0)


@pytest.mark.parametrize("c, row_lower, row_upper, x, dual", [
    (2.0, 1.0, np.inf, 1.0, 2.0),        # min 2 x, x >= 1: l * y
    (-1.0, -np.inf, 3.0, 3.0, -1.0),     # min -x, x <= 3: u * y
    (2.0, 1.0, 3.0, 1.0, 2.0),           # a ranged row at its lower bound
    (-1.0, 1.0, 3.0, 3.0, -1.0),         # and at its upper bound
])
def test_a_row_at_its_bound_closes_the_gap_through_its_bound_term(c, row_lower, row_upper,
                                                                  x, dual):
    lp = LinearProgram([c], [[1.0]], [row_lower], [row_upper])
    value, residual, gap = certify(lp, np.array([x]), np.array([dual]))
    # The column's bound term is 0, so without the row's the gap is |c x|.
    assert (value, residual, gap) == (c * x, 0.0, 0.0)
    assert solve(lp).value == c * x


def test_row_bounds_must_be_ordered():
    with pytest.raises(ValueError, match="row lower bound exceeds row upper bound"):
        LinearProgram([1.0], [[1.0]], [2.0], [1.0])


@pytest.mark.parametrize("field, bad, cause", [
    ("c", np.nan, "costs must be finite"),
    ("c", np.inf, "costs must be finite"),
    ("c", -np.inf, "costs must be finite"),
    ("row_lower", np.nan, "row bounds must not be NaN"),
    ("row_upper", np.nan, "row bounds must not be NaN"),
    ("lower", np.nan, "variable bounds must not be NaN"),
    ("upper", np.nan, "variable bounds must not be NaN"),
    ("A", np.nan, "constraint matrix entries must be finite"),
    ("A", np.inf, "constraint matrix entries must be finite"),
    # An infinite bound on the wrong side, which HiGHS refuses without naming it.
    ("row_lower", np.inf, "row_lower must not be inf"),
    ("row_upper", -np.inf, "row_upper must not be -inf"),
    ("lower", np.inf, "lower must not be inf"),
    ("upper", -np.inf, "upper must not be -inf"),
])
def test_non_finite_input_is_named(field, bad, cause):
    fields = {"c": [1.0, 2.0], "A": [[1.0, 1.0]], "row_lower": [1.0], "row_upper": [1.0],
              "lower": [0.0, 0.0], "upper": [np.inf, np.inf]}
    fields[field] = np.array(fields[field])
    fields[field].flat[0] = bad
    with pytest.raises(ValueError, match=f"^{cause}$"):
        LinearProgram(**fields)


def test_permuted_variables_same_value(rng):
    n, m = 6, 4
    A = rng.uniform(-1, 1, size=(m, n))
    b = A @ rng.uniform(0, 1, size=n) + 0.05
    c = rng.uniform(0.1, 1.0, size=n)
    lp = LinearProgram(c, A, np.full(m, -np.inf), b)
    base = solve(lp).value
    for _ in range(5):
        perm = rng.permutation(n)
        permuted = LinearProgram(c[perm], A[:, perm], np.full(m, -np.inf), b)
        assert solve(permuted).value == pytest.approx(base, abs=1e-9)


def test_dump_roundtrips_the_shape():
    lp = LinearProgram([1.0, -2.5], [[1.0, 0.0]], [-np.inf], [3.0])
    text = dump_lp(lp)
    assert "n_vars=2" in text and "row 0 -inf 3.0 :" in text

    big = LinearProgram(np.ones(2000), np.ones((1, 2000)), [-np.inf], [1.0])
    assert "too large" in dump_lp(big)


def test_dump_writes_plain_numbers():
    # NumPy scalars, as the fields of an LP hold them, must print as floats.
    lp = LinearProgram(np.array([1.0, -2.5]), np.array([[1.0, 0.0], [0.5, 2.0]]),
                       np.array([-np.inf, 1.0]), np.array([3.0, 1.0]),
                       lower=np.array([0.0, -np.inf]), upper=np.array([np.inf, 0.5]))
    header, costs, *lines = dump_lp(lp).splitlines()
    assert header == "LP n_vars=2 n_rows=2 minimize"
    assert [float(v) for v in costs.split()[1:]] == [1.0, -2.5]
    fields = {line.split()[0] + line.split()[1]:
              [float(v) for v in line.split()[2:] if v != ":"] for line in lines}
    assert fields == {"row0": [-np.inf, 3.0, 1.0, 0.0], "row1": [1.0, 1.0, 0.5, 2.0],
                      "bound0": [0.0, np.inf], "bound1": [-np.inf, 0.5]}, lines
    big = LinearProgram(np.full(2000, -2.0), np.ones((1, 2000)), [-np.inf], [1.5])
    norms = re.findall(r"=([^\s)]+)", dump_lp(big).splitlines()[1])
    assert [float(v) for v in norms] == [2.0, 1.5]


def test_dual_of_rejects_general_bounds():
    lp = LinearProgram([1.0], [[1.0]], [-np.inf], [1.0], upper=[2.0])
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


class RecordedOptionsHighs(_Highs):
    options = []

    def setOptionValue(self, option, value):
        self.options.append((option, value))
        return super().setOptionValue(option, value)


def test_warm_model_runs_the_simplex_its_basis_admits(monkeypatch):
    # HiGHS chooses the simplex of every run from its basis: the option is
    # set once, with the others, when the model is made.
    monkeypatch.setattr(imdot.lp, "_Highs", RecordedOptionsHighs)
    monkeypatch.setattr(RecordedOptionsHighs, "options", [])
    # Row 0: the columns meet a demand; row 1: the columns with a 1 there
    # share a capacity of 2.
    model = HighsModel([1.0, -np.inf], [1.0, 2.0])
    made = list(RecordedOptionsHighs.options)
    assert made.count(("simplex_strategy", CHOOSE_SIMPLEX)) == 1
    assert ("simplex_dual_edge_weight_strategy", DEVEX_PRICING) in made

    def run():
        status, _, _ = model.run()
        return status, model.col_value()

    model.add_columns([3.0], [0, 1], [0], [1.0], [0.0], [np.inf])
    status, x = run()                                          # a new model
    assert status == "optimal" and np.allclose(x, [1.0])
    model.add_columns([1.0, 2.0], [0, 2, 3], [0, 1, 0], [1.0, 1.0, 1.0], [0.0, 0.0],
                      [np.inf, np.inf])
    status, x = run()                                          # columns only
    assert status == "optimal" and np.allclose(x, [0.0, 1.0, 0.0])
    model.set_row_bounds([0], [3.0], [3.0])
    status, x = run()                                          # new bounds
    assert status == "optimal" and np.allclose(x, [0.0, 2.0, 1.0])
    model.add_columns([0.5], [0, 2], [0, 1], [1.0, 1.0], [0.0], [np.inf])
    model.set_row_bounds([0], [2.0], [2.0])
    status, x = run()                                          # both changed
    assert status == "optimal" and np.allclose(x, [0.0, 0.0, 0.0, 2.0])
    assert RecordedOptionsHighs.options == made


def test_rejected_highs_changes_raise():
    model = HighsModel([1.0, -np.inf], [1.0, 2.0])
    # A column with an entry in row 2 of a 2-row model.
    with pytest.raises(LpError, match="addCols"):
        model.add_columns([1.0], [0, 3], [0, 1, 2], [1.0, 1.0, 1.0], [0.0], [np.inf])
    assert model.n_cols == 0
    with pytest.raises(LpError, match="changeRowBounds failed on row 2"):
        model.set_row_bounds([2], [0.0], [1.0])
    model.add_columns([1.0], [0, 2], [0, 1], [1.0, 1.0], [0.0], [np.inf])
    status, _, _ = model.run()
    assert (status, model.n_cols) == ("optimal", 1)
    assert np.allclose(model.col_value(), [1.0])


def test_deleting_priced_out_columns_keeps_the_basis(rng):
    # A global transport LP at beta = 0.5 with every arc, solved to its
    # optimum: its nonbasic columns at zero with a positive reduced cost
    # can go, and the model runs again from the same basis, with no pivot,
    # to the same value.
    n = 40
    target = DiscreteMeasure(rng.uniform(-2, 2, (n, 2)), np.full(n, 1 / n))
    source = DiscreteMeasure(rng.uniform(-2, 2, (n, 2)), np.full(n, 1 / n))
    lp = dense_lp(target, [source.weights], [cost_matrix(target.points, source.points)],
                  np.ones(1), 0.5)
    model = HighsModel(lp.row_lower, lp.row_upper)
    model.add_columns(*lp.columns(np.arange(lp.n_vars)))
    status, _, _ = model.run()
    assert status == "optimal"
    x, reduced = model.col_value(), model.col_dual()
    value = math.fsum(lp.c * x)
    out = np.flatnonzero((x == 0) & (reduced > pricing_tolerance(lp.c_norm)))
    assert len(out) > lp.n_vars // 2
    model.delete_columns(out)
    assert model.n_cols == lp.n_vars - len(out)
    status, _, iterations = model.run()
    kept = np.delete(np.arange(lp.n_vars), out)
    assert (status, iterations) == ("optimal", 0)
    assert math.fsum(lp.c[kept] * model.col_value()) == pytest.approx(value, abs=1e-12)
    assert np.allclose(model.col_value(), x[kept], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("positions", [[2], [1, 0], [0, 0]])
def test_a_rejected_deletion_raises(positions):
    # Out of range, descending, repeated: HiGHS refuses each set and leaves
    # the model as it was.
    model = HighsModel([1.0], [1.0])
    model.add_columns([1.0, 2.0], [0, 1, 2], [0, 0], [1.0, 1.0], [0.0, 0.0],
                      [np.inf, np.inf])
    with pytest.raises(LpError, match="HiGHS deleteCols failed"):
        model.delete_columns(positions)
    assert model.n_cols == 2
    status, _, _ = model.run()
    assert status == "optimal" and np.allclose(model.col_value(), [1.0, 0.0])


def test_rejected_highs_options_raise(monkeypatch):
    # HiGHS refuses feasibility tolerances below 1e-10 and keeps its old
    # value; a model must not go on with it.
    monkeypatch.setattr(imdot.lp, "HIGHS_TOL", 1e-11)
    with pytest.raises(LpError, match=r"setOptionValue\('primal_feasibility_tolerance', 1e-11\)"):
        HighsModel([1.0], [1.0])
    monkeypatch.undo()
    monkeypatch.setattr(imdot.lp, "CHOOSE_SIMPLEX", 99)
    with pytest.raises(LpError, match=r"setOptionValue\('simplex_strategy', 99\)"):
        HighsModel([1.0], [1.0])


class UnboundedOrInfeasibleHighs(_Highs):
    def getModelStatus(self):
        return HighsModelStatus.kUnboundedOrInfeasible


def test_unbounded_or_infeasible_raises(monkeypatch):
    # HiGHS proves neither, so it is not reported as "unbounded".
    monkeypatch.setattr(imdot.lp, "_Highs", UnboundedOrInfeasibleHighs)
    model = HighsModel([1.0], [1.0])
    model.add_columns([1.0], [0, 1], [0], [1.0], [0.0], [np.inf])
    status = _Highs().modelStatusToString(HighsModelStatus.kUnboundedOrInfeasible)
    with pytest.raises(LpError, match=f"solver failed: {status}$"):
        model.run()


def test_dense_csr_and_csc_matrices_solve_alike(monkeypatch):
    # min 0.4 x0 - x1 + 1.2 x2 + 0.6 x3 with x0 free and x1 pinned at 0.5:
    # the = row makes x0 = x3 >= 0 and the >= row x0 + x2 >= 0.3, so the
    # optimum is x = (0.3, 0.5, 0, 0.3) at -0.2.
    A = np.array([[1.0, 0.0, 2.0, 0.0],
                  [1.0, 1.0, 0.0, -1.0],
                  [1.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0]])
    c = [0.4, -1.0, 1.2, 0.6]
    row_bounds = rows(["<=", "=", ">=", "<="], [2.0, 0.5, 0.3, 3.0])
    bounds = dict(lower=[-np.inf, 0.5, 0.0, 0.0], upper=[np.inf, 0.5, np.inf, np.inf])
    lps = [LinearProgram(c, matrix, *row_bounds, **bounds)
           for matrix in (A, sp.csr_matrix(A), sp.csc_matrix(A))]
    # Every form is held as one CSC matrix.
    assert all(lp.A.format == "csc" for lp in lps)
    first, *others = [solve(lp) for lp in lps]
    assert first.value == pytest.approx(-0.2, abs=1e-12)
    assert np.allclose(first.x, [0.3, 0.5, 0.0, 0.3], atol=1e-12)
    # HiGHS receives the same compressed columns from each form.
    for sol in others:
        assert sol.value == first.value
        assert np.array_equal(sol.x, first.x)
        assert (sol.residual, sol.gap) == (first.residual, first.gap)
    # A solver failure names the status and carries the LP's dump.
    monkeypatch.setattr(imdot.lp, "_Highs", UnboundedOrInfeasibleHighs)
    lp = LinearProgram(c, sp.csr_matrix(A), *row_bounds, **bounds)
    with pytest.raises(LpError, match="solver failed") as failure:
        solve(lp)
    assert dump_lp(lp) in str(failure.value)


def test_lipschitz_difference_rows_equal_identity_differences():
    for n in range(1, 8):
        i_idx, j_idx, A = _difference_rows(n)
        eye = sp.eye(n, format="csr")
        reference = eye[i_idx] - eye[j_idx]
        assert A.format == "csr" and A.shape == reference.shape
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, field), getattr(reference, field)), (n, field)
        assert np.array_equal((i_idx, j_idx), np.nonzero(~np.eye(n, dtype=bool)))
