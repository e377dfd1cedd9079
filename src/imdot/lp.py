"""Generic linear-program layer used by the transport and dual solves.

Problems are stated as ``minimize c @ x`` under row constraints with
relations in ``{<=, =, >=}`` and per-variable bounds (default ``x >= 0``).
Every problem reaches HiGHS through one adapter, :class:`HighsModel`.
:func:`solve` makes a one-shot model of a whole problem: its rows, then all
of its columns in one compressed-column batch with their own bounds, and one
run.  The column generation of :mod:`imdot.ot` keeps one model warm while
columns are added, as plain compressed-column arrays, and row bounds change.
Each change, and each option set, is checked against the status HiGHS
returns, since HiGHS rejects a bad one without raising.  Each run restarts
with the simplex that the warm basis admits: primal simplex when only
columns were added since the last run (the basis stays primal feasible),
dual simplex when row bounds changed or the model is new (the basis stays
dual feasible).  Its dual simplex prices with Devex weights (Harris, 1973)
instead of HiGHS's default steepest edge, whose exact weights cost one more
solve with the basis per pivot; on the transport walks of :mod:`imdot.ot`
Devex also took fewer pivots.  Every optimal solution is re-certified by one
function, :func:`certify`, from the primal values and the row duals alone,
so a numerically broken solve raises instead of returning a silently wrong
answer.  The solver layer's tolerances are named here: the certificate's
``FEASIBILITY_TOL`` and ``GAP_TOL``, and ``HIGHS_TOL``, the tolerance HiGHS
works to and column generation prices to (:func:`pricing_tolerance`).  The
data layer's rounding slack is :data:`imdot.measures.ROUNDING_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
# Unused here; perfbench/tracer.py wraps it by name until its target goes.
from scipy.optimize import linprog  # noqa: F401
# The only import of scipy's private HiGHS binding; tested on scipy 1.17.1.
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpError",
    "HighsModel",
    "solve",
    "certify",
    "dual_tolerance",
    "pricing_tolerance",
    "dual_of",
    "dump_lp",
]

RELATIONS = ("<=", "=", ">=")

#: Feasibility residual allowed on an optimal solution: primal residuals
#: relative to ``1 + ||b||_inf``, dual residuals (:func:`dual_tolerance`)
#: relative to ``1 + ||c||_inf``.
FEASIBILITY_TOL = 1e-8

#: Duality gap allowed on an optimal solution, relative to ``1 + |value|``.
GAP_TOL = 1e-7

#: Primal and dual feasibility tolerance HiGHS itself works to, and with it
#: column generation's pricing (:func:`pricing_tolerance`).  HiGHS's floor:
#: it rejects 1e-11.
HIGHS_TOL = 1e-10


class LpError(RuntimeError):
    """Numerical breakdown or solver failure, with diagnostics attached."""


def _as_matrix(A, n_rows, n_cols):
    if sp.issparse(A):
        A = A if A.format in ("csr", "csc") else A.tocsr()
    else:
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError("constraint matrix must be 2-d")
    if A.shape != (n_rows, n_cols):
        raise ValueError(f"constraint matrix is {A.shape}, expected {(n_rows, n_cols)}")
    return A


@dataclass(frozen=True)
class LinearProgram:
    """``minimize c @ x  s.t.  A x (<=|=|>=) b,  lower <= x <= upper``.

    ``A`` may be dense or ``scipy.sparse``; a CSR or CSC matrix is kept in
    its format, any other sparse format becomes CSR.  The transport problems
    built by :mod:`imdot.ot` are CSC, since their constraint matrices are
    two-nonzeros-per-column incidence structures read a column at a time.
    """

    c: np.ndarray
    A: object
    relations: tuple
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, c, A, relations: Sequence[str], b, lower=None, upper=None):
        c = np.asarray(c, dtype=float)
        b = np.asarray(b, dtype=float)
        if c.ndim != 1 or b.ndim != 1:
            raise ValueError("c and b must be vectors")
        A = _as_matrix(A, len(b), len(c))
        relations = tuple(relations)
        if len(relations) != len(b):
            raise ValueError("one relation per constraint row is required")
        for rel in relations:
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        lower = np.zeros(len(c)) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(len(c), np.inf) if upper is None else np.asarray(upper, dtype=float)
        if lower.shape != c.shape or upper.shape != c.shape:
            raise ValueError("bounds must match the variable count")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_rows(self) -> int:
        return len(self.b)

    def row(self, i: int) -> np.ndarray:
        if sp.issparse(self.A):
            return np.asarray(self.A.getrow(i).todense()).ravel()
        return self.A[i]


@dataclass(frozen=True)
class LpSolution:
    status: str                # "optimal" | "infeasible" | "unbounded"
    value: float
    x: np.ndarray
    iterations: int            # simplex iterations, summed over rounds
    residual: float            # primal feasibility residual; nan unless optimal
    gap: float                 # |primal - dual| of the certificate; nan unless optimal
    rounds: int                # HiGHS runs: 1 for a dense solve (solve), pricing
                               # rounds for column generation (imdot.ot)
    columns: int               # columns in the final model: n_vars for a dense
                               # solve, the restricted model for column generation


def _primal_residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of a row relation or a variable bound by ``x``."""
    rel = np.asarray(lp.relations)
    r = lp.A @ x - lp.b
    r = np.where(rel == "=", np.abs(r), np.where(rel == "<=", r, -r))
    return float(np.max(np.concatenate([r, lp.lower - x, x - lp.upper]), initial=0.0))


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` to proven optimality, or report infeasible/unbounded.

    One :class:`HighsModel` takes every row and, in one batch, every column
    of ``lp`` with its bounds; it runs once and is not priced.

    Raises
    ------
    LpError
        On solver breakdown or when the returned solution fails the
        feasibility / duality-gap certificate.
    """
    rel = np.asarray(lp.relations)
    A = sp.csc_matrix(lp.A)
    try:
        model = HighsModel(np.where(rel == "<=", -np.inf, lp.b),
                           np.where(rel == ">=", np.inf, lp.b))
        model.add_columns(lp.c, A.indptr, A.indices, A.data, lp.lower, lp.upper)
        status, x, row_dual, iterations = model.run()
    except LpError as error:
        raise LpError(f"{error}\n" + dump_lp(lp)) from error
    if status != "optimal":
        nan = float("nan")
        return LpSolution(status, nan, np.empty(0), iterations, nan, nan, 1, lp.n_vars)
    residual, gap = certify(lp, x, row_dual)
    return LpSolution("optimal", float(lp.c @ x), x, iterations,
                      residual, gap, 1, lp.n_vars)


def _cost_scale(c: np.ndarray) -> float:
    """``1 + ||c||_inf``, the scale of every reduced-cost bound."""
    return 1.0 + float(np.max(np.abs(c), initial=0.0))


def dual_tolerance(c: np.ndarray) -> float:
    """Reduced cost a certified column may have on a side its bounds do not
    allow: the dual feasibility bound ``FEASIBILITY_TOL * (1 + ||c||_inf)``."""
    return FEASIBILITY_TOL * _cost_scale(c)


def pricing_tolerance(c: np.ndarray) -> float:
    """Reduced cost below which column generation still adds a column:
    ``HIGHS_TOL * (1 + ||c||_inf)``, at the scale of :func:`dual_tolerance`
    but at the tolerance HiGHS itself works to.  Pricing to the looser
    certificate bound would stop at whichever near-optimal basis the simplex
    path reached, so a value would depend on that path."""
    return HIGHS_TOL * _cost_scale(c)


def certify(lp: LinearProgram, x: np.ndarray, row_dual: np.ndarray):
    """Certify ``x`` optimal for ``lp`` from row duals, independent of the
    solver, and return ``(residual, gap)``; raise LpError otherwise.

    Checked on every column and row of ``lp``: primal feasibility of ``x``
    (rows and bounds), dual feasibility of ``row_dual`` within
    ``dual_tolerance(c)`` and the duality gap.  A reduced cost
    ``d = c - A' row_dual`` may be positive only where the lower bound is
    finite and negative only where the upper bound is finite: ``d >= 0``
    for ``x >= 0``, ``d = 0`` for a free variable, either sign for a pinned
    one.  Duals of ``<=`` rows must be at most and of ``>=`` rows at least
    zero.  The dual objective is ``b @ row_dual + sum l * max(d, 0) +
    sum u * min(d, 0)`` over the finite bounds ``l`` and ``u``; for
    ``x >= 0`` the bound terms are exactly zero.  A NaN anywhere fails the
    certificate.
    """
    residual = _primal_residual(lp, x)
    scale = 1.0 + float(np.max(np.abs(lp.b), initial=0.0))
    if not residual <= FEASIBILITY_TOL * scale:
        raise LpError(
            f"optimal solution violates feasibility: residual {residual:.3e} "
            f"exceeds {FEASIBILITY_TOL:.0e} * {scale:.3e}\n" + dump_lp(lp)
        )
    tol = dual_tolerance(lp.c)
    reduced = lp.c - lp.A.T @ row_dual
    has_lower, has_upper = np.isfinite(lp.lower), np.isfinite(lp.upper)
    excess = np.maximum(np.where(has_lower, 0.0, reduced),
                        np.where(has_upper, 0.0, -reduced))
    if excess.size and not excess.max() <= tol:
        j = int(np.argmax(excess))
        side = f"below -{tol:.3e}" if reduced[j] < 0 else f"above {tol:.3e}"
        raise LpError(f"duals violate feasibility: column {j} has reduced cost "
                      f"{reduced[j]:.3e} {side}")
    rel = np.asarray(lp.relations)
    wrong_sign = np.where(rel == "<=", row_dual, np.where(rel == ">=", -row_dual, 0.0))
    if wrong_sign.size and not wrong_sign.max() <= tol:
        i = int(np.argmax(wrong_sign))
        raise LpError(f"dual of row {i} ({lp.relations[i]}) has the wrong sign: "
                      f"{row_dual[i]:.3e}")
    primal = float(lp.c @ x)
    dual = (float(lp.b @ row_dual)
            + float(lp.lower[has_lower] @ np.maximum(reduced[has_lower], 0.0))
            + float(lp.upper[has_upper] @ np.minimum(reduced[has_upper], 0.0)))
    gap = abs(primal - dual)
    if not gap <= GAP_TOL * (1.0 + abs(primal)):
        raise LpError(
            f"duality gap {gap:.3e} too large for an optimality certificate\n"
            + dump_lp(lp)
        )
    return residual, gap


#: HiGHS ``simplex_strategy`` values: dual and primal simplex.
DUAL_SIMPLEX = 1
PRIMAL_SIMPLEX = 4

#: HiGHS ``simplex_dual_edge_weight_strategy`` value: Devex pricing.
DEVEX_PRICING = 1


class HighsModel:
    """One HiGHS model, run once for a whole LP (:func:`solve`) or kept
    warm between runs (the column generation of :mod:`imdot.ot`).

    Rows are fixed when the model is made; columns are added in batches and
    row bounds changed between runs, and each run starts from the last
    basis.  The model records what changed since its last run and picks the
    simplex that basis admits.  Added columns leave it primal feasible, so a
    run after :meth:`add_columns` alone takes primal simplex.  New row bounds
    leave it dual feasible, so a run after :meth:`set_row_bounds`, or the
    first run of a new model, takes dual simplex.  The dual simplex prices
    by Devex weights (``DEVEX_PRICING``), not exact steepest edge: a
    steepest-edge pivot costs one more solve with the basis, and on the
    global transport walks of :mod:`imdot.ot` Devex took about half the
    pivots.
    Status, primal values, row duals and iteration counts are read back
    after each run; certifying them is the caller's job (:func:`certify`).
    """

    def __init__(self, row_lower, row_upper):
        self._lower = np.array(row_lower, dtype=float)
        self._upper = np.array(row_upper, dtype=float)
        self._highs = _Highs()
        for option, value in (("output_flag", False),
                              ("presolve", "off"),
                              ("simplex_dual_edge_weight_strategy", DEVEX_PRICING),
                              ("primal_feasibility_tolerance", HIGHS_TOL),
                              ("dual_feasibility_tolerance", HIGHS_TOL)):
            self._set_option(option, value)
        n = len(self._lower)
        self._check("addRows", self._highs.addRows(
            n, self._lower, self._upper, 0, np.zeros(n, np.int32),
            np.zeros(0, np.int32), np.zeros(0)))
        self.n_cols = 0
        self._rows_changed = True

    @staticmethod
    def _check(call: str, status, row=None) -> None:
        # HiGHS reports a rejected change (an out-of-range row index, or an
        # option value out of range, say) by its return status alone and
        # leaves the model as it was.
        if status == HighsStatus.kError:
            raise LpError(f"HiGHS {call} failed" + ("" if row is None else f" on row {row}"))

    def _set_option(self, option: str, value) -> None:
        self._check(f"setOptionValue({option!r}, {value!r})",
                    self._highs.setOptionValue(option, value))

    def add_columns(self, cost, starts, indices, values, lower=None, upper=None) -> None:
        """Add columns with objective ``cost`` and bounds ``lower <= x <=
        upper`` (by default ``x >= 0``), their entries given in compressed
        sparse column form: column ``k`` has ``values[starts[k]:starts[k +
        1]]`` in the rows ``indices[starts[k]:starts[k + 1]]``."""
        n = len(starts) - 1
        if n == 0:
            return
        lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        self._check("addCols", self._highs.addCols(
            n, np.asarray(cost, dtype=float), lower, upper,
            int(starts[-1]), np.asarray(starts[:-1], dtype=np.int32),
            np.asarray(indices, dtype=np.int32), np.asarray(values, dtype=float)))
        self.n_cols += n

    def set_row_bounds(self, rows, lower, upper) -> None:
        for i, lo, up in zip(rows, lower, upper):
            self._check("changeRowBounds",
                        self._highs.changeRowBounds(int(i), float(lo), float(up)), i)
            self._lower[i], self._upper[i] = lo, up
            self._rows_changed = True

    def run(self):
        """``(status, x, row_dual, iterations)``; status as in LpSolution."""
        self._set_option(
            "simplex_strategy", DUAL_SIMPLEX if self._rows_changed else PRIMAL_SIMPLEX)
        self._rows_changed = False
        self._highs.run()
        status = self._highs.getModelStatus()
        if status == HighsModelStatus.kModelEmpty:
            # No columns: feasible exactly when every row admits 0.
            feasible = np.all(self._lower <= 0) and np.all(self._upper >= 0)
            return ("optimal" if feasible else "infeasible", np.zeros(0),
                    np.zeros(len(self._lower)), 0)
        iterations = int(self._highs.getInfo().simplex_iteration_count)
        if status == HighsModelStatus.kInfeasible:
            return "infeasible", np.zeros(0), np.zeros(0), iterations
        if status == HighsModelStatus.kUnbounded:
            return "unbounded", np.zeros(0), np.zeros(0), iterations
        if status != HighsModelStatus.kOptimal:
            # kUnboundedOrInfeasible included: it proves neither.
            raise LpError("solver failed: " + self._highs.modelStatusToString(status))
        solution = self._highs.getSolution()
        return ("optimal", np.asarray(solution.col_value),
                np.asarray(solution.row_dual), iterations)


def dual_of(lp: LinearProgram) -> LinearProgram:
    """Explicit dual of an LP whose variables are all bounded by ``x >= 0``.

    The dual is returned in minimization form, so strong duality reads
    ``solve(lp).value == -solve(dual_of(lp)).value``.
    """
    if np.any(lp.lower != 0) or np.any(np.isfinite(lp.upper)):
        raise ValueError("dual_of only supports x >= 0 variable bounds")
    rel = np.asarray(lp.relations)
    eq = np.flatnonzero(rel == "=")
    le = np.flatnonzero(rel == "<=")
    ge = np.flatnonzero(rel == ">=")

    dense = lp.A.toarray() if sp.issparse(lp.A) else np.asarray(lp.A)
    A_eq = dense[eq]
    A_le = np.vstack([dense[le], -dense[ge]]) if (len(le) or len(ge)) else np.empty((0, lp.n_vars))
    b_le = np.concatenate([lp.b[le], -lp.b[ge]]) if (len(le) or len(ge)) else np.empty(0)

    # Primal: min c.x, A_eq x = b_eq, A_le x <= b_le, x >= 0.
    # Dual:   max b_eq.y + b_le.z, A_eq'y + A_le'z <= c, z <= 0, y free.
    # With w = -z >= 0 and in min form:
    #   min -b_eq.y + b_le.w  s.t.  A_eq'y - A_le'w <= c,  y free, w >= 0.
    n_eq, n_le = len(eq), len(b_le)
    c_dual = np.concatenate([-lp.b[eq], b_le])
    A_dual = np.hstack([A_eq.T, -A_le.T])
    rel_dual = ["<="] * lp.n_vars
    lower = np.concatenate([np.full(n_eq, -np.inf), np.zeros(n_le)])
    return LinearProgram(c_dual, A_dual, rel_dual, lp.c, lower=lower)


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text fixed-format dump for reproducing solver issues; an LP of
    more than 200 rows or 1000 variables gets only its sizes and norms."""
    lines = [f"LP n_vars={lp.n_vars} n_rows={lp.n_rows} minimize"]
    if lp.n_rows > 200 or lp.n_vars > 1000:
        lines.append(
            f"(too large to dump: |c|_inf={np.max(np.abs(lp.c), initial=0.0)!r} "
            f"|b|_inf={np.max(np.abs(lp.b), initial=0.0)!r})"
        )
        return "\n".join(lines)
    lines.append("c " + " ".join(repr(float(v)) for v in lp.c))
    for i in range(lp.n_rows):
        coeffs = " ".join(repr(float(v)) for v in lp.row(i))
        lines.append(f"row {i} {lp.relations[i]} {lp.b[i]!r} : {coeffs}")
    for j in range(lp.n_vars):
        lines.append(f"bound {j} {lp.lower[j]!r} {lp.upper[j]!r}")
    return "\n".join(lines)
