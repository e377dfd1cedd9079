"""Generic linear-program layer used by the transport and dual solves.

Problems are stated in HiGHS's own form (:class:`LinearProgram`): rows are
bounded as variables are, ``row_lower <= A x <= row_upper``, with ``A`` one
compressed-column (CSC) matrix.  Every problem is solved by one loop,
:func:`solve_path`, on one adapter, :class:`HighsModel`: a warm model walked
over a list of row bounds, which grows by columns of the LP when a run ends
infeasible or a caller's pricing names some.  Before each new entry of a
priced walk it drops the columns, outside its start, that the last optimum
prices out; pricing brings back any that pay again.  The LP is given by its
columns, taken on demand: a :class:`LinearProgram`, or a column source such
as the arc grid of :mod:`imdot.ot`, which never builds its columns all at
once.  :func:`solve` is the simplest case, one entry with every column and
no pricing; the column generation of :mod:`imdot.ot` is its priced case.  A
solve that does not end optimal raises :class:`LpError` naming the status;
an optimal one is re-certified from the primal values and the row duals
alone, so a numerically broken solve raises instead of returning a silently
wrong answer.  The certificate is :func:`certify` on the columns the model
holds, and, for every other column, the pricing pass that ended the entry:
those columns are at zero, so their one condition is the sign of their
reduced cost.  It reads those columns' CSC arrays as the column source
gives them, with the entry's row bounds, and sums ``A x`` and ``A' y`` over
them itself, to the bit as SciPy's sparse products would; no LP is rebuilt
for it, and the held columns become a :class:`LinearProgram` only for the
:func:`dump_lp` of a failed entry.  An :class:`LpSolution` is thus always a certified optimum,
and its value and its certificate's duality gap are correctly rounded
(``math.fsum``), whatever the BLAS thread count.  The solver layer's
tolerances are named here: the certificate's ``FEASIBILITY_TOL`` and
``GAP_TOL``, and ``HIGHS_TOL``, the tolerance HiGHS works to and column
generation prices to (:func:`pricing_tolerance`).  The data layer's
rounding slack is :data:`imdot.measures.ROUNDING_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "solve_path",
    "certify",
    "dual_tolerance",
    "pricing_tolerance",
    "dump_lp",
]

#: Feasibility residual allowed on an optimal solution: primal residuals
#: relative to ``1 +`` the largest finite row bound in absolute value, dual
#: residuals (:func:`dual_tolerance`) relative to ``1 + ||c||_inf``.
FEASIBILITY_TOL = 1e-8

#: Duality gap allowed on an optimal solution, relative to ``1 + |value|``.
GAP_TOL = 1e-7

#: Primal and dual feasibility tolerance HiGHS itself works to, and with it
#: column generation's pricing (:func:`pricing_tolerance`).  HiGHS's floor:
#: it rejects 1e-11.
HIGHS_TOL = 1e-10


class LpError(RuntimeError):
    """Numerical breakdown or solver failure, with diagnostics attached."""


def _check_bounds(kind: str, lower: np.ndarray, upper: np.ndarray) -> None:
    """A ValueError, naming it, for a NaN among the ``kind`` (``"row"`` or
    ``"variable"``) bounds or an infinite bound on the wrong side: a lower
    bound ``inf`` or an upper bound ``-inf``, which HiGHS would refuse
    without naming it.  Crossed bounds are left to the caller."""
    # A NaN fails these comparisons as an infinite bound on the wrong side
    # does, so bounds that pass them need no other check.
    if (lower < np.inf).all() and (upper > -np.inf).all():
        return
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError(f"{kind} bounds must not be NaN")
    prefix = "row_" if kind == "row" else ""
    name, wrong = ("lower", np.inf) if (lower == np.inf).any() else ("upper", -np.inf)
    raise ValueError(f"{prefix}{name} must not be {wrong}")


def _as_csc(A, n_rows, n_cols):
    if sp.issparse(A):
        A = A.tocsc()
    else:
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError("constraint matrix must be 2-d")
        A = sp.csc_matrix(A)
    if A.shape != (n_rows, n_cols):
        raise ValueError(f"constraint matrix is {A.shape}, expected {(n_rows, n_cols)}")
    return A


@dataclass(frozen=True)
class LinearProgram:
    """``minimize c @ x  s.t.  row_lower <= A x <= row_upper,  lower <= x <= upper``.

    An infinite bound is absent, and equal bounds make an equality row or a
    pinned variable; by default ``x >= 0``.  Costs and matrix entries must
    be finite, no bound may be NaN, and an infinite bound must lie on its own
    side: no lower bound is ``inf`` and no upper bound ``-inf``, which HiGHS
    would refuse without naming it.  ``A`` is always CSC, the
    compressed columns HiGHS receives: a sparse input becomes ``A.tocsc()``,
    which makes no copy of a CSC matrix, and a dense one is converted once.
    """

    c: np.ndarray
    A: sp.csc_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, c, A, row_lower, row_upper, lower=None, upper=None):
        c = np.asarray(c, dtype=float)
        row_lower = np.asarray(row_lower, dtype=float)
        row_upper = np.asarray(row_upper, dtype=float)
        if c.ndim != 1 or row_lower.ndim != 1 or row_upper.shape != row_lower.shape:
            raise ValueError("c and the row bounds must be vectors, the row bounds "
                             "of equal length")
        lower = np.zeros(len(c)) if lower is None else np.asarray(lower, dtype=float)
        upper = np.full(len(c), np.inf) if upper is None else np.asarray(upper, dtype=float)
        if lower.shape != c.shape or upper.shape != c.shape:
            raise ValueError("bounds must match the variable count")
        if not np.isfinite(c).all():
            raise ValueError("costs must be finite")
        _check_bounds("row", row_lower, row_upper)
        _check_bounds("variable", lower, upper)
        A = _as_csc(A, len(row_lower), len(c))
        if not np.isfinite(A.data).all():
            raise ValueError("constraint matrix entries must be finite")
        if (row_lower > row_upper).any():
            raise ValueError("row lower bound exceeds row upper bound")
        if (lower > upper).any():
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "row_lower", row_lower)
        object.__setattr__(self, "row_upper", row_upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_rows(self) -> int:
        return len(self.row_lower)

    @property
    def c_norm(self) -> float:
        """``||c||_inf``, 0 without columns."""
        return float(np.abs(self.c).max(initial=0.0))

    # The CSC arrays of ``A``, which :func:`certify` reads.
    indptr = property(lambda self: self.A.indptr)
    indices = property(lambda self: self.A.indices)
    data = property(lambda self: self.A.data)

    def columns(self, keys) -> tuple:
        """``(c, starts, indices, values, lower, upper)`` of the sorted,
        distinct columns ``keys``, as :meth:`HighsModel.add_columns` takes
        them; the LP's own arrays when ``keys`` are every column."""
        keys = np.asarray(keys, dtype=int)
        A = self.A
        if len(keys) == self.n_vars:
            return self.c, A.indptr, A.indices, A.data, self.lower, self.upper
        first, last = A.indptr[keys], A.indptr[keys + 1]
        starts = np.concatenate([[0], np.cumsum(last - first)])
        entries = np.repeat(first - starts[:-1], last - first) + np.arange(starts[-1])
        return (self.c[keys], starts, A.indices[entries], A.data[entries], self.lower[keys],
                self.upper[keys])


@dataclass(frozen=True)
class LpSolution:
    """A certified optimum: :func:`certify` has passed on ``x`` and the row
    duals it came with."""

    value: float
    x: np.ndarray
    iterations: int            # simplex iterations, summed over rounds
    residual: float            # primal feasibility residual of the certificate
    gap: float                 # |primal - dual| of the certificate
    rounds: int                # HiGHS runs of this entry: 1 for a dense solve
    columns: int               # columns in the model at its end: n_vars for a
                               # dense solve, fewer when priced


class _Entry(NamedTuple):
    """The LP of one :func:`solve_path` entry over the model's columns, as
    :func:`certify` reads it: the columns as ``lp.columns(held)`` gives
    them, then the entry's row bounds."""

    c: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray


def _row_bound_norm(lp) -> float:
    """Largest finite row bound in absolute value, 0 if there is none."""
    bounds = np.concatenate([lp.row_lower, lp.row_upper])
    return float(np.abs(bounds[np.isfinite(bounds)]).max(initial=0.0))


def _products(lp, x: np.ndarray, y: np.ndarray) -> tuple:
    """``(A x, A' y)`` for the matrix of ``lp``, summed by ``np.bincount``
    over its CSC arrays: each entry in the order SciPy's CSC product ``A @
    x`` and CSR product ``A.T @ y`` add its terms, so equal to them bit for
    bit."""
    column = np.repeat(np.arange(len(lp.c)), lp.indptr[1:] - lp.indptr[:-1])
    Ax = np.bincount(lp.indices, weights=lp.data * x[column], minlength=len(lp.row_lower))
    Aty = np.bincount(column, weights=lp.data * y[lp.indices], minlength=len(lp.c))
    # Without entries np.bincount counts, in integers, whatever the weights.
    return Ax.astype(float, copy=False), Aty.astype(float, copy=False)


def _primal_residual(lp, Ax: np.ndarray, x: np.ndarray) -> float:
    """Largest violation of a row or a variable bound by ``x``, whose row
    activities are ``Ax``."""
    violations = np.concatenate([lp.row_lower - Ax, Ax - lp.row_upper, lp.lower - x,
                                 x - lp.upper])
    # ndarray.max, unlike max, keeps a NaN.
    return float(violations.max(initial=0.0))


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` to a certified optimum: one :func:`solve_path` entry
    with every column and no pricing.  Raises :class:`LpError`, with
    :func:`dump_lp`, when it does not end optimal (naming the status), on
    solver breakdown, or when the certificate fails."""
    solutions = solve_path(lp, [(lp.row_lower, lp.row_upper)], np.arange(lp.n_vars))
    if not solutions:
        raise LpError("LP is infeasible\n" + dump_lp(lp))
    return solutions[0]


def solve_path(lp, bounds, initial, price=None) -> list:
    """Solve ``lp`` at each entry of ``bounds`` on one warm HiGHS model.

    ``lp`` is a :class:`LinearProgram` or a column source like it: its
    ``n_vars`` columns, ``c_norm`` (``||c||_inf`` over all of them) and
    ``columns(keys)``, the columns ``keys`` in the form
    :meth:`HighsModel.add_columns` takes.  Entry ``e`` is ``lp`` with the
    row bounds ``bounds[e] = (row_lower, row_upper)``.  The model starts
    with the columns ``initial`` of ``lp``; each entry changes the row bounds
    that differ, and runs again while columns are added: after an infeasible
    run every column the model lacks, after an optimal one those that
    ``price(row_dual)`` names.
    ``price`` returns ``(columns, lowest)``: the columns to add and the
    smallest reduced cost over every column, all of them ``x >= 0``
    columns.  It may name columns the model holds; only this function
    tracks the model, and it drops them.  A model that holds every column
    is not priced, and without ``price`` the model must start with every
    column.  Each add reaches HiGHS sorted and deduplicated, with its
    columns' own bounds.

    Before each entry after the first, a priced walk deletes from the model
    every column that is not a start column and that the previous entry's
    optimum prices out: at zero, with a reduced cost above
    ``pricing_tolerance(lp.c_norm)``, the mirror of pricing, which adds a
    column below ``-pricing_tolerance(lp.c_norm)``.  The basis stays warm, since such a
    column is nonbasic, and a dropped column that prices negative later
    comes back through ``price``.  The start columns stay, so that a start
    that is feasible at every entry keeps every entry feasible; otherwise a
    run could end infeasible and take every column.

    An entry's row bounds are checked before HiGHS sees them, by the rule
    of :class:`LinearProgram`: a NaN, a lower bound ``inf`` or an upper
    bound ``-inf`` raises its ValueError.  Crossed bounds make an
    infeasible entry.

    An entry ends at an optimal run that adds no column.  Its certificate
    is :func:`certify` on the model's columns, as ``lp.columns`` gives them
    in sorted order, and the entry's row bounds, which also gives its value,
    with the dual tolerance of every column of ``lp``, and the pricing pass
    that ended it: no column prices below ``-dual_tolerance``.  A column
    outside the model is at zero, so it adds nothing to the residual, the
    value or the gap; this is the certificate of :func:`certify` on every
    column.

    Returns one :class:`LpSolution` per entry, in order, with ``x`` over
    every column, up to the first entry infeasible with every column: a
    shorter list than ``bounds`` means that entry is infeasible, and the
    caller names it.  Raises :class:`LpError`, with the :func:`dump_lp` of
    the entry's model, the one :class:`LinearProgram` it builds, when HiGHS
    or a certificate fails.
    """
    c_norm = lp.c_norm
    tol = pricing_tolerance(c_norm)
    keys = np.zeros(0, dtype=int)  # the LP column of each model column, in HiGHS order

    def add(new) -> int:
        nonlocal keys
        new = np.unique(np.asarray(new, dtype=int))
        if len(keys):
            # A lookup table over the range of ``keys``: np.setdiff1d would
            # sort the model's columns again at every pricing round.
            new = new[~np.isin(new, keys, kind="table")]
        if not len(new):
            return 0
        keys = np.concatenate([keys, new])
        model.add_columns(*lp.columns(new))
        return len(new)

    def drop(n_start) -> None:
        """Delete the model's columns after its first ``n_start``, the
        start, that the last optimum prices out: at zero, with a reduced
        cost above the pricing tolerance."""
        nonlocal keys
        out = np.flatnonzero((model.col_value() == 0) & (model.col_dual() > tol))
        out = out[out >= n_start]
        if len(out):
            model.delete_columns(out)
            keys = np.delete(keys, out)

    def held_lp(lower, upper) -> LinearProgram:
        """The LP of the model's sorted columns at the given rows, for
        :func:`dump_lp`."""
        c, starts, indices, values, col_lower, col_upper = lp.columns(np.sort(keys))
        A = sp.csc_matrix((values, indices, starts), shape=(len(lower), len(c)))
        return LinearProgram(c, A, lower, upper, col_lower, col_upper)

    solutions, previous = [], None
    for lower, upper in bounds:
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        _check_bounds("row", lower, upper)
        try:
            if previous is None:
                model = HighsModel(lower, upper)
                n_start = add(initial)
                if price is None and len(keys) < lp.n_vars:
                    raise ValueError("a model without every column needs pricing")
            else:
                if price is not None:
                    drop(n_start)
                changed = np.flatnonzero((lower != previous[0]) | (upper != previous[1]))
                model.set_row_bounds(changed, lower[changed], upper[changed])
            previous = lower, upper
            rounds = iterations = 0
            while True:
                status, row_dual, nit = model.run()
                rounds += 1
                iterations += nit
                lowest = math.inf
                if len(keys) == lp.n_vars:
                    if status == "optimal":
                        break
                    return solutions
                if status == "optimal":
                    new, lowest = price(row_dual)
                else:
                    new = np.arange(lp.n_vars)
                if not add(new):
                    break
            x = np.zeros(lp.n_vars)
            x[keys] = model.col_value()
            held = np.sort(keys)
            value, residual, gap = certify(_Entry(*lp.columns(held), lower, upper), x[held],
                                           row_dual, c_norm)
            _certify_outside(lowest, c_norm)
        except LpError as error:
            raise LpError(f"{error}\n" + dump_lp(held_lp(lower, upper))) from error
        solutions.append(LpSolution(value, x, iterations, residual, gap, rounds, len(keys)))
    return solutions


def dual_tolerance(c_norm: float) -> float:
    """Reduced cost a certified column may have on a side its bounds do not
    allow: the dual feasibility bound ``FEASIBILITY_TOL * (1 + c_norm)``,
    where ``c_norm`` is ``||c||_inf`` of the cost vector ``c``."""
    return FEASIBILITY_TOL * (1.0 + c_norm)


def pricing_tolerance(c_norm: float) -> float:
    """Reduced cost below which column generation still adds a column:
    ``HIGHS_TOL * (1 + c_norm)``, at the scale of :func:`dual_tolerance`
    but at the tolerance HiGHS itself works to.  Pricing to the looser
    certificate bound would stop at whichever near-optimal basis the
    simplex path reached, so a value would depend on that path."""
    return HIGHS_TOL * (1.0 + c_norm)


def _bound_rule(dual: np.ndarray, lower: np.ndarray, upper: np.ndarray, tol: float):
    """The dual of a column (its reduced cost) or of a row bounded by
    ``lower`` and ``upper``: it may exceed ``tol`` only against a finite
    lower bound and fall below ``-tol`` only against a finite upper bound.

    Returns ``(worst, terms)``: the index of the largest violation (``None``
    if there is none; a NaN is one) and the bounds' share of the dual
    objective as its nonzero terms, ``l * max(d, 0)`` and ``u * min(d, 0)``
    over the finite bounds ``l`` and ``u``.
    """
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    excess = np.maximum(np.where(has_lower, 0.0, dual), np.where(has_upper, 0.0, -dual))
    worst = None
    if not excess.max(initial=0.0) <= tol:
        worst = int(np.argmax(excess))
    terms = np.concatenate([lower[has_lower] * np.maximum(dual[has_lower], 0.0),
                            upper[has_upper] * np.minimum(dual[has_upper], 0.0)])
    return worst, terms[terms != 0]


def certify(lp, x: np.ndarray, row_dual: np.ndarray, c_norm=None):
    """Certify ``x`` optimal for ``lp`` from row duals, independent of the
    solver, and return ``(value, residual, gap)``; raise LpError otherwise.

    ``lp`` is a :class:`LinearProgram` or any object with its ``c``, the
    CSC arrays ``indptr``, ``indices`` and ``data`` of its matrix, and its
    bounds ``lower``, ``upper``, ``row_lower`` and ``row_upper`` (and its
    ``c_norm`` when ``c_norm`` is not given), such as the entry that
    :func:`solve_path` certifies on the columns its model holds.  ``A x``
    and ``A' row_dual`` are summed over those arrays (:func:`_products`),
    equal to SciPy's sparse products to the bit.

    Checked on every column and row of ``lp``: primal feasibility of ``x``
    within ``FEASIBILITY_TOL`` times ``1 +`` the largest finite row bound,
    dual feasibility within ``dual_tolerance(c_norm)`` and the duality gap,
    where ``c_norm`` is ``lp.c_norm`` by default or, when ``lp`` holds some
    columns of a larger LP, the ``||c||_inf`` of that LP.  The
    reduced costs ``d = c - A' row_dual`` and the row duals follow one bound
    rule, :func:`_bound_rule`: ``d >= 0`` for ``x >= 0``, ``d = 0`` for a
    free variable, either sign for a pinned one or an equality row.  Its
    bound terms make the dual objective; for an equality row ``b`` with dual
    ``y`` they are exactly ``b * y``, and for ``x >= 0`` exactly zero.  A
    NaN anywhere fails the certificate.

    The value ``c @ x`` and the dual objective are each ``math.fsum`` over
    their nonzero terms: correctly rounded, so the value and the gap do not
    depend on the BLAS thread count as a threaded dot product would.
    """
    Ax, Aty = _products(lp, x, row_dual)
    residual = _primal_residual(lp, Ax, x)
    scale = 1.0 + _row_bound_norm(lp)
    if not residual <= FEASIBILITY_TOL * scale:
        raise LpError(f"optimal solution violates feasibility: residual {residual:.3e} "
                      f"exceeds {FEASIBILITY_TOL:.0e} * {scale:.3e}")
    tol = dual_tolerance(lp.c_norm if c_norm is None else c_norm)
    reduced = lp.c - Aty
    j, column_terms = _bound_rule(reduced, lp.lower, lp.upper, tol)
    if j is not None:
        side = f"below -{tol:.3e}" if reduced[j] < 0 else f"above {tol:.3e}"
        raise LpError(f"duals violate feasibility: column {j} has reduced cost "
                      f"{reduced[j]:.3e} {side}")
    i, row_terms = _bound_rule(row_dual, lp.row_lower, lp.row_upper, tol)
    if i is not None:
        raise LpError(f"dual of row {i} has the wrong sign: {row_dual[i]:.3e}")
    nonzero = np.flatnonzero(x)
    value = math.fsum(lp.c[nonzero] * x[nonzero])
    gap = abs(value - math.fsum(np.concatenate([row_terms, column_terms])))
    if not gap <= GAP_TOL * (1.0 + abs(value)):
        raise LpError(f"duality gap {gap:.3e} too large for an optimality certificate")
    return value, residual, gap


def _certify_outside(lowest: float, c_norm: float) -> None:
    """The rest of a priced entry's certificate: ``lowest``, the smallest
    reduced cost over every column, is at least ``-dual_tolerance(c_norm)``,
    ``c_norm`` the ``||c||_inf`` of the LP.  The model's columns have passed
    :func:`certify` at that bound, so a failure is a column outside the
    model, an ``x >= 0`` column at zero."""
    tol = dual_tolerance(c_norm)
    # Written as "not within", so that a NaN fails it.
    if not lowest >= -tol:
        raise LpError(f"duals violate feasibility: a column outside the model has "
                      f"reduced cost {lowest:.3e} below -{tol:.3e}")


#: HiGHS ``simplex_strategy`` value: HiGHS chooses the simplex of each run
#: from the basis it starts from.
CHOOSE_SIMPLEX = 0

#: HiGHS ``simplex_dual_edge_weight_strategy`` value: Devex pricing.
DEVEX_PRICING = 1


class HighsModel:
    """One HiGHS model, kept warm between runs by :func:`solve_path`.

    Rows are fixed when the model is made; columns are added and deleted in
    batches and row bounds changed between runs, and each run starts from
    the last basis.  HiGHS picks the simplex that basis admits (``CHOOSE_SIMPLEX``):
    primal after added columns, which leave it primal feasible, dual after
    new row bounds, which leave it dual feasible.  The dual simplex prices
    by Devex weights (``DEVEX_PRICING``; Harris, 1973), not
    exact steepest edge, whose weights cost one more solve with the basis
    per pivot; on the global transport walks of :mod:`imdot.ot` Devex also
    took about half the pivots.
    """

    def __init__(self, row_lower, row_upper):
        self._highs = _Highs()
        for option, value in (("output_flag", False),
                              ("presolve", "off"),
                              ("simplex_strategy", CHOOSE_SIMPLEX),
                              ("simplex_dual_edge_weight_strategy", DEVEX_PRICING),
                              ("primal_feasibility_tolerance", HIGHS_TOL),
                              ("dual_feasibility_tolerance", HIGHS_TOL)):
            self._check(f"setOptionValue({option!r}, {value!r})",
                        self._highs.setOptionValue(option, value))
        n = len(row_lower)
        self._check("addRows", self._highs.addRows(
            n, np.asarray(row_lower, dtype=float), np.asarray(row_upper, dtype=float), 0,
            np.zeros(n, np.int32), np.zeros(0, np.int32), np.zeros(0)))
        self._solution = None

    @property
    def n_cols(self) -> int:
        return self._highs.getNumCol()

    @staticmethod
    def _check(call: str, status, row=None) -> None:
        # HiGHS reports a rejected change (an out-of-range row index, or an
        # option value out of range, say) by its return status alone and
        # leaves the model as it was.
        if status == HighsStatus.kError:
            raise LpError(f"HiGHS {call} failed" + ("" if row is None else f" on row {row}"))

    def add_columns(self, cost, starts, indices, values, lower, upper) -> None:
        """Add columns with objective ``cost`` and bounds ``lower <= x <=
        upper``, their entries given in compressed sparse column form:
        column ``k`` has ``values[starts[k]:starts[k + 1]]`` in the rows
        ``indices[starts[k]:starts[k + 1]]``."""
        n = len(starts) - 1
        if n == 0:
            return
        self._check("addCols", self._highs.addCols(
            n, np.asarray(cost, dtype=float), np.asarray(lower, dtype=float),
            np.asarray(upper, dtype=float), int(starts[-1]),
            np.asarray(starts[:-1], dtype=np.int32), np.asarray(indices, dtype=np.int32),
            np.asarray(values, dtype=float)))

    def delete_columns(self, positions) -> None:
        """Delete the columns at the ascending, distinct ``positions``, in the
        order added; the others keep their order.  The basis stays warm:
        deleting nonbasic columns leaves it a basis of what remains."""
        positions = np.asarray(positions, dtype=np.int32)
        self._check("deleteCols", self._highs.deleteCols(len(positions), positions))
        self._solution = None

    def set_row_bounds(self, rows, lower, upper) -> None:
        for i, lo, up in zip(rows, lower, upper):
            self._check("changeRowBounds",
                        self._highs.changeRowBounds(int(i), float(lo), float(up)), i)

    def run(self):
        """``(status, row_dual, iterations)`` of one run.

        ``status`` is ``"optimal"``, with the row duals, or
        ``"infeasible"``, with none: the one other end that column
        generation acts on (it adds every arc).  Any other model status,
        unbounded included, raises :class:`LpError` naming it.  The primal
        values of an optimal run are read by :meth:`col_value`, only where
        an entry ends: pricing needs the row duals alone.
        """
        self._solution = None
        self._highs.run()
        status = self._highs.getModelStatus()
        if status == HighsModelStatus.kModelEmpty:
            # No columns: feasible exactly when every row admits 0.
            rows = self._highs.getLp()
            lower, upper = np.asarray(rows.row_lower_), np.asarray(rows.row_upper_)
            feasible = np.all(lower <= 0) and np.all(upper >= 0)
            return ("optimal" if feasible else "infeasible", np.zeros(len(lower)), 0)
        info, iterations = self._highs.getInfoValue("simplex_iteration_count")
        if info != HighsStatus.kOk:
            raise LpError("HiGHS getInfoValue('simplex_iteration_count') failed")
        iterations = int(iterations)
        if status == HighsModelStatus.kInfeasible:
            return "infeasible", np.zeros(0), iterations
        if status != HighsModelStatus.kOptimal:
            # kUnbounded included, which no caller acts on, and
            # kUnboundedOrInfeasible, which proves neither.
            raise LpError("solver failed: " + self._highs.modelStatusToString(status))
        self._solution = self._highs.getSolution()
        return "optimal", np.asarray(self._solution.row_dual), iterations

    def col_value(self) -> np.ndarray:
        """The primal values of the last run, which ended optimal, one per
        column in the order added (none for a model without columns)."""
        if self._solution is None:
            return np.zeros(0)
        return np.asarray(self._solution.col_value)

    def col_dual(self) -> np.ndarray:
        """The reduced costs of the last run, as :meth:`col_value` gives its
        primal values."""
        if self._solution is None:
            return np.zeros(0)
        return np.asarray(self._solution.col_dual)


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text fixed-format dump for reproducing solver issues: the
    costs, each row's bounds and coefficients and each variable's bounds,
    as plain floats.  An LP of more than 200 rows or 1000 variables gets
    only its sizes and norms."""
    lines = [f"LP n_vars={lp.n_vars} n_rows={lp.n_rows} minimize"]
    if lp.n_rows > 200 or lp.n_vars > 1000:
        lines.append(
            f"(too large to dump: |c|_inf={lp.c_norm!r} "
            f"|row bounds|_inf={_row_bound_norm(lp)!r})"
        )
        return "\n".join(lines)
    lines.append("c " + " ".join(repr(float(v)) for v in lp.c))
    for i, row in enumerate(lp.A.toarray()):
        coeffs = " ".join(repr(float(v)) for v in row)
        bounds = f"{float(lp.row_lower[i])!r} {float(lp.row_upper[i])!r}"
        lines.append(f"row {i} {bounds} : {coeffs}")
    for j in range(lp.n_vars):
        lines.append(f"bound {j} {float(lp.lower[j])!r} {float(lp.upper[j])!r}")
    return "\n".join(lines)
