"""Independent references of the tests, built apart from the program.

- :func:`dense_lp`: the whole transport LP of :func:`imdot.ot._solve_blocks`
  at one budget, from sparse Kronecker products and block matrices, where
  the program makes its columns by index arithmetic (``ot._ArcGrid``).
- :func:`dual_of`: the explicit dual of an ``x >= 0`` LP.
- :func:`certificate_terms`: ``(value, residual, gap)`` of
  :func:`imdot.lp.certify`, from SciPy's sparse products and plain loops,
  where the program sums over the CSC arrays itself.
- :func:`brute_force_transport_value`: balanced transport by vertex
  enumeration.
"""

import math
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from imdot.lp import LinearProgram


def dense_lp(target, cond_weights, costs, cap_scale, budget) -> LinearProgram:
    """The block-transport problem at one budget, as one LP over every arc.

    The first ``K`` columns are the capacity variables ``beta_k``, one per
    class: ``-w_j`` in each capacity row of class ``k`` and 1 in the budget
    row.  Then arc ``(i, j)`` from target ``i`` to column ``j`` of the
    concatenated source (``hstack`` of the class blocks) is column
    ``K + i * n_src + j``, a 1 in target row ``i`` and in capacity row
    ``n_t + j``.  Rows are the target marginals, equalities, the capacity
    rows ``cap_scale_k * w_j``, bounded above only, and the budget row, an
    equality at ``budget``.  Explicit zeros are removed."""
    n_t, n_src = target.n_atoms, sum(len(w) for w in cond_weights)
    plan_rows = sp.kron(sp.eye(n_t), np.ones((1, n_src)))
    cap_rows = sp.kron(np.ones((1, n_t)), sp.eye(n_src))
    c = np.hstack([cost.entries for cost in costs]).ravel()
    upper = np.concatenate([target.weights,
                            *(s * w for s, w in zip(cap_scale, cond_weights))])
    lower = np.where(np.arange(len(upper)) < n_t, upper, -np.inf)
    n_classes = len(cond_weights)
    A = sp.bmat([
        [None, plan_rows],
        [sp.block_diag([-np.reshape(w, (-1, 1)) for w in cond_weights]), cap_rows],
        [np.ones((1, n_classes)), None],
    ])
    c = np.concatenate([np.zeros(n_classes), c])
    A = A.tocsr()
    A.eliminate_zeros()
    return LinearProgram(c, A, np.append(lower, budget), np.append(upper, budget))


def dual_of(lp: LinearProgram) -> LinearProgram:
    """Explicit dual of an LP whose variables are all bounded by ``x >= 0``.

    Each finite row bound gets one nonnegative dual variable: ``p_i`` for a
    lower bound ``l_i``, ``q_i`` for an upper bound ``u_i`` (an equality row
    gets both).  The dual ``max l.p - u.q  s.t.  A_l'p - A_u'q <= c`` is
    returned in minimization form, so strong duality reads
    ``solve(lp).value == -solve(dual_of(lp)).value``.

    It is the independent reference of the strong-duality test, which solves
    an LP and this dual as two separate problems and requires opposite
    values, so it checks :func:`imdot.lp.solve` and :func:`imdot.lp.certify`
    from outside.
    """
    if np.any(lp.lower != 0) or np.any(np.isfinite(lp.upper)):
        raise ValueError("dual_of only supports x >= 0 variable bounds")
    low = np.flatnonzero(np.isfinite(lp.row_lower))
    up = np.flatnonzero(np.isfinite(lp.row_upper))
    return LinearProgram(np.concatenate([-lp.row_lower[low], lp.row_upper[up]]),
                         sp.hstack([lp.A[low].T, -lp.A[up].T]),
                         np.full(lp.n_vars, -np.inf), lp.c)


def certificate_terms(lp: LinearProgram, x, row_dual) -> tuple:
    """``(value, residual, gap)`` that :func:`imdot.lp.certify` returns for
    ``x`` and ``row_dual`` on ``lp``, computed without its checks: ``A x``
    and ``A' y`` by SciPy's sparse products, the residual as the largest
    bound violation, and the value and the dual objective as ``math.fsum``
    over every term, each bound term ``l * max(d, 0)`` for a finite lower
    bound ``l`` and ``u * min(d, 0)`` for a finite upper bound ``u``."""
    Ax = lp.A @ x
    residual = max([0.0] + [float(v) for v in np.concatenate(
        [lp.row_lower - Ax, Ax - lp.row_upper, lp.lower - x, x - lp.upper])])
    reduced = lp.c - lp.A.T @ row_dual
    terms = []
    for duals, lowers, uppers in ((reduced, lp.lower, lp.upper),
                                  (row_dual, lp.row_lower, lp.row_upper)):
        for d, low, up in zip(duals, lowers, uppers):
            if np.isfinite(low):
                terms.append(low * max(d, 0.0))
            if np.isfinite(up):
                terms.append(up * min(d, 0.0))
    value = math.fsum(c * v for c, v in zip(lp.c, x))
    return value, residual, abs(value - math.fsum(terms))


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
