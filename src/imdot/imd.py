"""Brute-force and closed-form integral measure discrepancies.

``IMD(Q1, Q2) = sup_f  integral f dQ1 - integral f dQ2`` over a family of
nonnegative functions containing the null function.  This module evaluates
the supremum by exhaustive scan over the enumerable families, provides the
closed forms available for the bounded families, and checks the duality
relation linking localization to mass relaxation.  It is the oracle layer
the transport solvers are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .families import (
    KIND_GRID,
    KIND_HDH,
    FunctionFamily,
    Localization,
    global_localization,
    ground_union,
    member_batches,
    no_localization,
    weights_on_ground,
)
from .measures import ROUNDING_TOL, DiscreteMeasure, _nonnegative, _probability

__all__ = [
    "ImdResult",
    "HdhImdResult",
    "DualityReport",
    "HdhSupportReport",
    "imd_bruteforce",
    "imd_tv_closed_form",
    "imd_f0_support_mass",
    "duality_check",
    "hdh_imd",
    "hdh_support_bound_check",
    "bounded01_localized_value",
    "bounded01_relaxed_value",
    "bounded01_dual_minimum",
]

#: Slack of the duality inequality ``localized <= relaxed + eps * alpha``.
DUALITY_TOL = 1e-9
#: S-mass at or below which a hypothesis pair agrees S-almost-surely.
S_NULL_MASS = 1e-15


@dataclass(frozen=True)
class ImdResult:
    value: float
    argmax_function: np.ndarray
    family_size_scanned: int


def imd_bruteforce(q1: DiscreteMeasure, q2: DiscreteMeasure,
                   family: FunctionFamily,
                   loc: Localization | None = None) -> ImdResult:
    """Exact IMD by exhaustive scan of the (localized) family.

    Both measures must be supported on ``family.ground_points``.  Ties on the
    maximal value resolve to the lexicographically smallest member vector, so
    the result is deterministic and independent of batch partitioning.
    """
    w1 = weights_on_ground(q1, family.ground_points)
    w2 = weights_on_ground(q2, family.ground_points)
    delta = w1 - w2
    admit = (loc or no_localization()).admission(family.ground_points)

    best = -np.inf
    best_vec: np.ndarray | None = None
    scanned = 0
    for batch in member_batches(family):
        admitted = batch[admit(batch)]
        if not len(admitted):
            continue
        scanned += len(admitted)
        values = admitted @ delta
        top = float(values.max())
        if top < best:
            continue
        ties = admitted[values == top]
        cand = ties[np.lexsort(ties.T[::-1])][0]
        if top > best or tuple(cand) < tuple(best_vec):
            best, best_vec = top, cand
    if best_vec is None:
        raise RuntimeError("family admitted no member; the null function is missing")
    return ImdResult(best, np.asarray(best_vec), scanned)


def imd_tv_closed_form(q1: DiscreteMeasure, q2: DiscreteMeasure) -> float:
    """IMD over all [0, 1]-bounded functions: ``sum_i (q1_i - q2_i)_+``.

    For two probability measures this equals half their total variation
    distance.  Atoms are aligned on their ground union: two atoms within
    ``ROUNDING_TOL`` of each other (Chebyshev) are one atom, and an atom
    present in only one measure counts with weight 0 in the other.
    """
    ground = ground_union(q1.points, q2.points)
    w1 = weights_on_ground(q1, ground)
    w2 = weights_on_ground(q2, ground)
    return float(np.sum(np.maximum(w1 - w2, 0.0)))


def imd_f0_support_mass(target: DiscreteMeasure, source: DiscreteMeasure) -> float:
    """IMD at zero localization over bounded functions: T-mass off supp(S).

    Support membership is exact atom-coordinate matching within
    ``ROUNDING_TOL``.
    """
    support = source.support_points()
    if len(support) == 0:
        return float(target.total_mass)
    dist = cdist(target.points, support, metric="chebyshev")
    return float(np.sum(target.weights[dist.min(axis=1) > ROUNDING_TOL]))


# ---------------------------------------------------------------------------
# Closed forms for the convex family of [0, 1]-valued functions
# ---------------------------------------------------------------------------

def _closed_form_args(t, s, name: str, value) -> tuple:
    """``(t, s, value)`` of a closed form as floats, or a ValueError naming
    the argument: ``t`` and ``s`` weight vectors of one length, ``value``
    finite and nonnegative."""
    t, s = _nonnegative("t", t, 1), _nonnegative("s", s, 1)
    if t.shape != s.shape:
        raise ValueError(f"t and s must have the same shape, got {t.shape} and {s.shape}")
    return t, s, float(_nonnegative(name, value))


def bounded01_localized_value(t: np.ndarray, s: np.ndarray, eps: float) -> float:
    """``max sum_i f_i (t_i - s_i)`` over ``0 <= f <= 1`` with ``f . s <= eps``.

    Exact fractional-knapsack solution of the localized problem for the
    convex hull of the bounded families (one coordinate may be fractional).
    """
    t, s, eps = _closed_form_args(t, s, "eps", eps)
    delta = t - s
    gain = float(np.sum(delta[(delta > 0) & (s <= 0)]))
    pick = (delta > 0) & (s > 0)
    if not pick.any():
        return gain
    d, w = delta[pick], s[pick]
    order = np.argsort(-d / w, kind="stable")
    budget = eps
    for i in order:
        if budget <= 0:
            break
        take = min(1.0, budget / w[i])
        gain += take * d[i]
        budget -= take * w[i]
    return gain


def bounded01_relaxed_value(t: np.ndarray, s: np.ndarray, alpha: float) -> float:
    """``IMD(T, (1+alpha)S)`` over [0, 1]-valued functions (indicators attain it)."""
    t, s, alpha = _closed_form_args(t, s, "alpha", alpha)
    return float(np.sum(np.maximum(t - (1.0 + alpha) * s, 0.0)))


def bounded01_dual_minimum(t: np.ndarray, s: np.ndarray, eps: float):
    """Exact ``min_{alpha >= 0} IMD(T, (1+alpha)S) + eps * alpha``.

    The objective is piecewise linear and convex in alpha, so the minimum is
    attained at alpha = 0 or at a breakpoint ``t_i / s_i - 1``.
    """
    t, s, eps = _closed_form_args(t, s, "eps", eps)
    candidates = {0.0}
    for ti, si in zip(t, s):
        if si > 0:
            a = ti / si - 1.0
            if a > 0:
                candidates.add(float(a))
    best_alpha, best = 0.0, np.inf
    for a in sorted(candidates):
        v = bounded01_relaxed_value(t, s, a) + eps * a
        if v < best:
            best, best_alpha = v, a
    return best, best_alpha


# ---------------------------------------------------------------------------
# Duality between localization and relaxation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    localized_value: float
    alpha_grid: np.ndarray
    relaxed_values: np.ndarray
    min_over_grid: float
    best_alpha: float
    grid_gap: float
    inequality_holds: bool
    hull_localized_value: float | None = None
    hull_min_value: float | None = None
    hull_best_alpha: float | None = None
    hull_gap: float | None = None


def duality_check(target: DiscreteMeasure, source: DiscreteMeasure,
                  family: FunctionFamily, eps: float,
                  alpha_grid) -> DualityReport:
    """Verify ``IMD_localized(T, S) <= IMD(T, (1+a)S) + eps*a`` on a grid.

    The inequality is checked for every grid value (it holds for any family).
    For a grid family, indicators included, the report also carries the
    exact values over its convex hull, the [0, 1]-valued functions, where
    the relation is an equality for eps > 0: the localized value is a
    fractional knapsack and the relaxed side is minimized exactly over its
    breakpoints.

    One pass over the family yields both sides: the localized value from the
    admitted members, and ``IMD(T, (1+a)S)`` for every grid value from one
    matrix product per batch.
    """
    alpha_grid = _nonnegative("alpha_grid", alpha_grid, 1)
    if not len(alpha_grid):
        raise ValueError("alpha_grid must not be empty")
    admit = global_localization(eps, source).admission(family.ground_points)
    wt = weights_on_ground(target, family.ground_points)
    ws = weights_on_ground(source, family.ground_points)
    relaxed_deltas = wt[:, None] - ws[:, None] * (1.0 + alpha_grid)
    localized = -np.inf
    relaxed = np.full(len(alpha_grid), -np.inf)
    for batch in member_batches(family):
        gains = batch[admit(batch)] @ (wt - ws)
        localized = max(localized, float(np.max(gains, initial=-np.inf)))
        relaxed = np.maximum(relaxed, np.max(batch @ relaxed_deltas, axis=0))
    relaxed = relaxed + eps * alpha_grid
    inequality_holds = bool(np.all(relaxed >= localized - DUALITY_TOL))
    i_best = int(np.argmin(relaxed))

    hull_loc = hull_min = hull_alpha = hull_gap = None
    if family.kind == KIND_GRID:
        hull_loc = bounded01_localized_value(wt, ws, eps)
        hull_min, hull_alpha = bounded01_dual_minimum(wt, ws, eps)
        hull_gap = hull_min - hull_loc
    return DualityReport(
        localized_value=localized,
        alpha_grid=alpha_grid,
        relaxed_values=relaxed,
        min_over_grid=float(relaxed[i_best]),
        best_alpha=float(alpha_grid[i_best]),
        grid_gap=float(relaxed[i_best] - localized),
        inequality_holds=inequality_holds,
        hull_localized_value=hull_loc,
        hull_min_value=hull_min,
        hull_best_alpha=hull_alpha,
        hull_gap=hull_gap,
    )


# ---------------------------------------------------------------------------
# Hypothesis-disagreement families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HdhImdResult:
    value: float
    argmax_function: np.ndarray
    family_size_scanned: int
    best_pair: tuple
    risk_form_value: float


def hdh_imd(target: DiscreteMeasure, source: DiscreteMeasure,
            family: FunctionFamily) -> HdhImdResult:
    """IMD of (T, S) over hypothesis-disagreement indicators.

    The source is passed already relaxed, as to
    :func:`imdot.ot.lipschitz_imd_dual`: ``source.scaled(1 + beta)`` for
    global relaxation, ``mix(source, conditionals, beta_vec)`` per class.

    Besides the supremum, the complementary classification-risk form
    ``inf_pairs P_T[f = 0] + E_S[f]`` is computed independently and the
    identity ``1 - value == risk form`` is asserted to ``ROUNDING_TOL``
    (the target must be a probability measure for it to make sense).
    """
    if family.kind != KIND_HDH:
        raise ValueError("hdh_imd needs a family of kind 'hdh'")
    _probability("target", target.weights)
    ground = family.ground_points
    wt = weights_on_ground(target, ground)
    ws = weights_on_ground(source, ground)

    # Members come in np.triu_indices order; argmax keeps the first maximum.
    members = np.vstack(list(member_batches(family)))
    mass_t, mass_s = members @ wt, members @ ws
    k = int(np.argmax(mass_t - mass_s))
    best = float(mass_t[k] - mass_s[k])
    risk_best = float(np.min((1.0 - mass_t) + mass_s))
    rows, cols = np.triu_indices(len(family.hypotheses))
    best_pair = (int(rows[k]), int(cols[k]))
    # Written as "not within", so that a NaN fails it.
    if not abs((1.0 - best) - risk_best) <= ROUNDING_TOL:
        raise RuntimeError(
            f"complement identity violated: 1 - {best!r} vs {risk_best!r}"
        )
    return HdhImdResult(best, members[k], len(members), best_pair, risk_best)


@dataclass(frozen=True)
class HdhSupportReport:
    imd_zero_localized: float
    support_mass_bound: float
    support_mask: np.ndarray
    holds: bool


def hdh_support_bound_check(target: DiscreteMeasure, source: DiscreteMeasure,
                            family: FunctionFamily) -> HdhSupportReport:
    """Check ``IMD_{hdh, eps=0}(T, S) <= 1 - T(hypothesis-relative support of S)``.

    The hypothesis-relative support is the intersection of the agreement
    sets of all pairs (i <= j) agreeing S-almost-surely, i.e. whose
    disagreement carries at most ``S_NULL_MASS`` of S's mass.
    """
    if family.kind != KIND_HDH:
        raise ValueError("hdh_support_bound_check needs a family of kind 'hdh'")
    _probability("target", target.weights)
    _probability("source", source.weights)
    ground = family.ground_points
    wt = weights_on_ground(target, ground)
    ws = weights_on_ground(source, ground)

    # One disagreement row per pair; the null member (i == j) always agrees.
    members = np.vstack(list(member_batches(family)))
    agreeing = members[members @ ws <= S_NULL_MASS]
    lhs = float(np.max(agreeing @ wt))
    support = ~agreeing.any(axis=0)
    rhs = 1.0 - float(wt[support].sum())
    return HdhSupportReport(lhs, rhs, support, bool(lhs <= rhs + ROUNDING_TOL))
