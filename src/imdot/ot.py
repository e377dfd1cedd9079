"""Exact partial optimal transport with global and per-class relaxation.

The per-class problem transports a probability target onto a class-
decomposed source whose class-``k`` block offers capacity
``(p_k + beta_k) * conditional_k``; its optimal value equals the IMD of
``(target, source + sum_k beta_k conditional_k)`` over nonnegative
1-Lipschitz functions, which is also computed here directly as the dual LP
on potentials.

Every transport problem is one LP form, solved by ``_solve_blocks``: block
``k`` of the source offers capacity ``(cap_scale_k + beta_k)`` times its
weights, with ``beta_k >= 0`` chosen jointly with the plans under
``sum_k beta_k = budget``.  Wasserstein-1 is one block at scale 1 and budget
0 (with matching masses the equality target rows use every source column in
full); the global relaxation is one block at scale 1 and budget ``beta``,
the split with one class, whose one ``beta`` column takes the whole budget;
the per-class problem is one block per class at scale ``p_k + beta_k`` and
budget 0, which pins every ``beta`` column at zero; and the budget split is
one block per class at scale ``p_k`` and budget ``beta_total``.
``_solve_blocks`` checks the cost blocks and verifies the plans against the
capacities realized; a walk that ends infeasible raises.

Solver.  Every problem is one :func:`imdot.lp.solve_path` walk over the LP
with every arc, run as exact column generation; this module keeps
only what is transport's own.  The walk never builds that LP whole: an
:class:`_ArcGrid` makes its columns on demand from the cost grid.  Arc
``(i, j)`` of the concatenated source is LP column ``K + i * n_src + j``,
after the ``K`` ``beta`` columns, and that column is also its pricing key;
only :func:`_walk_blocks` numbers arcs so, and it hands each entry back as
its ``beta`` values and its plan grid.  The walk starts with the ``beta``
columns and, once the target has ``COARSE_MIN_ATOMS`` atoms, the arcs lifted
from the walk of the coarsened problem alone (:func:`_coarse_arcs`; Oberman
& Ruan, 2015, Schmitzer, 2016): target and source are binned on one grid
over the target of about one target atom per cell, the coarse walk runs at the
largest and the smallest budget of the fine walk, and every fine arc between
two cells that carry mass at either starts in the model, unless there would
be more than ``COARSE_MAX_ARCS`` per fine atom.  The lift holds a feasible
plan at the smallest budget, and so at every budget, since ``beta`` only
grows.  A walk without a lift starts instead with the ``NEAREST_ARCS``
cheapest arcs of each target over the whole source, whatever their class,
and a north-west-corner support at the capacities ``cap_scale_k`` times the
weights (:func:`_initial_arcs`), feasible at budget 0 and so at every
budget.  The start stays in the model for the whole walk, so it keeps every
entry feasible; the coarse walk chooses columns and nothing else.  Each
value is certified on every fine arc, by :func:`imdot.lp.certify` on the
model's arcs and, for every other arc, by the pricing pass that ended the
entry.  Each round prices all arcs exactly, ``C - u - y``, into one buffer
of the walk, and names up to ``ARCS_PER_ROW`` per target row, until none is
below ``-HIGHS_TOL * (1 + max C)``: the tolerance HiGHS itself works to, so
the walk ends at the same optimum whichever simplex ran.  An arc the model
already holds may be named; :func:`imdot.lp.solve_path` drops it.  A model
that holds every arc is not priced.  Several budgets, such as the global
relaxation's or a split's grid, are walked from the largest down, changing
only the budget row; before each budget after the first,
:func:`imdot.lp.solve_path` drops the arcs outside the start that the last
optimum prices out, so that the model does not keep every arc an earlier
budget priced in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .families import ground_union, weights_on_ground
from .lp import (
    FEASIBILITY_TOL,
    HIGHS_TOL,
    LinearProgram,
    LpError,
    pricing_tolerance,
    solve,
    solve_path,
)
from .measures import (
    ROUNDING_TOL,
    CostMatrix,
    DiscreteMeasure,
    _nonnegative,
    _plan,
    _probability,
    cost_matrix,
)

__all__ = [
    "TransportPlanSet",
    "LipschitzPotential",
    "wasserstein1",
    "partial_ot_global",
    "partial_ot_global_path",
    "partial_ot_per_class",
    "partial_ot_beta_split",
    "partial_ot_beta_split_path",
    "lipschitz_imd_dual",
    "support_distance_imd",
    "plan_set_to_dict",
]

#: Largest total-mass difference :func:`wasserstein1` accepts.
MASS_TOL = 1e-10

#: Cheapest arcs of each target, over all classes, that a walk without a
#: lift starts with (:func:`_initial_arcs`).
NEAREST_ARCS = 8

#: Most arcs one pricing round adds per target row.
ARCS_PER_ROW = 5

#: Fewest target atoms for which a walk starts from the arcs lifted from its
#: coarsened problem (:func:`_coarse_arcs`).
COARSE_MIN_ATOMS = 50

#: Most arcs per fine atom, target and source, that the coarse start lifts;
#: a larger lift is left out.  The toy pairs lift 5 to 12 per atom at
#: n = 200 to 2000.
COARSE_MAX_ARCS = 32


@dataclass(frozen=True)
class TransportPlanSet:
    """Per-class transport plans with the relaxation that produced them.

    ``plans[k]`` is ``(n_target, n_source_class_k)`` nonnegative mass whose
    row sums, summed over classes, reproduce the target weights, and whose
    column sums respect the class capacity ``(p_k + beta[k]) * conditional``.
    """

    plans: tuple
    beta: np.ndarray
    objective: float

    def full_matrix(self, class_indices: Sequence[np.ndarray],
                    n_source: int) -> np.ndarray:
        """Assemble one (n_target, n_source) matrix from the class blocks.

        ``class_indices[k]`` gives the source columns of class ``k + 1`` in
        the original source ordering.  Label propagation sums the blocks
        directly; this stays for callers that need the dense plan, such as
        the near-tie counter of ``perfbench/tracer.py``.
        """
        n_target = self.plans[0].shape[0] if self.plans else 0
        full = np.zeros((n_target, n_source))
        for plan, idx in zip(self.plans, class_indices):
            if plan.shape[1] != len(idx):
                raise ValueError("class block width does not match its indices")
            full[:, idx] = plan
        return full


@dataclass(frozen=True)
class LipschitzPotential:
    """Dual potential: one value per ground atom, nonnegative on supp(S)."""

    values: np.ndarray
    nonneg_on: np.ndarray
    ground_points: np.ndarray


def _solve_blocks(target: DiscreteMeasure,
                  sources: Sequence[DiscreteMeasure],
                  costs: Sequence[CostMatrix],
                  cap_scale,
                  budgets) -> list:
    """Solve, certify and verify a capacitated block-transport problem at
    each of several budgets, by exact column generation.

    Block ``k`` offers capacity ``(cap_scale[k] + beta_k) *
    sources[k].weights``, with ``beta_k >= 0`` and ``sum_k beta_k =
    budgets[e]`` chosen jointly with the plans.  Returns one ``(solution,
    plans, beta_realized)`` per budget, in the order of ``budgets``.

    All entries come from one :func:`imdot.lp.solve_path` walk from the
    largest budget down (ties keep entry order), which changes only the
    budget row and raises an LpError at the first entry infeasible with
    every arc.  The walk starts from the lift of :func:`_coarse_arcs` or,
    without one, from the arcs of :func:`_initial_arcs`.  Pricing stops
    below ``-pricing_tolerance(||c||_inf)``, HiGHS's own tolerance: the
    certificate's looser ``-dual_tolerance`` could leave out an arc that
    improves the value by more than that, depending on the simplex path.
    Each entry's certificate covers every arc: the model's arcs by
    :func:`imdot.lp.certify`, every other arc by the pricing pass that ended
    the entry, whose smallest reduced cost must reach ``-dual_tolerance``.
    """
    n_t = target.n_atoms
    cond_weights = [source.weights for source in sources]
    for k, (w, cost) in enumerate(zip(cond_weights, costs)):
        if cost.entries.shape != (n_t, len(w)):
            raise ValueError(
                f"cost block {k} is {cost.entries.shape}, expected {(n_t, len(w))}"
            )
    cap_scale = np.asarray(cap_scale, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    order = np.argsort(-budgets, kind="stable")
    walk = budgets[order]
    if not len(walk):
        return []
    walked = _walk_blocks(target, cond_weights, costs, cap_scale, walk,
                          _coarse_arcs(target, sources, cap_scale, walk))
    if len(walked) < len(walk):
        # The most capacity any split of the budget offers.
        masses = np.array([np.sum(w) for w in cond_weights])
        capacity = float(cap_scale @ masses + walk[len(walked)] * masses.max())
        raise LpError(f"transport LP ended infeasible; target mass "
                      f"{target.total_mass!r}, total capacity {capacity!r}")

    widths = [len(w) for w in cond_weights]
    results = [None] * len(walk)
    for e, (sol, beta, plan) in zip(order, walked):
        budget = float(budgets[e])
        if not abs(float(np.sum(beta)) - budget) <= FEASIBILITY_TOL:
            raise LpError(f"budget violated: {np.sum(beta)!r} != {budget!r}")
        beta = np.maximum(beta, 0.0)
        _verify_plan(target, _capacity(cap_scale + beta, cond_weights), plan)
        results[e] = (sol, np.split(plan, np.cumsum(widths)[:-1], axis=1), beta)
    return results


def _capacity(cap_scale, cond_weights) -> np.ndarray:
    """The capacity rows ``cap_scale[k] * weights_k``, block after block."""
    return np.concatenate([scale * w for scale, w in zip(cap_scale, cond_weights)])


def _walk_blocks(target, cond_weights, costs, cap_scale, budgets, lifted) -> list:
    """The column-generation walk of :func:`_solve_blocks` over ``budgets``,
    in their order, unchecked: one ``(solution, beta, plan)`` per budget up
    to the first that is infeasible with every arc, ``plan`` one ``(n_t,
    n_src)`` grid over the concatenated source.  Each budget after the first
    changes only the budget row.  The model starts with the ``beta`` columns
    and the ``lifted`` arcs ``(rows, cols)`` or, when ``lifted`` is
    ``None``, the arcs of :func:`_initial_arcs` at the capacities
    ``cap_scale``.  Its columns, numbered here alone, come from the
    :class:`_ArcGrid` of the costs, and each pricing pass writes ``C - u -
    v`` over every arc into one buffer."""
    n_t = target.n_atoms
    n_beta = len(cond_weights)
    betas, lower, upper = _beta_columns(target, cond_weights, cap_scale)
    grid = _ArcGrid(np.hstack([cost.entries for cost in costs]), betas)
    cost = grid.cost
    n_src = cost.shape[1]
    tol = pricing_tolerance(grid.c_norm)
    reduced = np.empty_like(cost)

    def price(row_dual):
        np.subtract(cost, row_dual[:n_t, None], out=reduced)
        np.subtract(reduced, row_dual[n_t:n_t + n_src], out=reduced)
        rows, cols, lowest = _priced_arcs(reduced, tol)
        return n_beta + rows * n_src + cols, lowest

    bounds = ((np.concatenate([lower, [budget]]), np.concatenate([upper, [budget]]))
              for budget in budgets)
    if lifted is None:
        lifted = _initial_arcs(cost, target.weights, upper[n_t:])
    rows, cols = lifted
    walked = solve_path(grid, bounds,
                        np.concatenate([np.arange(n_beta), n_beta + rows * n_src + cols]), price)
    return [(sol, sol.x[:n_beta], sol.x[n_beta:].reshape(cost.shape)) for sol in walked]


@dataclass(frozen=True)
class _ArcGrid:
    """The block-transport LP over every arc as the column source of a walk
    (see :func:`imdot.lp.solve_path`), its arcs made on demand from the
    ``(n_t, n_src)`` grid ``cost``: arc ``(i, j)``, column ``K + i * n_src +
    j``, costs ``cost[i, j]`` and is a 1 in target row ``i`` and in capacity
    row ``n_t + j``.  ``betas`` holds the ``K`` ``beta`` columns
    (:func:`_beta_columns`); each entry of the walk brings its row bounds."""

    cost: np.ndarray
    betas: tuple

    @property
    def n_vars(self) -> int:
        return len(self.betas) + self.cost.size

    @property
    def c_norm(self) -> float:
        # The beta columns cost 0.
        return float(np.abs(self.cost).max(initial=0.0))

    def columns(self, keys) -> tuple:
        """The sorted, distinct columns ``keys``, as
        :meth:`imdot.lp.LinearProgram.columns` gives them."""
        n_t, n_src = self.cost.shape
        split = np.searchsorted(keys, len(self.betas))
        betas = [self.betas[k] for k in keys[:split]]
        i, j = np.divmod(keys[split:] - len(self.betas), n_src)
        nnz = list(accumulate((len(beta_rows) for beta_rows, _ in betas), initial=0))
        starts = np.concatenate([nnz, np.arange(nnz[-1] + 2, nnz[-1] + 2 * len(i) + 1, 2)])
        arc_rows = np.empty((len(i), 2), dtype=np.int32)
        arc_rows[:, 0], arc_rows[:, 1] = i, n_t + j
        rows = [beta_rows for beta_rows, _ in betas] + [arc_rows.ravel()]
        values = [beta_values for _, beta_values in betas] + [np.ones(2 * len(i))]
        return (np.concatenate([np.zeros(split), self.cost[i, j]]), starts.astype(np.int32),
                np.concatenate(rows), np.concatenate(values),
                np.zeros(len(keys)), np.full(len(keys), np.inf))


def _coarse_arcs(target: DiscreteMeasure, sources, cap_scale, budgets):
    """The lift that starts the fine walk: fine arcs ``(rows, cols)`` between
    two cells that carry mass in the coarsened problem at the first or the
    last of ``budgets``, which come in walk order, from the largest down;
    ``None`` where there is no lift.

    The grid spans the target's bounding box with ``ceil(n_t ** (1 / d))``
    cells along its longest side, so that it holds about one target atom per
    cell; source points outside it fall into the nearest edge cell.  The
    target and each block are binned on it separately, so that the coarse
    problem keeps the blocks; a coarse atom sits at the plain mean of its
    atoms and carries the sum of their weights, and coarse costs are
    Euclidean, as :func:`imdot.measures.cost_matrix` gives.  The coarse walk
    is :func:`_walk_blocks` at the two end budgets alone (at the one budget
    of a one-entry walk), from the nearest arcs and the corner.

    The lift at the last budget holds every fine arc between cells that
    carry mass, so it holds the coarse optimum spread over the atoms in
    proportion to their weights: a feasible fine plan at the smallest
    budget, and so at every larger one, whose extra ``beta`` only raises
    capacities.

    There is no lift for a target below ``COARSE_MIN_ATOMS`` atoms or of
    zero extent, for a grid that merges no target atom (the coarse walk
    would have as many rows as the fine one, so it is not run), for a coarse
    walk that ends infeasible before its last entry, or when the lift would
    exceed ``COARSE_MAX_ARCS`` arcs per fine atom, target and source: a
    far-off target atom widens every cell, and a source far from the target
    crowds into its edge cells, so that whole blocks of the dense problem
    would start in the model.
    """
    n_t = target.n_atoms
    if n_t < COARSE_MIN_ATOMS:
        return None
    low = target.points.min(axis=0)
    side = float(np.max(target.points.max(axis=0) - low))
    if not side > 0:
        return None
    k = math.ceil(n_t ** (1 / target.dim))
    h = side / k

    def coarsen(measure):
        cells = np.clip(np.floor((measure.points - low) / h), 0, k - 1)
        cell = np.unique(cells, axis=0, return_inverse=True)[1].ravel()
        counts = np.bincount(cell)
        centres = np.column_stack([np.bincount(cell, weights=column)
                                   for column in measure.points.T])
        return (DiscreteMeasure(centres / counts[:, None],
                                np.bincount(cell, weights=measure.weights)),
                cell, counts)

    coarse_target, target_cell, target_counts = coarsen(target)
    if coarse_target.n_atoms == n_t:
        return None
    blocks, source_cell, source_counts = [], [], []
    offset = 0
    for source in sources:
        block, cell, counts = coarsen(source)
        blocks.append(block)
        source_cell.append(offset + cell)
        source_counts.append(counts)
        offset += block.n_atoms
    ends = np.unique([0, len(budgets) - 1])
    walked = _walk_blocks(coarse_target, [b.weights for b in blocks],
                          [cost_matrix(coarse_target.points, b.points) for b in blocks],
                          cap_scale, budgets[ends], None)
    if len(walked) < len(ends):
        return None
    carried = np.zeros((coarse_target.n_atoms, offset), dtype=bool)
    for _, _, plan in walked:
        carried |= plan > 0
    n_src = sum(source.n_atoms for source in sources)
    if target_counts @ carried @ np.concatenate(source_counts) > COARSE_MAX_ARCS * (n_t + n_src):
        return None
    return np.nonzero(carried[target_cell][:, np.concatenate(source_cell)])


def _beta_columns(target: DiscreteMeasure,
                  cond_weights: Sequence[np.ndarray],
                  cap_scale: np.ndarray) -> tuple:
    """``(betas, row_lower, row_upper)``: the ``K`` capacity columns of the
    block-transport problem, and the bounds of its rows but the budget row
    (see :class:`_ArcGrid`).

    ``betas[k]`` is column ``beta_k`` as ``(rows, values)``: ``-w_j`` in each
    capacity row of class ``k`` where ``w_j != 0``, and 1 in the budget row.
    Rows are the target marginals, equalities, and the class capacity rows
    ``cap_scale_k * w_j``, bounded above only; the budget row, an equality
    at the budget, comes last, and its callers append it."""
    n_t = target.n_atoms
    capacity = _capacity(cap_scale, cond_weights)
    budget_row = n_t + len(capacity)
    betas, start = [], n_t
    for w in cond_weights:
        held = w.nonzero()[0]
        rows = np.empty(len(held) + 1, dtype=np.int32)
        rows[:-1], rows[-1] = start + held, budget_row
        betas.append((rows, np.concatenate([-w[held], [1.0]])))
        start += len(w)
    lower = np.concatenate([target.weights, np.full(len(capacity), -np.inf)])
    upper = np.concatenate([target.weights, capacity])
    return tuple(betas), lower, upper


def _north_west_corner(demand: np.ndarray, capacity: np.ndarray) -> tuple:
    """Arcs ``(rows, cols)`` of the north-west-corner plan of ``demand``
    into ``capacity``: a feasible support whenever the capacity suffices."""
    rows, cols = [], []
    # Python floats: the same double arithmetic as NumPy's scalars, without
    # their per-operation cost.
    demand, capacity = demand.tolist(), capacity.tolist()
    i = j = 0
    left_i = demand[0] if len(demand) else 0.0
    left_j = capacity[0] if len(capacity) else 0.0
    while i < len(demand) and j < len(capacity):
        if left_i > 0 and left_j > 0:
            rows.append(i)
            cols.append(j)
        if left_i <= left_j:
            left_j -= left_i
            i += 1
            left_i = demand[i] if i < len(demand) else 0.0
        else:
            left_i -= left_j
            j += 1
            left_j = capacity[j] if j < len(capacity) else 0.0
    return np.array(rows, dtype=int), np.array(cols, dtype=int)


def _initial_arcs(cost: np.ndarray, demand: np.ndarray, capacity: np.ndarray) -> tuple:
    """The start of a walk without a lift (see :func:`_coarse_arcs`): the
    ``NEAREST_ARCS`` cheapest arcs of each target over every source column
    of the concatenated ``cost``, and the north-west-corner support of
    ``demand`` into ``capacity``."""
    nw_rows, nw_cols = _north_west_corner(demand, capacity)
    m = min(NEAREST_ARCS, cost.shape[1])
    if not m:
        return nw_rows, nw_cols
    nearest = np.argpartition(cost, m - 1, axis=1)[:, :m]
    return (np.concatenate([nw_rows, np.repeat(np.arange(len(cost)), m)]),
            np.concatenate([nw_cols, nearest.ravel()]))


def _priced_arcs(reduced: np.ndarray, tol: float) -> tuple:
    """``(rows, cols, lowest)``: the arcs to add, the ``ARCS_PER_ROW`` most
    negative reduced costs of each row where below ``-tol``, and the
    smallest reduced cost (NaN if there is a NaN)."""
    row_lowest = reduced.min(axis=1, initial=np.inf)
    rows = np.flatnonzero(row_lowest < -tol)
    priced = reduced[rows]
    if priced.shape[1] > ARCS_PER_ROW:
        cols = np.argpartition(priced, ARCS_PER_ROW - 1, axis=1)[:, :ARCS_PER_ROW]
    else:
        cols = np.broadcast_to(np.arange(priced.shape[1]), priced.shape)
    keep = np.take_along_axis(priced, cols, axis=1) < -tol
    return (np.broadcast_to(rows[:, None], keep.shape)[keep], cols[keep],
            float(row_lowest.min(initial=np.inf)))


def _verify_plan(target, capacity, plan) -> None:
    """An LpError unless the solver's ``plan`` is a plan (:func:`imdot.measures._plan`)
    within ``capacity`` that reproduces the target; NaN fails each check."""
    try:
        _plan("plan", plan)
    except ValueError as error:
        raise LpError(str(error)) from None
    if not np.max(plan.sum(axis=0) - capacity, initial=0.0) <= FEASIBILITY_TOL:
        raise LpError("plan exceeds a class capacity")
    if not np.max(np.abs(plan.sum(axis=1) - target.weights), initial=0.0) <= FEASIBILITY_TOL:
        raise LpError("plan does not reproduce the target marginal")


def wasserstein1(target: DiscreteMeasure, source: DiscreteMeasure,
                 cost: CostMatrix):
    """Classic optimal transport value and plan between equal-mass measures.

    The one-block problem at capacity scale 1 and budget 0: the target rows
    are equalities, and with matching total mass they use every source
    column up to its weight.
    """
    if abs(target.total_mass - source.total_mass) > MASS_TOL:
        raise ValueError(
            f"mass mismatch: {target.total_mass!r} vs {source.total_mass!r}"
        )
    (sol, plans, _), = _solve_blocks(target, [source], [cost], np.ones(1), [0.0])
    return sol.value, plans[0]


def partial_ot_global(target: DiscreteMeasure, source: DiscreteMeasure,
                      cost: CostMatrix, beta: float):
    """Partial transport with uniformly relaxed source capacity ``(1+beta)s``.

    Equals the IMD of ``(target, (1+beta) source)`` over nonnegative
    1-Lipschitz functions; nonincreasing in ``beta``.  The one-entry call of
    :func:`partial_ot_global_path`.
    """
    _nonnegative("beta", beta)
    return partial_ot_global_path(target, source, cost, [beta])[0]


def partial_ot_global_path(target: DiscreteMeasure, source: DiscreteMeasure,
                           cost: CostMatrix, beta_grid) -> list:
    """:func:`partial_ot_global` at every relaxation of ``beta_grid``.

    One ``(value, plan)`` per relaxation, in grid order: the budget split
    of :func:`partial_ot_beta_split_path` with one class, the source at
    proportion 1.
    """
    return [(plan_set.objective, plan_set.plans[0]) for plan_set in
            partial_ot_beta_split_path(target, [source], [1.0], beta_grid, [cost])]


def partial_ot_per_class(target: DiscreteMeasure,
                         conditionals: Sequence[DiscreteMeasure],
                         proportions,
                         beta_vec,
                         costs: Sequence[CostMatrix]) -> TransportPlanSet:
    """Per-class partial transport at a fixed relaxation vector.

    Class ``k`` offers capacity ``(p_k + beta_vec[k])`` times its conditional
    weights: the block problem at capacity scale ``p + beta_vec`` and budget
    0.  Empty classes are permitted; relaxation assigned to them is simply
    unusable capacity.
    """
    p = _nonnegative("proportions", proportions, 1)
    beta_vec = _nonnegative("beta_vec", beta_vec, 1)
    if not (len(conditionals) == len(p) == len(beta_vec) == len(costs)):
        raise ValueError("conditionals, proportions, beta_vec and costs must align")
    _probability("target", target.weights)
    (sol, plans, _), = _solve_blocks(target, conditionals, costs, p + beta_vec, [0.0])
    return TransportPlanSet(tuple(plans), beta_vec.copy(), sol.value)


def partial_ot_beta_split(target: DiscreteMeasure,
                          conditionals: Sequence[DiscreteMeasure],
                          proportions,
                          beta_total: float,
                          costs: Sequence[CostMatrix]) -> TransportPlanSet:
    """Jointly optimal plans and split of a total relaxation budget.

    The capacities enter linearly in ``beta``, so plans and split come out
    of a single LP with ``sum_k beta_k = beta_total``.  At degenerate optima
    the returned split is solver-determined (only the objective is unique).
    The one-budget call of :func:`partial_ot_beta_split_path`.
    """
    _nonnegative("beta_total", beta_total)
    return partial_ot_beta_split_path(target, conditionals, proportions,
                                      [beta_total], costs)[0]


def partial_ot_beta_split_path(target: DiscreteMeasure,
                               conditionals: Sequence[DiscreteMeasure],
                               proportions,
                               beta_grid,
                               costs: Sequence[CostMatrix]) -> list:
    """:func:`partial_ot_beta_split` at every budget of ``beta_grid``.

    One :class:`TransportPlanSet` per budget, in grid order: the block
    problem at capacity scale ``p``, walked over the budgets on one warm
    model, from the largest down, each value certified on its own.
    """
    grid = _nonnegative("beta_grid", beta_grid, 1)
    p = _nonnegative("proportions", proportions, 1)
    if not (len(conditionals) == len(p) == len(costs)):
        raise ValueError("conditionals, proportions and costs must align")
    _probability("target", target.weights)
    results = _solve_blocks(target, conditionals, costs, p, grid)
    return [TransportPlanSet(tuple(plans), beta, sol.value)
            for sol, plans, beta in results]


def _difference_rows(n: int) -> tuple:
    """``(i_idx, j_idx, A)``: one row ``f_i - f_j`` of the CSC matrix ``A``
    per ordered pair ``i != j`` of ``n`` values, in row-major pair order.

    Row ``r`` holds +1 in column ``i_idx[r]`` and -1 in column ``j_idx[r]``;
    column ``c`` stores its ``2 (n - 1)`` entries in row order, as
    ``(eye[i_idx] - eye[j_idx]).tocsc()`` stores them."""
    i_idx, j_idx = np.where(~np.eye(n, dtype=bool))
    rows = np.tile(np.arange(len(i_idx)), 2)
    cols = np.concatenate([i_idx, j_idx])
    order = np.lexsort((rows, cols))
    A = sp.csc_matrix((np.repeat([1.0, -1.0], len(i_idx))[order], rows[order],
                       np.arange(n + 1) * 2 * (n - 1)),
                      shape=(len(i_idx), n))
    return i_idx, j_idx, A


def lipschitz_imd_dual(target: DiscreteMeasure, source: DiscreteMeasure,
                       zero_on_support: bool = False):
    """IMD of (target, source) over nonnegative 1-Lipschitz potentials.

    Maximizes ``sum_i t_i f_i - sum_j s_j f_j`` over one value per ground
    atom (the deduplicated union of both supports) under ``f(u) - f(v) <=
    d(u, v)`` for every atom pair, with the nonnegativity constraint imposed
    only on the source support.  With ``zero_on_support`` the potential is
    pinned to 0 there instead, which evaluates the zero-localized IMD
    ``E_target[d(x, supp source)]``.

    The source is passed already relaxed (its weights are whatever capacity
    the comparison is against), so this is the dual of the per-class
    transport problem on the mixed measure.
    """
    if source.total_mass <= 0:
        raise ValueError("the source must carry positive mass")
    ground = ground_union(target.points, source.points)
    wt = weights_on_ground(target, ground)
    ws = weights_on_ground(source, ground)
    n = len(ground)
    dist = cdist(ground, ground)

    # one row f_i - f_j <= d_ij per ordered pair i != j
    i_idx, j_idx, A = _difference_rows(n)
    support = ws > 0
    lower = np.where(support, 0.0, -np.inf)
    upper = np.where(support & zero_on_support, 0.0, np.inf)
    sol = solve(LinearProgram(ws - wt, A, np.full(len(i_idx), -np.inf),
                              dist[i_idx, j_idx], lower=lower, upper=upper))
    f = sol.x
    # Written as "not within", so that a NaN fails each check.
    slack = f[i_idx] - f[j_idx] - dist[i_idx, j_idx]
    if slack.size and not slack.max() <= FEASIBILITY_TOL:
        raise LpError(f"potential violates the Lipschitz constraint by {slack.max()!r}")
    # HiGHS bounds its primal's bound violations by HIGHS_TOL.
    if not np.all(f[support] >= -HIGHS_TOL):
        raise LpError("potential is negative on the source support")
    potential = LipschitzPotential(f, np.flatnonzero(support), ground)
    return -sol.value, potential


def support_distance_imd(target: DiscreteMeasure, source: DiscreteMeasure) -> float:
    """Expected distance from the target to the source support.

    ``sum_i t_i min_j d(x_i, supp source)``; the distance-to-support function
    attains the zero-localized Lipschitz IMD.
    """
    support = source.support_points()
    if len(support) == 0:
        raise ValueError("the source support is empty")
    if target.n_atoms == 0:
        return 0.0
    dist = cdist(target.points, support)
    return float(target.weights @ dist.min(axis=1))


def plan_set_to_dict(plan_set: TransportPlanSet) -> dict:
    """JSON-ready export: per-class sparse triplets of the entries above
    ``ROUNDING_TOL``, plus beta and objective."""
    blocks = []
    for k, plan in enumerate(plan_set.plans):
        ti, sj = np.nonzero(plan > ROUNDING_TOL)
        blocks.append({
            "class": k + 1,
            "triplets": [
                [int(i), int(j), float(plan[i, j])] for i, j in zip(ti, sj)
            ],
        })
    return {
        "beta": [float(b) for b in plan_set.beta],
        "objective": float(plan_set.objective),
        "plans": blocks,
    }
