"""Enumerable function families, localized by expectation caps.

A family member is represented by its value vector over a fixed finite
ground set (the union of all measure atoms in play); a measure enters the
computations only through its weight vector on that ground set.  In the
discrete setting this representation is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .measures import ROUNDING_TOL, DiscreteMeasure, _freeze, _labels, _nonnegative, _numbers, mix

__all__ = [
    "FunctionFamily",
    "Localization",
    "FamilyTooLargeError",
    "indicator_family",
    "grid_family",
    "hdh_family",
    "no_localization",
    "global_localization",
    "per_class_localization",
    "enumerate_members",
    "ground_union",
    "weights_on_ground",
    "localization_inclusion_check",
]

KIND_GRID = "bounded01_grid"
KIND_HDH = "hdh"

#: Hard cap on brute-force enumeration (2^22 members).
MAX_MEMBERS = 1 << 22
MAX_HYPOTHESES = 60

_BATCH = 1 << 14


class FamilyTooLargeError(ValueError):
    """Enumeration would exceed the brute-force caps."""


@dataclass(frozen=True)
class FunctionFamily:
    """A family of nonnegative functions on a finite ground set.

    Kinds
    -----
    - ``bounded01_grid``: all functions with values on the quantized grid
      ``{0, step, ..., 1}``; the enumerable stand-in for the convex family
      of [0, 1]-valued functions.  At ``grid_step=1`` it is the family of
      subset indicators (:func:`indicator_family`), whose convex hull is
      that same convex family.
    - ``hdh``: disagreement indicators ``[h1 != h2]`` over all pairs from an
      explicit finite hypothesis list (labels over the ground points).

    Every kind contains the null function.  Nonnegative 1-Lipschitz
    functions are not enumerable; the transport solvers in :mod:`imdot.ot`
    handle them.
    """

    kind: str
    ground_points: np.ndarray
    hypotheses: np.ndarray | None = None
    grid_step: float = 0.25

    def __post_init__(self):
        if self.kind not in (KIND_GRID, KIND_HDH):
            raise ValueError(f"unknown family kind {self.kind!r}")
        pts = np.asarray(self.ground_points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("ground_points must be a nonempty (n, d) array")
        object.__setattr__(self, "ground_points", _freeze(pts))
        if self.kind == KIND_HDH:
            if self.hypotheses is None:
                raise ValueError("hdh families need an explicit hypothesis list")
            hyp = _labels("hypotheses", self.hypotheses, ndim=2)
            if hyp.shape[1] != len(pts):
                raise ValueError("hypotheses must be (m, n_ground) label rows")
            object.__setattr__(self, "hypotheses", _freeze(hyp))
        if self.kind == KIND_GRID:
            step = self.grid_step
            _numbers("grid_step", step, (0,))
            # Written as "not within", so that a NaN fails it; (0, 1] keeps
            # out inf and every step whose reciprocal cannot be taken.
            if not (0 < step <= 1 and abs(1 / step - round(1 / step)) <= 1e-9):
                raise ValueError(f"grid_step must be in (0, 1] and divide 1 exactly, "
                                 f"got {step!r}")

    @property
    def n_ground(self) -> int:
        return len(self.ground_points)


def indicator_family(ground_points) -> FunctionFamily:
    """All subset indicators: the grid family at step 1."""
    return grid_family(ground_points, step=1.0)


def grid_family(ground_points, step: float = 0.25) -> FunctionFamily:
    return FunctionFamily(KIND_GRID, np.asarray(ground_points, dtype=float),
                          grid_step=step)


def hdh_family(ground_points, hypotheses) -> FunctionFamily:
    return FunctionFamily(KIND_HDH, np.asarray(ground_points, dtype=float),
                          hypotheses=hypotheses)


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Localization:
    """Expectation caps restricting a family.

    A member ``f`` is admitted when ``E_measure[f] <= eps`` (up to
    ``ROUNDING_TOL``) for every ``(measure, eps)`` pair in ``caps``.  Global
    localization is one cap under a reference measure; per-class
    localization is one cap per class conditional.  The null function passes
    every cap.
    """

    caps: tuple = ()

    def __post_init__(self):
        for index, (measure, eps) in enumerate(self.caps):
            if not isinstance(measure, DiscreteMeasure):
                raise ValueError(f"localization cap {index} has no DiscreteMeasure: "
                                 f"{type(measure).__name__}")
            _nonnegative(f"localization cap {index} eps", eps)

    def admission(self, ground_points: np.ndarray):
        """``admit(batch) -> mask`` over member batches on ``ground_points``.

        The cap weights are computed once, as one (n_ground, n_caps) matrix.
        """
        weights = _weight_matrix([m for m, _ in self.caps], ground_points)
        bounds = np.array([eps for _, eps in self.caps]) + ROUNDING_TOL
        return lambda batch: np.all(batch @ weights <= bounds, axis=1)


def no_localization() -> Localization:
    return Localization()


def _per_class_eps(name: str, eps, conditionals) -> tuple:
    """``(eps, conditionals)``, or a ValueError naming ``name`` unless ``eps``
    is one nonnegative cap per conditional; an infinite cap is vacuous."""
    eps, conditionals = _nonnegative(name, eps, 1, finite=False), tuple(conditionals)
    if len(conditionals) != len(eps):
        raise ValueError(f"{name} must have one entry per conditional, got {len(eps)} "
                         f"for {len(conditionals)}")
    return eps, conditionals


def global_localization(eps: float, reference: DiscreteMeasure) -> Localization:
    """One cap ``E_reference[f] <= eps``; :class:`Localization` checks both."""
    return Localization(((reference, eps),))


def per_class_localization(eps, conditionals: Sequence[DiscreteMeasure]) -> Localization:
    """One cap per class; an infinite component makes its cap vacuous."""
    eps, conditionals = _per_class_eps("eps", eps, conditionals)
    return Localization(tuple((cond, float(e)) for cond, e in zip(conditionals, eps)
                              if np.isfinite(e)))


# ---------------------------------------------------------------------------
# Ground-set plumbing
# ---------------------------------------------------------------------------

def ground_union(*point_sets) -> np.ndarray:
    """Deduplicated union of atom coordinate sets, in order: a row is dropped
    when it lies within ``ROUNDING_TOL`` (Chebyshev) of an earlier kept row."""
    arrays = [np.atleast_2d(np.asarray(p, dtype=float)) for p in point_sets
              if len(np.atleast_2d(p)) > 0]
    if not arrays:
        raise ValueError("cannot build a ground set from empty point sets")
    stacked = np.vstack(arrays)
    pairs = cKDTree(stacked).query_pairs(ROUNDING_TOL, p=np.inf,
                                         output_type="ndarray")
    dropped = np.zeros(len(stacked), dtype=bool)
    # Pairs are (i, j) with i < j; taken in order of j, whether i is kept
    # is already final.
    for i, j in pairs[np.argsort(pairs[:, 1], kind="stable")]:
        if not dropped[i]:
            dropped[j] = True
    return stacked[~dropped]


def weights_on_ground(measure: DiscreteMeasure,
                      ground_points: np.ndarray) -> np.ndarray:
    """Weight vector of ``measure`` over ``ground_points``.

    Every atom must match a ground point coordinate-wise within
    ``ROUNDING_TOL``; each goes to the first nearest one (Chebyshev), and
    duplicated atoms accumulate onto it.  A measure on the ground's own
    rows is matched by index, without distances: atom i goes to the first
    ground row equal to it, which is the nearest-point match at distance 0.
    """
    ground_points = np.asarray(ground_points, dtype=float)
    if measure.n_atoms == 0:
        return np.zeros(len(ground_points))
    if measure.points.shape[1] != ground_points.shape[1]:
        raise ValueError("measure and ground set have different dimensions")
    if np.array_equal(measure.points, ground_points):
        # Float tuples are equal exactly when their Chebyshev distance is 0
        # (-0.0 == 0.0 too), so each row keys the first row equal to it.
        first = {}
        idx = [first.setdefault(tuple(row), i)
               for i, row in enumerate(ground_points.tolist())]
    else:
        dist = cdist(measure.points, ground_points, metric="chebyshev")
        idx = np.argmin(dist, axis=1)
        if np.any(dist[np.arange(len(idx)), idx] > ROUNDING_TOL):
            bad = int(np.argmax(dist[np.arange(len(idx)), idx]))
            raise ValueError(
                f"atom {measure.points[bad].tolist()} is not on the ground set"
            )
    return np.bincount(idx, weights=measure.weights, minlength=len(ground_points))


def _weight_matrix(measures, ground_points: np.ndarray) -> np.ndarray:
    """The weight vectors of ``measures`` on ``ground_points``, as columns."""
    weights = np.zeros((len(ground_points), len(measures)))
    for j, measure in enumerate(measures):
        weights[:, j] = weights_on_ground(measure, ground_points)
    return weights


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def member_batches(family: FunctionFamily) -> Iterator[np.ndarray]:
    """Member value vectors in deterministic order, as (batch, n) arrays.

    Grid members are ordered by mixed-radix counting (digit j is the level
    at ground point j, so indicators come in subset-mask order); hdh
    members by hypothesis pair ``(i, j)``, ``i <= j``, in
    ``np.triu_indices`` order.  The first member of every kind is the null
    function.
    """
    n = family.n_ground
    if family.kind == KIND_GRID:
        levels = int(round(1.0 / family.grid_step)) + 1
        total = levels ** n
        if total > MAX_MEMBERS:
            raise FamilyTooLargeError(
                f"{levels}^{n} grid members exceed the {MAX_MEMBERS} enumeration "
                "cap; use the LP-based families instead"
            )
        radix = levels ** np.arange(n, dtype=np.int64)
        for start in range(0, total, _BATCH):
            idx = np.arange(start, min(start + _BATCH, total), dtype=np.int64)
            yield (idx[:, None] // radix % levels) * family.grid_step
    else:
        hyp = family.hypotheses
        if len(hyp) > MAX_HYPOTHESES:
            raise FamilyTooLargeError(
                f"{len(hyp)} hypotheses exceed the {MAX_HYPOTHESES} cap"
            )
        rows, cols = np.triu_indices(len(hyp))
        yield (hyp[rows] != hyp[cols]).astype(float)


def enumerate_members(family: FunctionFamily,
                      loc: Localization | None = None) -> Iterator[np.ndarray]:
    """Yield exactly the member value vectors admitted by ``loc``.

    The null function always passes any localization (its expectations are
    all zero).
    """
    admit = (loc or no_localization()).admission(family.ground_points)
    for batch in member_batches(family):
        yield from batch[admit(batch)]


# ---------------------------------------------------------------------------
# Localization inclusion checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InclusionReport:
    per_class_in_global: bool
    global_in_per_class: bool
    per_class_size: int
    global_size: int
    counterexample: np.ndarray | None

    @property
    def ok(self) -> bool:
        return self.per_class_in_global and self.global_in_per_class


def localization_inclusion_check(family: FunctionFamily,
                                 conditionals: Sequence[DiscreteMeasure],
                                 proportions,
                                 eps_vec) -> InclusionReport:
    """Check both localization inclusions on an enumerable family, at the
    global cap ``eps = proportions @ eps_vec``, summed over the classes with
    mass.

    Direction 1: the family localized per class at ``eps_vec`` is contained
    in the family localized globally at ``eps``.
    Direction 2: the family localized globally at ``eps`` is contained in
    the per-class localization at ``eta_k = eps / proportions[k]`` (infinite
    where a class is empty).
    """
    p = _nonnegative("proportions", proportions, 1)
    eps_vec, conditionals = _per_class_eps("eps_vec", eps_vec, conditionals)
    ground = family.ground_points
    empty = DiscreteMeasure(np.empty((0, ground.shape[1])), np.empty(0))
    reference = mix(empty, conditionals, p)
    # A class without mass adds nothing to the cap, even at an infinite eps.
    held = p > 0
    eps = float(p[held] @ eps_vec[held])
    glob = global_localization(eps, reference).admission(ground)
    eta = np.where(held, eps / np.where(held, p, 1.0), np.inf)
    per_class, per_class_eta = (per_class_localization(e, conditionals).admission(ground)
                                for e in (eps_vec, eta))

    ok = [True, True]
    size_pc = size_glob = 0
    counterexample = None
    for batch in member_batches(family):
        in_pc, in_glob = per_class(batch), glob(batch)
        size_pc += int(in_pc.sum())
        size_glob += int(in_glob.sum())
        for direction, bad in enumerate((in_pc & ~in_glob,
                                         in_glob & ~per_class_eta(batch))):
            if bad.any():
                ok[direction] = False
                if counterexample is None:
                    counterexample = batch[int(np.argmax(bad))].copy()
    return InclusionReport(*ok, size_pc, size_glob, counterexample)
