"""Discrete measures, labeled datasets and ground costs.

Everything downstream (enumeration families, transport solvers, the toy
experiments) works on the three types defined here.  All types are immutable
after construction and safe to share between worker processes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "DiscreteMeasure",
    "LabeledDataset",
    "CostMatrix",
    "empirical_measure",
    "class_conditionals",
    "cost_matrix",
    "mix",
    "save_dataset",
    "load_dataset",
]

#: Rounding slack of sums and comparisons of O(1) floats built from exact
#: inputs: a probability vector's total mass against 1, atom coordinates
#: matched as one support point (Chebyshev), a mixture expectation against
#: its cap, identities between two evaluations of one value.  The one data
#: layer tolerance; the solver layer's are in :mod:`imdot.lp`.
ROUNDING_TOL = 1e-12


# ---------------------------------------------------------------------------
# Argument kinds, one checker each, raising a ValueError that names the argument.
# ---------------------------------------------------------------------------

def _numbers(name: str, values, ndims: tuple, shape: str | None = None) -> np.ndarray:
    """``values`` as a float array, or a ValueError "``name`` must be
    ``shape``" (by default a number, a vector or a matrix of numbers) unless
    they are numbers (a bool is none) in an array of one of the dimensions
    ``ndims``."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or array.ndim not in ndims:
        shape = shape or ("a number", "a vector of numbers", "a matrix of numbers")[ndims[0]]
        raise ValueError(f"{name} must be {shape}, got {values!r}")
    return array.astype(float, copy=False)


def _count(name: str, value, minimum: int | None = 1) -> int:
    """``value`` as an int, or a ValueError naming ``name`` unless it is an
    integer, not a bool, of at least ``minimum`` (0, 1, or ``None`` for any):
    the rule for class counts, sample sizes, draws, jobs and seeds."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or minimum is not None and value < minimum):
        rule = {None: "an", 0: "a nonnegative", 1: "a positive"}[minimum]
        raise ValueError(f"{name} must be {rule} integer, got {value!r}")
    return int(value)


def _real(name: str, values, ndim: int = 0) -> np.ndarray:
    """``values`` as a float array of ``ndim`` dimensions, or a ValueError
    naming ``name`` unless every entry is finite: the rule for coordinates,
    margins and the toy parameters, whose ranges their owners check."""
    values = _numbers(name, values, (ndim,))
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {values.tolist()!r}")
    return values


def _nonnegative(name: str, values, ndim: int = 0, finite: bool = True) -> np.ndarray:
    """``values`` as a float array of ``ndim`` dimensions, or a ValueError
    naming ``name`` unless every entry is finite and nonnegative: the rule
    for every relaxation, budget, cap, proportion and weight.  ``finite=False``
    also admits ``inf``, the limit of a Renyi order or of a per-class cap."""
    values = _numbers(name, values, (ndim,))
    # Two reductions and no temporary: a NaN makes the minimum NaN.
    if not (values.min(initial=0.0) >= 0 and (values.max(initial=0.0) < np.inf or not finite)):
        rule = "finite and nonnegative" if finite else "nonnegative"
        raise ValueError(f"{name} must be {rule}, got {values.tolist()!r}")
    return values


def _probability(name: str, values) -> np.ndarray:
    """``values`` as a float array, or a ValueError naming ``name`` unless it
    is a nonempty vector, or a batch of such rows (which may have none), of
    finite, nonnegative entries summing to 1 within ``ROUNDING_TOL``.  A
    batch is checked in one pass, and the message names its first bad row."""
    shape = "a nonempty 1-d array, or a batch of nonempty rows"
    v = _numbers(name, values, (1, 2), shape)
    if v.shape[-1] == 0:
        raise ValueError(f"{name} must be {shape}, got {values!r}")
    # Written as "not within", so that a NaN or an infinite entry fails too:
    # it makes the minimum NaN or the sum NaN or infinite.
    with np.errstate(invalid="ignore"):  # inf - inf in a sum
        within = (v.min(axis=-1) >= 0) & (np.abs(v.sum(axis=-1) - 1.0) <= ROUNDING_TOL)
    if not np.all(within):
        bad = int(np.argmin(within))
        got = f"{v.tolist()!r}" if v.ndim == 1 else f"row {bad}: {v[bad].tolist()!r}"
        raise ValueError(f"{name} must be finite and lie on the probability simplex, "
                         f"got {got}")
    return v


def _plan(name: str, values) -> np.ndarray:
    """``values`` as a float matrix, or a ValueError naming ``name`` and its
    first bad row unless every entry is finite and none lies below
    ``-ROUNDING_TOL``, the rounding that a solver's plan carries."""
    v = _numbers(name, values, (2,))
    if not (v.min(initial=0.0) >= -ROUNDING_TOL and v.max(initial=0.0) < np.inf):
        row = int(np.argmin(np.all(np.isfinite(v) & (v >= -ROUNDING_TOL), axis=1)))
        raise ValueError(f"{name} must be finite with no entry below -{ROUNDING_TOL}, "
                         f"got row {row}: {v[row].tolist()!r}")
    return v


def _labels(name: str, values, n_classes: int | None = None, ndim: int = 1) -> np.ndarray:
    """``values`` as an int array of ``ndim`` dimensions, or a ValueError
    naming ``name`` unless every entry is a whole number (``1.0`` is one, a
    bool is none) in ``1..n_classes`` when that is given: the rule for class
    labels, and with no range for hypothesis labels."""
    v = _numbers(name, values, (ndim,))
    if not np.all(np.isfinite(v) & (np.round(v) == v)):
        rule = "whole numbers" if ndim else "a whole number"
        raise ValueError(f"{name} must be {rule}, got {v.tolist()!r}")
    labels = v.astype(int)
    if n_classes is not None and labels.size and not (
            1 <= labels.min() and labels.max() <= n_classes):
        got = f"range [{labels.min()}, {labels.max()}]" if ndim else labels
        raise ValueError(f"{name} must lie in 1..{n_classes}, got {got}")
    return labels


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiscreteMeasure:
    """A nonnegative measure given by finitely many weighted atoms.

    Parameters
    ----------
    points : (n, d) array
        Atom coordinates.  Duplicate coordinates are allowed and are never
        merged; consumers must tolerate duplicated atoms.
    weights : (n,) array
        Nonnegative atom masses.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points)
        points = _real("points", points.reshape(-1, 1) if points.ndim == 1 else points, 2)
        weights = _nonnegative("weights", self.weights, 1)
        if len(weights) != len(points):
            raise ValueError(f"got {len(weights)} weights for {len(points)} points")
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def support_points(self) -> np.ndarray:
        """Atoms carrying strictly positive mass."""
        return self.points[self.weights > 0]

    def scaled(self, factor: float) -> "DiscreteMeasure":
        """The measure with every weight multiplied by ``factor`` >= 0."""
        factor = float(_nonnegative("factor", factor))
        return DiscreteMeasure(self.points, factor * self.weights)


@dataclass(frozen=True)
class LabeledDataset:
    """Points with class labels in ``{1, ..., n_classes}``."""

    points: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        points = np.asarray(self.points)
        points = _real("points", points.reshape(-1, 1) if points.ndim == 1 else points, 2)
        labels = _labels("labels", self.labels, _count("n_classes", self.n_classes))
        if len(labels) != len(points):
            raise ValueError(f"got {len(labels)} labels for {len(points)} points")
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "labels", _freeze(labels))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes + 1)[1:]

    def class_proportions(self) -> np.ndarray:
        """Empirical class proportions n_k / n (sums to 1 up to 1e-12)."""
        if len(self) == 0:
            raise ValueError("empty dataset has no class proportions")
        return self.class_counts() / len(self)


@dataclass(frozen=True)
class CostMatrix:
    """Dense matrix of nonnegative ground distances between two point sets."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _nonnegative("cost entries", self.entries, 2)
        object.__setattr__(self, "entries", _freeze(entries))


def empirical_measure(dataset: LabeledDataset) -> DiscreteMeasure:
    """Uniform measure over the sample: every point gets weight 1/n."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot build the empirical measure of an empty dataset")
    return DiscreteMeasure(dataset.points, np.full(n, 1.0 / n))


def class_conditionals(dataset: LabeledDataset):
    """Per-class uniform conditionals and the class-proportion vector: the
    one owner of the class layout.  Block ``k`` of a per-class transport
    problem is ``conditionals[k-1]``, so its costs are
    ``cost_matrix(target_points, conditionals[k-1].points)``.

    Returns
    -------
    conditionals : list of DiscreteMeasure
        ``conditionals[k-1]`` is uniform over the class-``k`` points in
        dataset order (mass 1), or an empty mass-0 measure when the class
        has no members.
    proportions : (n_classes,) array
        ``n_k / n``; components of empty classes are 0 and the vector sums
        to 1.
    """
    if len(dataset) == 0:
        raise ValueError("cannot decompose an empty dataset")
    conditionals = []
    for k in range(1, dataset.n_classes + 1):
        members = dataset.points[dataset.labels == k]
        n_k = len(members)
        conditionals.append(DiscreteMeasure(members, np.full(n_k, 1.0 / max(n_k, 1))))
    return conditionals, dataset.class_proportions()


def cost_matrix(a, b) -> CostMatrix:
    """Pairwise Euclidean ground distances ``d(a_i, b_j)``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    if a.shape[0] == 0 or b.shape[0] == 0:
        return CostMatrix(np.zeros((a.shape[0], b.shape[0])))
    return CostMatrix(cdist(a, b))


def mix(base: DiscreteMeasure,
        components: Sequence[DiscreteMeasure],
        coeffs) -> DiscreteMeasure:
    """``base + sum_k coeffs[k] * components[k]`` as one measure.

    Atoms are concatenated; coordinates appearing both in the base and in a
    component stay duplicated.  Components with a zero coefficient are
    dropped, so a zero coefficient vector returns a measure identical to the
    base.
    """
    coeffs = _nonnegative("coeffs", coeffs, 1)
    if len(coeffs) != len(components):
        raise ValueError(f"coeffs must have one entry per component, got {len(coeffs)} "
                         f"for {len(components)}")
    points = [base.points]
    weights = [base.weights]
    for coeff, comp in zip(coeffs, components):
        if comp.dim != base.dim and comp.n_atoms > 0:
            raise ValueError("component dimension differs from base")
        if coeff == 0 or comp.n_atoms == 0:
            continue
        points.append(comp.points)
        weights.append(coeff * comp.weights)
    return DiscreteMeasure(np.vstack(points), np.concatenate(weights))


# ---------------------------------------------------------------------------
# File format: CSV datasets (header x1,...,xD,label).
# ---------------------------------------------------------------------------

def save_dataset(dataset: LabeledDataset, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(dataset.dim)] + ["label"])
        for row, label in zip(dataset.points, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_dataset(path, n_classes: int | None = None) -> LabeledDataset:
    """The dataset :func:`save_dataset` wrote to ``path``, its classes
    ``1..n_classes`` (by default its largest label).  A malformed file, one
    without data rows, or a label outside the classes is a ValueError that
    names the file."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 2 or header[-1] != "label":
            raise ValueError(f"{path}: expected a header of coordinate columns and a "
                             f"trailing 'label' column")
        dim = len(header) - 1
        points, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} fields, "
                                 f"the header has {len(header)}")
            try:
                points.append([float(v) for v in row[:dim]])
                labels.append(int(row[dim]))
            except ValueError:
                raise ValueError(f"{path}, line {reader.line_num}: non-numeric field "
                                 f"in {row!r}") from None
            if not all(map(math.isfinite, points[-1])):
                raise ValueError(f"{path}, line {reader.line_num}: non-finite "
                                 f"coordinate in {row!r}")
    if not labels:
        raise ValueError(f"{path}: no data rows")
    labels = np.asarray(labels, dtype=int)
    if n_classes is None:
        n_classes = max(int(labels.max()), 1)
    try:
        return LabeledDataset(np.asarray(points, dtype=float), labels, n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
