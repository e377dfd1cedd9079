"""Synthetic benchmark data: imbalanced Gaussian mixtures and shared-atom
label-shift instances.

The mixture generator places class centers on the unit circle, draws class
proportions ``p_k`` proportional to ``exp(eta * k)`` and produces a target
domain from the rotated mixture with the source proportions re-sorted in
descending order (class 1 receives the largest share), so proportion shift
is maximal.  ``theta = 0`` gives pure label shift, ``theta > 0`` the
generalized case.

Randomness: a root ``numpy.random.SeedSequence(seed)`` is split into three
child streams (source labels, source features, target features), so draws
are bit-reproducible and independent per purpose.  Multi-draw experiments
derive one integer seed per draw index from the root sequence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .measures import (
    ROUNDING_TOL,
    DiscreteMeasure,
    LabeledDataset,
    _count,
    _nonnegative,
    _probability,
    _real,
)

__all__ = [
    "ToyConfig",
    "class_centers",
    "source_proportions",
    "generate_pair",
    "shared_atom_label_shift",
    "draw_seeds",
]

#: Cluster spread; unstated by the construction, chosen so unit-circle
#: clusters overlap moderately at K = 3.  Echoed into every output file.
DEFAULT_SIGMA = 0.35


@dataclass(frozen=True)
class ToyConfig:
    n_classes: int = 3
    n_source: int = 300
    n_target: int = 300
    sigma: float = DEFAULT_SIGMA
    eta: float = 1.0
    theta_degrees: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_classes", "n_source", "n_target"):
            _count(name, getattr(self, name), None)
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.n_source < self.n_classes or self.n_target < self.n_classes:
            raise ValueError("sample sizes must be at least the class count")
        for name in ("sigma", "eta", "theta_degrees"):
            _real(name, getattr(self, name))
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        _count("seed", self.seed, 0)

    def to_dict(self) -> dict:
        return asdict(self)


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def class_centers(n_classes: int) -> np.ndarray:
    """Centers obtained by rotating (0, 1) by ``2 k pi / K``, k = 0..K-1."""
    n_classes = _count("n_classes", n_classes)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    return np.column_stack([-np.sin(angles), np.cos(angles)])


def source_proportions(n_classes: int, eta: float) -> np.ndarray:
    """``p_k proportional to exp(eta * k)``, k = 1..K, normalized."""
    n_classes = _count("n_classes", n_classes)
    _nonnegative("eta", eta)
    k = np.arange(1, n_classes + 1, dtype=float)
    w = np.exp(eta * (k - k.max()))  # shift for numerical stability
    return w / w.sum()


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``; ties go to the smallest index."""
    exact = proportions * total
    counts = np.floor(exact).astype(int)
    remainder = total - counts.sum()
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[:remainder]] += 1
    return counts


def generate_pair(config: ToyConfig):
    """One draw of (source, target) labeled samples under ``config``.

    Source labels are i.i.d. multinomial from ``p``; target class counts are
    the largest-remainder rounding of ``n_target`` times the descending sort
    of ``p`` (class 1 largest), with features drawn fresh from the mixture
    rotated by ``theta``.
    """
    k = config.n_classes
    p = source_proportions(k, config.eta)
    centers = class_centers(k)
    root = np.random.SeedSequence(config.seed)
    labels_rng, source_rng, target_rng = map(np.random.default_rng, root.spawn(3))

    source_labels = labels_rng.choice(k, size=config.n_source, p=p) + 1
    source_points = (centers[source_labels - 1]
                     + config.sigma * source_rng.standard_normal((config.n_source, 2)))

    q = np.sort(p)[::-1]
    counts = _largest_remainder(q, config.n_target)
    target_labels = np.repeat(np.arange(1, k + 1), counts)
    rotated = centers @ _rotation(np.deg2rad(config.theta_degrees)).T
    target_points = (rotated[target_labels - 1]
                     + config.sigma * target_rng.standard_normal((config.n_target, 2)))

    return (LabeledDataset(source_points, source_labels, k),
            LabeledDataset(target_points, target_labels, k))


def draw_seeds(seed: int, draws: int) -> np.ndarray:
    """One independent 63-bit seed per draw index, derived from ``seed``."""
    state = np.random.SeedSequence(seed).generate_state(draws, dtype=np.uint64)
    return (state >> np.uint64(1)).astype(np.int64)


def shared_atom_label_shift(class_atoms: Sequence, p, q):
    """Source/target pair with identical class conditionals on shared atoms.

    ``class_atoms[k]`` lists the atoms of class ``k + 1``; the classes must
    occupy pairwise disjoint atom sets, which realizes the separating-sets
    premise under which the relaxation thresholds for label shift are exact.
    The source puts mass ``p_k`` uniformly on class ``k``'s atoms, the
    target ``q_k`` on the same atoms.

    Returns ``(source, conditionals, target)``.
    """
    p, q = _probability("p", p), _probability("q", q)
    atoms = [np.atleast_2d(np.asarray(a, dtype=float)) for a in class_atoms]
    if not p.shape == q.shape == (len(atoms),):
        raise ValueError(f"p and q must be vectors of one entry per atom set, got shapes "
                         f"{p.shape} and {q.shape} for {len(atoms)} sets")
    for a in atoms:
        if len(a) == 0:
            raise ValueError("every class needs at least one atom")
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            for row in atoms[i]:
                if np.any(np.max(np.abs(atoms[j] - row), axis=1) <= ROUNDING_TOL):
                    raise ValueError(
                        f"classes {i + 1} and {j + 1} share an atom; the "
                        "separating-sets premise needs disjoint classes"
                    )

    all_points = np.vstack(atoms)
    conditionals = [DiscreteMeasure(a, np.full(len(a), 1.0 / len(a))) for a in atoms]
    source_w = np.concatenate([np.full(len(a), pk / len(a))
                               for pk, a in zip(p, atoms)])
    target_w = np.concatenate([np.full(len(a), qk / len(a))
                               for qk, a in zip(q, atoms)])
    return (DiscreteMeasure(all_points, source_w),
            conditionals,
            DiscreteMeasure(all_points, target_w))
