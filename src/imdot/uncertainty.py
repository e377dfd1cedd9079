"""Scoring-function uncertainty and its source-guided combination.

Scores live on the probability simplex (softmax outputs) or, for the binary
hinge case, as a scalar margin.  Hypotheses over finite samples are plain
integer label arrays, so every infimum here is an exact scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import ROUNDING_TOL, _count, _labels, _nonnegative, _probability, _real

__all__ = [
    "min_entropy_uncertainty",
    "renyi_entropy",
    "hinge_uncertainty",
    "zero_one_loss",
    "cross_entropy_loss",
    "l1_label_loss",
    "scaled_l1_loss",
    "loss_satisfies_triangle",
    "loss_pair_condition_holds",
    "FiniteHypothesisRisks",
    "hypothesis_risks",
    "source_guided_uncertainty",
    "SguPropertiesReport",
    "verify_sgu_properties",
]

LOG_CLIP = 1e-12


def _per_row(values, v):
    """``values``, one per row of the checked score ``v``: the array itself
    for a batch, a float for a 1-d score, which is a batch of one row."""
    return values if v.ndim == 2 else float(values)


def min_entropy_uncertainty(score):
    """``-log(max_i score_i)``: the cross-entropy self-uncertainty of a scorer.

    A 2-d array of simplex rows gives an array with one value per row."""
    v = _probability("score", score)
    # On the simplex the largest entry is at least 1/len(score) > 0.
    return _per_row(-np.log(v.max(axis=-1)), v)


def renyi_entropy(score, alpha: float):
    """Renyi entropy ``(1/(1-alpha)) log sum_i v_i^alpha`` of a simplex vector.

    ``alpha = 1`` is the Shannon limit (computed directly), ``alpha = inf``
    the min-entropy and ``alpha = 0`` the log support size.  Nonincreasing in
    ``alpha``, so ``H_inf <= H_alpha`` for every ``alpha``.  A 2-d array of
    simplex rows (zero-padded to one width) gives an array with one value
    per row.
    """
    v = _probability("score", score)
    alpha = float(_nonnegative("alpha", alpha, finite=False))
    if alpha == np.inf:
        return min_entropy_uncertainty(v)
    if alpha == 1:
        values = -(v * np.log(np.where(v > 0, v, 1.0))).sum(axis=-1)
    elif alpha == 0:
        values = np.log(np.count_nonzero(v, axis=-1))
    else:
        values = np.log((v ** alpha).sum(axis=-1)) / (1.0 - alpha)
    return _per_row(values, v)


def hinge_uncertainty(margin: float) -> float:
    """``(1 - |margin|)_+`` for a binary margin score."""
    return max(0.0, 1.0 - abs(float(_real("margin", margin))))


# ---------------------------------------------------------------------------
# Losses on (score, label) and (label, label) pairs
# ---------------------------------------------------------------------------

def zero_one_loss(prediction, label) -> float:
    return 0.0 if prediction == label else 1.0


def cross_entropy_loss(score, label) -> float:
    """``-log score[label]`` with scores clipped below at 1e-12; labels are
    the integers 1 to ``len(score)``."""
    v = np.asarray(score, dtype=float)
    return float(-np.log(max(v[_labels("label", label, len(v), ndim=0) - 1], LOG_CLIP)))


def l1_label_loss(prediction, label) -> float:
    """L1 distance between one-hot encodings: 0 on agreement, 2 otherwise."""
    return 0.0 if prediction == label else 2.0


def scaled_l1_loss(logit_bound: float, n_classes: int) -> Callable:
    """``(2R + log K) * ||. - .||_1`` on one-hot labels, for logits in [-R, R]."""
    factor = 2.0 * logit_bound + np.log(n_classes)
    return lambda prediction, label: factor * l1_label_loss(prediction, label)


def loss_satisfies_triangle(loss: Callable, n_classes: int) -> bool:
    """Exhaustively check ``l(a, c) <= l(a, b) + l(b, c)`` on the label set."""
    labels = range(1, n_classes + 1)
    return all(
        loss(a, c) <= loss(a, b) + loss(b, c) + ROUNDING_TOL
        for a in labels for b in labels for c in labels
    )


def loss_pair_condition_holds(l1: Callable, l2: Callable, scores,
                              n_classes: int) -> bool:
    """Check ``l1(u, y1) - l2(y2, y1) <= l1(u, y2)`` on given score vectors.

    This is the compatibility condition under which a bound on the target
    risk of classifiers transfers to scoring functions; it holds e.g. for
    the cross-entropy paired with ``scaled_l1_loss(R, K)`` when the softmax
    logits are bounded by ``R``.
    """
    labels = range(1, n_classes + 1)
    for u in np.atleast_2d(np.asarray(scores, dtype=float)):
        for y1 in labels:
            for y2 in labels:
                if l1(u, y1) - l2(y2, y1) > l1(u, y2) + ROUNDING_TOL:
                    return False
    return True


# ---------------------------------------------------------------------------
# Source-guided uncertainty on finite hypothesis sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteHypothesisRisks:
    """Per-hypothesis disagreement risk on T (w.r.t. g) and risk on S."""

    target: np.ndarray
    source: np.ndarray

    def __post_init__(self):
        _nonnegative("target", self.target, 1)
        _nonnegative("source", self.source, 1)


def _risk(loss: Callable, firsts, seconds) -> float:
    """Mean of ``loss(a, b)`` over the aligned pairs of ``firsts`` and
    ``seconds``: one hypothesis's risk."""
    return float(np.mean([loss(a, b) for a, b in zip(firsts, seconds, strict=True)]))


def hypothesis_risks(g_scores, hyp_target, hyp_source, source_labels,
                     l1: Callable = zero_one_loss,
                     l2: Callable = zero_one_loss) -> FiniteHypothesisRisks:
    """The two risk vectors entering the source-guided uncertainty.

    ``g_scores[i]`` is the score (or predicted label, for classifier ``g``)
    at target point ``i``; ``hyp_target``/``hyp_source`` hold each
    hypothesis's labels on the two samples, row per hypothesis.  Rows may be
    lists; a row of the wrong length is named by its hypothesis index.
    """
    if len(hyp_target) != len(hyp_source):
        raise ValueError("each hypothesis needs labels on both samples")
    for rows, sample, name in ((hyp_target, g_scores, "target"),
                               (hyp_source, source_labels, "source")):
        for h, labels in enumerate(rows):
            if len(labels) != len(sample):
                raise ValueError(f"hypothesis {h} has {len(labels)} labels on the "
                                 f"{name} sample of {len(sample)} points")
    return FiniteHypothesisRisks(
        np.array([_risk(l1, g_scores, labels) for labels in hyp_target]),
        np.array([_risk(l2, labels, source_labels) for labels in hyp_source]),
    )


def source_guided_uncertainty(g_scores, hyp_target, hyp_source, source_labels,
                              l1: Callable = zero_one_loss,
                              l2: Callable = zero_one_loss):
    """``inf_h  R_T(g, h) + R_S(h)`` over a finite hypothesis list.

    Returns the exact minimum and the minimizing hypothesis index (ties go
    to the smallest index).
    """
    if len(hyp_target) == 0:
        raise ValueError("the hypothesis list is empty")
    risks = hypothesis_risks(g_scores, hyp_target, hyp_source, source_labels, l1, l2)
    totals = risks.target + risks.source
    best = int(np.argmin(totals))
    return float(totals[best]), best


@dataclass(frozen=True)
class SguPropertiesReport:
    point1_ok: bool
    point2_ok: bool
    point3_ok: bool
    point2_values: tuple
    point3_values: tuple

    @property
    def ok(self) -> bool:
        return self.point1_ok and self.point2_ok and self.point3_ok


def verify_sgu_properties(hyp_target, hyp_source, source_labels, target_labels,
                          tilde_target, tilde_source, n_classes: int,
                          loss: Callable = zero_one_loss) -> SguPropertiesReport:
    """Exhaustively verify the three source-guided uncertainty properties.

    ``(hyp_target, hyp_source)`` is the finite class H, ``(tilde_target,
    tilde_source)`` a superset used as the scoring-function pool; the loss
    must satisfy the triangle inequality on the label set and vanish on the
    diagonal (checked before anything is asserted).  Rows of ``hyp_target``
    and ``tilde_target`` label the points of ``target_labels``, rows of
    ``hyp_source`` and ``tilde_source`` those of ``source_labels``, and each
    hypothesis has one row on either sample; a length that differs is named.

    Point 1: ``U_H(h) <= R_S(h)`` for every classifier h in H.
    Point 2: ``min over g in the superset of U_H(g)`` equals
    ``min_h R_S(h)``.
    Point 3: ``U_H(h) = R_S(h)`` at the best-source hypothesis and at the
    joint-risk minimizer (which needs the target labels).

    ``U_H`` is scored once per row of the superset; a hypothesis of H reads
    its value from its row there.
    """
    n_classes = _count("n_classes", n_classes)
    hyp_target, hyp_source, tilde_target, tilde_source = (
        _labels(name, values, n_classes, ndim=2) for name, values in (
            ("hyp_target", hyp_target), ("hyp_source", hyp_source),
            ("tilde_target", tilde_target), ("tilde_source", tilde_source)))
    source_labels = _labels("source_labels", source_labels, n_classes)
    target_labels = _labels("target_labels", target_labels, n_classes)
    for rows_name, rows, name, labels in (
            ("hyp_target", hyp_target, "target_labels", target_labels),
            ("tilde_target", tilde_target, "target_labels", target_labels),
            ("hyp_source", hyp_source, "source_labels", source_labels),
            ("tilde_source", tilde_source, "source_labels", source_labels)):
        if rows.shape[1] != len(labels):
            raise ValueError(f"{rows_name} rows have {rows.shape[1]} labels where {name} "
                             f"has {len(labels)}")
    for target_name, on_target, source_name, on_source in (
            ("hyp_target", hyp_target, "hyp_source", hyp_source),
            ("tilde_target", tilde_target, "tilde_source", tilde_source)):
        if len(on_target) != len(on_source):
            raise ValueError(f"{target_name} has {len(on_target)} rows where {source_name} "
                             f"has {len(on_source)}")
    if not loss_satisfies_triangle(loss, n_classes):
        raise ValueError("the loss does not satisfy the triangle inequality")
    for a in range(1, n_classes + 1):
        if loss(a, a) != 0:
            raise ValueError("the loss must vanish on the diagonal")
    pool_rows = []
    for ht, hs in zip(hyp_target, hyp_source):
        present = np.flatnonzero(np.all(tilde_target == ht, axis=1)
                                 & np.all(tilde_source == hs, axis=1))
        if not len(present):
            raise ValueError("the hypothesis class is not contained in its superset")
        pool_rows.append(present[0])

    risks_s = np.array([_risk(loss, labels, source_labels) for labels in hyp_source])

    pool_u = [source_guided_uncertainty(g, hyp_target, hyp_source, source_labels,
                                        loss, loss)[0] for g in tilde_target]
    u_h = [pool_u[row] for row in pool_rows]

    point1_ok = all(u <= r + ROUNDING_TOL for u, r in zip(u_h, risks_s))

    inf_over_pool = min(pool_u)
    inf_source = float(risks_s.min())
    point2_ok = abs(inf_over_pool - inf_source) <= ROUNDING_TOL

    risks_t_true = np.array([_risk(loss, labels, target_labels) for labels in hyp_target])
    h_s = int(np.argmin(risks_s))
    h_star = int(np.argmin(risks_t_true + risks_s))
    u_hs, u_hstar = u_h[h_s], u_h[h_star]
    point3_ok = (abs(u_hs - risks_s[h_s]) <= ROUNDING_TOL
                 and abs(u_hstar - risks_s[h_star]) <= ROUNDING_TOL)

    return SguPropertiesReport(
        point1_ok, point2_ok, point3_ok,
        (inf_over_pool, inf_source),
        ((u_hs, float(risks_s[h_s])), (u_hstar, float(risks_s[h_star]))),
    )
