"""Label propagation from transport plans and the relaxation-sweep harness.

A transport plan labels each target point by the class it receives the most
mass from.  The sweep draws fresh source/target pairs, solves the globally
relaxed and the budget-split per-class problems on the same draw, and
summarizes the paired accuracy difference per relaxation value by its
median, minimum and maximum over draws.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .datagen import ToyConfig, draw_seeds, generate_pair
from .measures import (
    ROUNDING_TOL,
    CostMatrix,
    _count,
    _labels,
    _nonnegative,
    _plan,
    class_conditionals,
    cost_matrix,
    empirical_measure,
)
from .ot import (
    TransportPlanSet,
    partial_ot_beta_split_path,
    partial_ot_global_path,
)

__all__ = [
    "propagate_labels",
    "accuracy",
    "DrawRecord",
    "SweepResult",
    "run_sweep",
    "write_draws_csv",
    "write_summary_csv",
]

MODE_GLOBAL = "global"
MODE_SPLIT = "per_class_split"

#: Class votes within this fraction of a row's top vote tie with it.  Far
#: above the rounding in a plan's vote sums and far below the vote
#: differences of an exact plan, so labels do not depend on which optimal
#: plan the solver returns.
TIE_REL_TOL = 1e-9


def propagate_labels(plan, source_labels, n_classes: int | None = None) -> np.ndarray:
    """Majority-vote labels: each target row takes the class sending most mass.

    ``plan`` is either a single (n_target, n_source) matrix or a
    :class:`~imdot.ot.TransportPlanSet`, whose class-``k`` block holds the
    columns of the class-``k`` sources, so its row sums are the class
    votes; every block must be as wide as its class has labels, so a block
    with no label has width 0, and every label, in ``1..n_classes`` (by
    default up to the largest), must have a block.  Votes within
    ``TIE_REL_TOL`` of the row's top vote tie, and ties resolve to the
    smallest class index; a row carrying less than ``ROUNDING_TOL`` total
    mass is an error (the equality marginal makes it impossible short of
    solver breakdown).
    """
    if n_classes is None:
        n_classes = int(_labels("source_labels", source_labels).max(initial=0))
    source_labels = _labels("source_labels", source_labels, _count("n_classes", n_classes))
    if isinstance(plan, TransportPlanSet):
        blocks = [_plan(f"plan block {k + 1}", block) for k, block in enumerate(plan.plans)]
        if source_labels.size and source_labels.max() > len(blocks):
            raise ValueError(f"source label {source_labels.max()} has no block: the "
                             f"plan set has {len(blocks)}")
    else:
        plan = _plan("plan", plan)
        if plan.shape[1] != len(source_labels):
            raise ValueError("plan columns do not match the source labels")
        blocks = [plan[:, source_labels == k] for k in range(1, n_classes + 1)]
    votes = np.zeros((blocks[0].shape[0] if blocks else 0, n_classes))
    for k, block in enumerate(blocks):
        if block.shape[1] != np.count_nonzero(source_labels == k + 1):
            raise ValueError("class block width does not match its labels")
        if k < n_classes:
            votes[:, k] = block.sum(axis=1)
    totals = votes.sum(axis=1)
    if np.any(totals < ROUNDING_TOL):
        bad = int(np.argmin(totals))
        raise ValueError(f"target row {bad} received no mass ({totals[bad]!r})")
    top = votes.max(axis=1, keepdims=True)
    return np.argmax(votes >= top * (1.0 - TIE_REL_TOL), axis=1) + 1


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("prediction and truth lengths differ")
    return float(np.mean(predicted == truth))


@dataclass(frozen=True)
class DrawRecord:
    draw: int
    seed: int
    beta: float
    mode: str
    accuracy: float
    objective: float
    solve_seconds: float


@dataclass(frozen=True)
class SweepResult:
    config: ToyConfig
    beta_grid: tuple
    mode: str
    draws: int
    records: tuple
    failures: tuple

    def summary(self):
        """Per-beta (median, min, max) of the split-minus-global accuracy gap.

        Pure function of the recorded per-draw values; recomputable from the
        draws CSV.
        """
        if self.mode != "both":
            raise ValueError("the paired summary needs both modes")
        by_key = {(r.draw, r.beta, r.mode): r.accuracy for r in self.records}
        rows = []
        for beta in self.beta_grid:
            diffs = []
            for draw in range(self.draws):
                a_split = by_key.get((draw, beta, MODE_SPLIT))
                a_glob = by_key.get((draw, beta, MODE_GLOBAL))
                if a_split is None or a_glob is None:
                    continue
                if np.isnan(a_split) or np.isnan(a_glob):
                    continue  # failed solve, recorded separately
                diffs.append(a_split - a_glob)
            if not diffs:
                rows.append((beta, float("nan"), float("nan"), float("nan")))
                continue
            diffs = np.asarray(diffs)
            rows.append((beta, float(np.median(diffs)),
                         float(diffs.min()), float(diffs.max())))
        return rows


def _run_draw(args):
    """Every (beta, mode) record of one draw, in grid order.  Each mode is
    solved down its whole grid on one model before the records are made,
    and each solve's time is an equal share of its walk.  If a walk raises,
    each of its ``beta`` is solved, and fails, on its own."""
    draw, seed, config, beta_grid, modes = args
    cfg = replace(config, seed=int(seed))
    source, target = generate_pair(cfg)
    source_measure = empirical_measure(source)
    target_measure = empirical_measure(target)
    conditionals, proportions = class_conditionals(source)
    cost_full = cost_matrix(target.points, source.points)
    class_costs = [CostMatrix(cost_full.entries[:, source.class_indices(k)])
                   for k in range(1, config.n_classes + 1)]

    def walk(mode, grid):
        """``(objective, plan, time share)`` at every ``beta`` of ``grid``."""
        start = time.perf_counter()
        if mode == MODE_GLOBAL:
            solved = partial_ot_global_path(target_measure, source_measure,
                                            cost_full, grid)
        else:
            solved = [(plan_set.objective, plan_set)
                      for plan_set in partial_ot_beta_split_path(
                          target_measure, conditionals, proportions, grid, class_costs)]
        share = (time.perf_counter() - start) / len(grid)
        return [(value, plan, share) for value, plan in solved]

    walks = {}
    for mode in modes:
        try:
            walks[mode] = walk(mode, beta_grid)
        except Exception:
            walks[mode] = [None] * len(beta_grid)
    records, failures = [], []
    for e, beta in enumerate(beta_grid):
        for mode in modes:
            try:
                value, plan, share = walks[mode][e] or walk(mode, [beta])[0]
                start = time.perf_counter()
                labels = propagate_labels(plan, source.labels, config.n_classes)
            except Exception as exc:  # recorded, never silently dropped
                records.append(DrawRecord(draw, int(seed), float(beta), mode,
                                          float("nan"), float("nan"), 0.0))
                failures.append((draw, float(beta), mode, repr(exc)))
                continue
            elapsed = time.perf_counter() - start + share
            records.append(DrawRecord(draw, int(seed), float(beta), mode,
                                      accuracy(labels, target.labels), value, elapsed))
    return records, failures


def run_sweep(config: ToyConfig, beta_grid, draws: int,
              mode: str = "both", jobs: int = 1) -> SweepResult:
    """Paired relaxation sweep over fresh draws.

    Each draw generates one source/target pair and solves every requested
    mode at every ``beta`` on that same pair.  Draws are independent and run
    in parallel on ``min(jobs, draws)`` worker processes when that is more
    than one; records are gathered in draw order so the result is identical
    either way.
    """
    draws, jobs = _count("draws", draws), _count("jobs", jobs)
    if mode not in ("both", MODE_GLOBAL, MODE_SPLIT):
        raise ValueError(f"unknown mode {mode!r}")
    beta_grid = tuple(_nonnegative("beta_grid", beta_grid, 1).tolist())
    if not beta_grid:
        raise ValueError("beta_grid must not be empty")
    modes = (MODE_GLOBAL, MODE_SPLIT) if mode == "both" else (mode,)
    seeds = draw_seeds(config.seed, draws)
    tasks = [(d, seeds[d], config, beta_grid, modes) for d in range(draws)]
    workers = min(jobs, draws)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_draw, tasks))
    else:
        outcomes = [_run_draw(t) for t in tasks]
    records, failures = [], []
    for recs, fails in outcomes:
        records.extend(recs)
        failures.extend(fails)
    return SweepResult(config, beta_grid, mode, draws,
                       tuple(records), tuple(failures))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_draws_csv(result: SweepResult, path, include_timings: bool = False) -> None:
    """Per-draw records as ``draw,seed,beta,mode,accuracy,objective,solve_ms``.

    Timings are left empty unless requested, keeping default output
    byte-identical across reruns with the same seed.  A time is an equal
    share of its draw's grid walk in its mode plus its own label
    propagation.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["draw", "seed", "beta", "mode",
                         "accuracy", "objective", "solve_ms"])
        for r in result.records:
            ms = repr(r.solve_seconds * 1000.0) if include_timings else ""
            writer.writerow([r.draw, r.seed, repr(r.beta), r.mode,
                             repr(r.accuracy), repr(r.objective), ms])


def write_summary_csv(result: SweepResult, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "median_diff", "min_diff", "max_diff"])
        for beta, med, lo, hi in result.summary():
            writer.writerow([repr(beta), repr(med), repr(lo), repr(hi)])
