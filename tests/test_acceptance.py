"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8 solves the
full 50-draw benchmark at n = 300 and takes a few minutes; everything else
finishes in seconds.
"""

import os
import time

import numpy as np

from imdot import checks
from imdot.checks import dyadic_weights, random_points, random_transport_instance
from imdot.datagen import ToyConfig, shared_atom_label_shift
from imdot.experiments import run_sweep, write_draws_csv, write_summary_csv
from imdot.families import grid_family, hdh_family, indicator_family
from imdot.imd import duality_check
from imdot.measures import DiscreteMeasure, cost_matrix
from imdot.ot import partial_ot_beta_split, partial_ot_global, partial_ot_per_class


def report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def properties(rng, instances, *props):
    """Run shared properties on one generator: (all passed, joined details)."""
    results = [prop(rng, instances) for prop in props]
    return all(ok for ok, _ in results), "; ".join(detail for _, detail in results)


def test_c01_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    ok, detail = properties(rng, 200, checks.ot_primal_dual_agreement,
                            checks.hdh_matches_bruteforce,
                            checks.imd_tv_matches_bruteforce)
    elapsed = time.perf_counter() - started
    report(1, "oracle equivalence", ok and elapsed <= 120, f"{detail}; {elapsed:.0f}s")


def test_c02_imd_axioms():
    # The dominated pairs, checked both ways, include IMD(Q, 2Q) = 0 < IMD(2Q, Q).
    ok, detail = properties(np.random.default_rng(102), 500,
                            checks.imd_nonneg_triangle_indicators,
                            checks.imd_null_characterization)
    report(2, "IMD axioms", ok, detail)


def test_c03_duality():
    rng = np.random.default_rng(103)
    alpha_grid = np.arange(0.0, 5.0001, 0.05)
    worst_hull = 0.0
    inequality_failures = 0
    for i in range(50):
        n = int(rng.integers(2, 5))
        pts = random_points(rng, n)
        t = DiscreteMeasure(pts, dyadic_weights(rng, n, normalize=True))
        s = DiscreteMeasure(pts, dyadic_weights(rng, n, normalize=True))
        eps = float(rng.uniform(0.01, 0.5))
        grid_report = duality_check(t, s, grid_family(pts), eps, alpha_grid)
        if not grid_report.inequality_holds:
            inequality_failures += 1
        worst_hull = max(worst_hull, abs(grid_report.hull_gap))
        ind_report = duality_check(t, s, indicator_family(pts), eps, alpha_grid)
        if not ind_report.inequality_holds:
            inequality_failures += 1
        if i < 10:  # hdh families are slower to enumerate; sample them
            fam = hdh_family(pts, rng.integers(1, 3, size=(4, n)))
            if not duality_check(t, s, fam, eps, alpha_grid).inequality_holds:
                inequality_failures += 1
    ok = inequality_failures == 0 and worst_hull <= 1e-3
    report(3, "localization duality", ok,
           f"max convex-family gap {worst_hull:.2e}, "
           f"{inequality_failures} grid-inequality failures")


def test_c04_label_shift_thresholds():
    rng = np.random.default_rng(104)
    # the exact hand instance: thresholds 0.3 (per-class) and 1.5 (global)
    exact_ok, exact_detail = checks.ot_label_shift_thresholds(rng, 1)

    random_failures = 0
    for _ in range(40):
        k = int(rng.integers(2, 4))
        atoms = [[[float(3 * j), float(i)] for i in range(int(rng.integers(1, 3)))]
                 for j in range(k)]
        p = rng.dirichlet(np.ones(k) * 2.0)
        q = rng.dirichlet(np.ones(k) * 2.0)
        gaps = q - p
        if gaps.max() < 0.05 or p.min() < 0.05:
            continue
        src, cnd, tgt = shared_atom_label_shift(atoms, p, q)
        ccosts = [cost_matrix(tgt.points, c.points) for c in cnd]
        thresholds = np.maximum(gaps, 0.0)
        v_at = partial_ot_per_class(tgt, cnd, p, thresholds, ccosts).objective
        binding = int(np.argmax(gaps))
        lowered = thresholds.copy()
        lowered[binding] -= 0.01
        v_below = partial_ot_per_class(tgt, cnd, p, lowered, ccosts).objective
        if abs(v_at) > 1e-8 or v_below <= 1e-6:
            random_failures += 1
        beta_star = float(np.max(np.maximum(q / p - 1.0, 0.0)))
        cf = cost_matrix(tgt.points, src.points)
        vg_at, _ = partial_ot_global(tgt, src, cf, beta_star)
        vg_below, _ = partial_ot_global(tgt, src, cf, max(beta_star - 0.01, 0.0))
        if abs(vg_at) > 1e-8 or vg_below <= 1e-6:
            random_failures += 1
    ok = exact_ok and random_failures == 0
    report(4, "label-shift thresholds", ok,
           f"exact instance {'ok' if exact_ok else 'BROKEN'} ({exact_detail}), "
           f"{random_failures} random-instance failures")


def test_c05_relaxation_structure():
    rng = np.random.default_rng(105)
    ok, detail = properties(rng, 100, checks.ot_beta_zero_degeneracy,
                            checks.ot_monotonicity_and_split_dominance)
    # the optimal split against a random fixed split of the same budget
    worst_split = 0.0
    for _ in range(100):
        target, _, conds, p, costs = random_transport_instance(rng)
        beta = float(rng.uniform(0, 1.5))
        split = partial_ot_beta_split(target, conds, p, beta, costs).objective
        fixed = rng.dirichlet(np.ones(len(p))) * beta
        v_fixed = partial_ot_per_class(target, conds, p, fixed, costs).objective
        worst_split = max(worst_split, split - v_fixed)
    report(5, "relaxation structure", ok and worst_split <= 1e-8,
           f"{detail}; random fixed split {worst_split:.2e}")


def test_c06_uncertainty_properties():
    rng = np.random.default_rng(106)
    ordering_ok, ordering = checks.entropy_ordering(rng, 10_000)
    sgu_ok, sgu = checks.sgu_properties(rng, 50)
    report(6, "uncertainty properties", ordering_ok and sgu_ok,
           f"entropy ordering: {ordering}; source-guided: {sgu}")


def test_c07_localization_and_support_bounds():
    ok, detail = properties(np.random.default_rng(107), 100,
                            checks.localization_inclusions, checks.hdh_support_bound)
    report(7, "localization inclusions and support bound", ok, detail)


def test_c08_experiment_reproduction(tmp_path):
    jobs = min(8, os.cpu_count() or 1)
    beta_grid = [0.25, 0.5, 0.75, 1.0]
    started = time.perf_counter()
    cfg3 = ToyConfig(n_classes=3, n_source=300, n_target=300, eta=1.0,
                     theta_degrees=0.0, seed=20240)
    sweep3 = run_sweep(cfg3, beta_grid, draws=50, mode="both", jobs=jobs)
    write_draws_csv(sweep3, tmp_path / "k3_draws.csv")
    write_summary_csv(sweep3, tmp_path / "k3_summary.csv")
    summary3 = sweep3.summary()
    medians3 = {beta: med for beta, med, _, _ in summary3}

    # informational cross-K trend at beta = 1.0 (full CSV emitted alongside)
    cfg5 = ToyConfig(n_classes=5, n_source=300, n_target=300, eta=1.0,
                     theta_degrees=0.0, seed=20240)
    sweep5 = run_sweep(cfg5, [1.0], draws=50, mode="both", jobs=jobs)
    write_draws_csv(sweep5, tmp_path / "k5_draws.csv")
    median5 = sweep5.summary()[0][1]
    elapsed = time.perf_counter() - started

    trend = "grows" if median5 >= medians3[1.0] else "does not grow"
    print(f"\n[info] K=5 vs K=3 median gap at beta=1.0: "
          f"{median5:.4f} vs {medians3[1.0]:.4f} ({trend} with K); "
          f"CSVs in {tmp_path}")
    ok = (not sweep3.failures and not sweep5.failures
          and all(med >= 0.0 for med in medians3.values())
          and elapsed <= 1200)
    detail = ", ".join(f"beta={b}: {m:.4f}" for b, m in medians3.items())
    report(8, "experiment reproduction", ok,
           f"medians {detail}; {elapsed:.0f}s with {jobs} jobs")


def test_c09_determinism(tmp_path):
    from imdot.cli import main

    gen = ["gen", "--k", "3", "--eta", "1", "--n", "40", "--seed", "11"]
    sweep = ["sweep", "--k", "3", "--n", "40", "--draws", "2",
             "--beta-grid", "0,0.5", "--seed", "11", "--jobs", "1"]
    paths = {}
    for name, argv in (("g1", gen), ("g2", gen), ("w1", sweep), ("w2", sweep)):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        paths[name] = out
    same_gen = all(
        (paths["g1"] / f).read_bytes() == (paths["g2"] / f).read_bytes()
        for f in ("source.csv", "target.csv"))
    same_sweep = all(
        (paths["w1"] / f).read_bytes() == (paths["w2"] / f).read_bytes()
        for f in ("draws.csv", "summary.csv"))
    report(9, "byte-identical reruns", same_gen and same_sweep,
           f"gen identical: {same_gen}, sweep identical: {same_sweep}")


def test_c10_support_distance_identity():
    ok, detail = checks.ot_support_distance_identity(np.random.default_rng(110), 100)
    report(10, "support-distance identity", ok, detail)
