import numpy as np
import pytest

from imdot import checks
from imdot.checks import dyadic_weights, random_points, related_hypotheses
from imdot.families import (
    global_localization,
    grid_family,
    hdh_family,
    indicator_family,
    weights_on_ground,
)
from imdot.imd import (
    bounded01_dual_minimum,
    bounded01_localized_value,
    bounded01_relaxed_value,
    duality_check,
    hdh_imd,
    hdh_support_bound_check,
    imd_bruteforce,
    imd_f0_support_mass,
    imd_tv_closed_form,
)
from imdot.measures import DiscreteMeasure, mix

TWO = np.array([[0.0, 0.0], [1.0, 0.0]])


def pairwise_scan_support_bound(target, source, family):
    """Reference: the pair-by-pair scan behind ``hdh_support_bound_check``,
    returning (lhs, rhs, support mask)."""
    wt = weights_on_ground(target, family.ground_points)
    ws = weights_on_ground(source, family.ground_points)
    hyp = family.hypotheses
    lhs = 0.0
    support = np.ones(len(ws), dtype=bool)
    for i in range(len(hyp)):
        for j in range(i, len(hyp)):
            disagree = hyp[i] != hyp[j]
            if float(ws[disagree].sum()) <= 1e-15:
                lhs = max(lhs, float(wt[disagree].sum()))
                support &= ~disagree
    return lhs, 1.0 - float(wt[support].sum()), support


def per_alpha_duality(target, source, family, eps, alpha_grid):
    """Reference: the two sides of ``duality_check`` by one enumeration of
    the localized family and one of the relaxed family per alpha."""
    localized = imd_bruteforce(target, source, family,
                               global_localization(eps, source)).value
    relaxed = [imd_bruteforce(target, source.scaled(1.0 + a), family).value + eps * a
               for a in alpha_grid]
    return localized, np.array(relaxed)


class TestBruteForce:
    def test_identical_measures(self):
        q = DiscreteMeasure(TWO, [0.5, 0.5])
        res = imd_bruteforce(q, q, indicator_family(TWO))
        assert res.value == 0.0
        assert not res.argmax_function.any()  # null argmax by lex tie-break
        assert res.family_size_scanned == 4

    def test_asymmetry_witness(self):
        passed, detail = checks.imd_asymmetry_witness(None, 1)
        assert passed, detail

    def test_half_tv_example(self):
        t = DiscreteMeasure(TWO, [0.5, 0.5])
        s = DiscreteMeasure(TWO, [0.8, 0.2])
        assert imd_bruteforce(t, s, indicator_family(TWO)).value == pytest.approx(0.3)

    def test_support_mismatch_errors(self):
        q = DiscreteMeasure([[9.0, 9.0]], [1.0])
        s = DiscreteMeasure(TWO, [0.5, 0.5])
        with pytest.raises(ValueError):
            imd_bruteforce(q, s, indicator_family(TWO))

    @pytest.mark.parametrize("prop, instances", [
        (checks.imd_nonneg_triangle_indicators, 100),
        (checks.imd_nonneg_triangle_grid, 40),
    ], ids=["indicator_family", "grid_family"])
    def test_triangle_inequality_random(self, rng, prop, instances):
        passed, detail = prop(rng, instances)
        assert passed, detail

    def test_null_characterization(self, rng):
        passed, detail = checks.imd_null_characterization(rng, 60)
        assert passed, detail

    def test_localized_monotone_in_beta(self, rng):
        # relaxing any class more cannot increase the discrepancy
        pts = random_points(rng, 6)
        fam = indicator_family(pts)
        t = DiscreteMeasure(pts, dyadic_weights(rng, 6, normalize=True))
        conds = [DiscreteMeasure(pts[:3], np.full(3, 1 / 3)),
                 DiscreteMeasure(pts[3:], np.full(3, 1 / 3))]
        s = mix(DiscreteMeasure(np.empty((0, 2)), np.empty(0)), conds, [0.5, 0.5])
        betas = [(0.0, 0.0), (0.2, 0.0), (0.2, 0.3), (0.5, 0.3), (0.5, 0.9)]
        values = [imd_bruteforce(t, mix(s, conds, np.asarray(b)), fam).value
                  for b in betas]
        for small, large in zip(values, values[1:]):
            assert large <= small + 1e-15


class TestClosedForms:
    def test_tv_equal_measures(self):
        q = DiscreteMeasure(TWO, [0.5, 0.5])
        assert imd_tv_closed_form(q, q) == 0.0

    def test_tv_is_half_l1(self):
        t = DiscreteMeasure(TWO, [0.5, 0.5])
        s = DiscreteMeasure(TWO, [0.8, 0.2])
        assert imd_tv_closed_form(t, s) == pytest.approx(0.3)

    def test_tv_disjoint(self):
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        s = DiscreteMeasure([[1.0, 0.0]], [1.0])
        assert imd_tv_closed_form(t, s) == 1.0

    def test_tv_matches_bruteforce_exactly(self, rng):
        passed, detail = checks.imd_tv_matches_bruteforce(rng, 60)
        assert passed, detail

    def test_f0_contained_support(self):
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        s = DiscreteMeasure(TWO, [0.5, 0.5])
        assert imd_f0_support_mass(t, s) == 0.0

    def test_f0_mass_off_support(self):
        t = DiscreteMeasure(TWO, [0.75, 0.25])
        s = DiscreteMeasure([[0.0, 0.0]], [1.0])
        assert imd_f0_support_mass(t, s) == 0.25

    def test_f0_matches_zero_localized_bruteforce(self, rng):
        passed, detail = checks.imd_f0_support_mass(rng, 30)
        assert passed, detail


class TestDuality:
    def test_inactive_localization_gap_zero_at_alpha_zero(self, rng):
        pts = random_points(rng, 4)
        t = DiscreteMeasure(pts, dyadic_weights(rng, 4, normalize=True))
        s = DiscreteMeasure(pts, dyadic_weights(rng, 4, normalize=True))
        # eps >= total source mass makes every bounded member admissible
        report = duality_check(t, s, indicator_family(pts), 1.0, [0.0, 0.5, 1.0])
        assert report.inequality_holds
        assert report.best_alpha == 0.0
        assert report.grid_gap == pytest.approx(0.0, abs=1e-15)

    def test_indicator_inequality_on_six_atoms(self, rng):
        pts = random_points(rng, 6)
        t = DiscreteMeasure(pts, dyadic_weights(rng, 6, normalize=True))
        s = DiscreteMeasure(pts, dyadic_weights(rng, 6, normalize=True))
        report = duality_check(t, s, indicator_family(pts), 0.1,
                               np.linspace(0, 5, 51))
        assert report.inequality_holds
        assert report.grid_gap >= -1e-12  # equality not asserted: non-convex
        # The indicators' convex hull is the [0, 1]-valued functions, where
        # the relation is an equality.
        assert report.hull_localized_value >= report.localized_value - 1e-12
        assert report.hull_gap == pytest.approx(0.0, abs=1e-12)

    def test_grid_family_hull_gap(self, rng):
        passed, detail = checks.imd_duality_convex_gap(rng, 20)
        assert passed, detail

    def test_one_pass_matches_the_per_alpha_scan(self, rng):
        # The first two cases have 15 atoms, so the indicator family spans two
        # batches; the last atom puts the optimum of every side in the first
        # batch (case 0) or in the last (case 1).
        alpha_grid = np.arange(0.0, 5.0001, 0.05)
        for case in range(25):
            n = 15 if case < 2 else int(rng.integers(2, 6))
            pts = random_points(rng, n)
            wt = dyadic_weights(rng, n)
            ws = np.where(rng.random(n) < 0.7, dyadic_weights(rng, n), 0.0)
            ws[0] = ws[0] or 1.0
            if case < 2:
                wt[-1], ws[-1] = (0.0, 0.5) if case == 0 else (0.5, 0.0)
            t = DiscreteMeasure(pts, wt / wt.sum())
            s = DiscreteMeasure(pts, ws / ws.sum())
            eps = float(rng.uniform(0.0, 0.5))
            families = [indicator_family(pts),
                        hdh_family(pts, related_hypotheses(rng, 4, n))]
            if n < 15:
                families.append(grid_family(pts))
            for fam in families:
                report = duality_check(t, s, fam, eps, alpha_grid)
                localized, relaxed = per_alpha_duality(t, s, fam, eps, alpha_grid)
                assert abs(report.localized_value - localized) <= 1e-14
                assert np.max(np.abs(report.relaxed_values - relaxed)) <= 1e-14

    def test_knapsack_value_against_lp(self, rng):
        # independent check of the closed-form localized value
        from imdot.lp import LinearProgram, solve
        for _ in range(20):
            n = int(rng.integers(2, 7))
            t = dyadic_weights(rng, n)
            s = dyadic_weights(rng, n)
            eps = float(rng.uniform(0, 1))
            direct = bounded01_localized_value(t, s, eps)
            lp = LinearProgram(-(t - s), s.reshape(1, -1), [-np.inf], [eps],
                               upper=np.ones(n))
            assert direct == pytest.approx(-solve(lp).value, abs=1e-9)

    def test_dual_minimum_matches_knapsack(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            t = dyadic_weights(rng, n)
            s = dyadic_weights(rng, n)
            eps = float(rng.uniform(1e-3, 1))
            loc = bounded01_localized_value(t, s, eps)
            dual, _ = bounded01_dual_minimum(t, s, eps)
            assert dual == pytest.approx(loc, abs=1e-12)


class TestHdh:
    def test_perfect_separation_gives_one(self):
        pts = TWO
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        s = DiscreteMeasure([[1.0, 0.0]], [1.0])
        hyp = np.array([[1, 1], [2, 1]])  # disagree exactly on the T atom
        res = hdh_imd(t, s, hdh_family(pts, hyp))
        assert res.value == pytest.approx(1.0)

    def test_fractional_hypothesis_labels_are_rejected(self):
        # Cast to int, [1.2, 1.9] was [1, 1]: the two hypotheses agreed
        # everywhere and hdh_imd read 0 where distinct labels read 1.
        t = DiscreteMeasure([[0.0, 0.0]], [1.0])
        s = DiscreteMeasure([[1.0, 0.0]], [1.0])
        assert hdh_imd(t, s, hdh_family(TWO, [[2, 1], [1, 1]])).value == pytest.approx(1.0)
        with pytest.raises(ValueError, match=r"^hypotheses must be whole numbers, "
                                             r"got \[\[1\.2, 1\.9\], \[1\.0, 1\.0\]\]$"):
            hdh_family(TWO, [[1.2, 1.9], [1, 1]])

    def test_single_hypothesis_is_null(self, rng):
        pts = random_points(rng, 4)
        t = DiscreteMeasure(pts, dyadic_weights(rng, 4, normalize=True))
        s = DiscreteMeasure(pts, dyadic_weights(rng, 4, normalize=True))
        res = hdh_imd(t, s, hdh_family(pts, rng.integers(1, 3, size=(1, 4))))
        assert res.value == 0.0

    def test_matches_bruteforce(self, rng):
        passed, detail = checks.hdh_matches_bruteforce(rng, 40)
        assert passed, detail

    def test_per_class_relaxation(self, rng):
        n = 6
        pts = random_points(rng, n)
        fam = hdh_family(pts, rng.integers(1, 3, size=(4, n)))
        t = DiscreteMeasure(pts, dyadic_weights(rng, n, normalize=True))
        conds = [DiscreteMeasure(pts[:3], np.full(3, 1 / 3)),
                 DiscreteMeasure(pts[3:], np.full(3, 1 / 3))]
        s = mix(DiscreteMeasure(np.empty((0, 2)), np.empty(0)), conds, [0.6, 0.4])
        beta_vec = np.array([0.0, 0.5])
        relaxed = mix(s, conds, beta_vec)
        res = hdh_imd(t, relaxed, fam)
        brute = imd_bruteforce(t, relaxed, fam).value
        assert res.value == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["alpha_grid"])
def test_a_non_finite_relaxation_is_named(name, bad):
    t = DiscreteMeasure([[0.0, 0.0]], [1.0])
    s = DiscreteMeasure([[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
        duality_check(t, s, indicator_family(TWO), 0.5, [0.0, bad])


@pytest.mark.parametrize("closed_form, name, bad", [
    (bounded01_localized_value, "eps", np.nan),
    (bounded01_dual_minimum, "eps", np.inf),
    (bounded01_dual_minimum, "eps", -1.0),
    (bounded01_relaxed_value, "alpha", -0.5),
])
def test_a_closed_form_names_a_bad_relaxation(closed_form, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
        closed_form([0.6, 0.4], [0.2, 0.8], bad)


@pytest.mark.parametrize("closed_form", [bounded01_localized_value, bounded01_dual_minimum,
                                         bounded01_relaxed_value])
def test_a_closed_form_names_mismatched_weights(closed_form):
    with pytest.raises(ValueError, match=r"^t and s must have the same shape, got \(2,\) "
                                         r"and \(3,\)$"):
        closed_form([0.6, 0.4], [0.2, 0.3, 0.5], 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("relax", ["scaled", "mix"])
def test_a_non_finite_relaxed_source_is_rejected(relax, bad):
    # hdh_imd takes the source already relaxed; a non-finite relaxation
    # fails, by its name, where the relaxed measure is built.
    s = DiscreteMeasure([[1.0, 0.0]], [1.0])
    name = "factor" if relax == "scaled" else "coeffs"
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
        s.scaled(1.0 + bad) if relax == "scaled" else mix(s, [s], [bad])


class TestHdhSupportBound:
    def test_identical_hypotheses(self, rng):
        pts = random_points(rng, 4)
        h = rng.integers(1, 3, size=(1, 4))
        fam = hdh_family(pts, np.vstack([h, h]))
        t = DiscreteMeasure(pts, dyadic_weights(rng, 4, normalize=True))
        s = DiscreteMeasure(pts, dyadic_weights(rng, 4, normalize=True))
        report = hdh_support_bound_check(t, s, fam)
        assert report.support_mask.all()
        assert report.support_mass_bound == pytest.approx(0.0)
        assert report.imd_zero_localized == pytest.approx(0.0)
        assert report.holds

    def test_random_instances(self, rng):
        passed, detail = checks.hdh_support_bound(rng, 50)
        assert passed, detail

    def test_matches_the_pairwise_scan(self, rng):
        # Weights are multiples of 2^-16 summing to exactly 1, so every sum
        # is exact in any order and the two must agree bit for bit.  S puts
        # no mass on some atoms and the smallest step 2^-16 on others, so that
        # some related pairs disagree only where S is empty or light.
        def exact_probability(on, light=0):
            counts = rng.multinomial((1 << 16) - np.sum(light), on / on.sum())
            return (counts + light) / (1 << 16)

        for case in range(60):
            n = int(rng.integers(1, 13))
            pts = random_points(rng, n)
            hyp = related_hypotheses(rng, int(rng.integers(1, 6)), n)
            if case % 3 == 0:
                hyp = hyp[rng.integers(0, len(hyp), size=len(hyp) + 2)]
            keep = rng.random(n) < 0.6
            keep[0] = True
            light = (~keep & (rng.random(n) < 0.5)).astype(int)
            t = DiscreteMeasure(pts, exact_probability(np.ones(n)))
            s = DiscreteMeasure(pts, exact_probability(keep.astype(float), light))
            fam = hdh_family(pts, hyp)
            report = hdh_support_bound_check(t, s, fam)
            lhs, rhs, support = pairwise_scan_support_bound(t, s, fam)
            assert report.imd_zero_localized == lhs
            assert report.support_mass_bound == rhs
            assert np.array_equal(report.support_mask, support)
            assert report.holds == (lhs <= rhs + 1e-12)

    def test_tight_when_family_contains_complement_indicator(self):
        # hypotheses disagreeing exactly off supp(S) make the bound an equality
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        s = DiscreteMeasure(pts, [1.0, 0.0, 0.0])
        t = DiscreteMeasure(pts, [0.25, 0.25, 0.5])
        hyp = np.array([[1, 1, 1], [1, 2, 2]])
        report = hdh_support_bound_check(t, s, hdh_family(pts, hyp))
        assert report.holds
        assert report.imd_zero_localized == pytest.approx(report.support_mass_bound)
