import numpy as np
import pytest
from scipy.spatial.distance import cdist

import imdot.families

from imdot import checks
from imdot.checks import (
    dyadic_weights,
    random_class_conditionals,
    random_points,
    related_hypotheses,
)
from imdot.families import (
    FamilyTooLargeError,
    InclusionReport,
    Localization,
    enumerate_members,
    global_localization,
    grid_family,
    ground_union,
    hdh_family,
    indicator_family,
    localization_inclusion_check,
    member_batches,
    per_class_localization,
    weights_on_ground,
)
from imdot.imd import imd_bruteforce
from imdot.measures import ROUNDING_TOL, DiscreteMeasure

TWO_POINTS = np.array([[0.0, 0.0], [1.0, 0.0]])


def pairwise_scan_ground_union(*point_sets, tol):
    """Reference: compare each row with every row kept before it."""
    stacked = np.vstack([np.atleast_2d(p) for p in point_sets if len(p)])
    kept = []
    for row in stacked:
        if not any(np.max(np.abs(row - prev)) <= tol for prev in kept):
            kept.append(row)
    return np.asarray(kept)


def nearest_point_weights(measure, ground):
    """Reference: each atom goes to its first nearest ground point
    (Chebyshev, through ``cdist``), weights accumulated in atom order."""
    dist = cdist(measure.points, ground, metric="chebyshev")
    idx = np.argmin(dist, axis=1)
    assert np.all(dist[np.arange(len(idx)), idx] <= ROUNDING_TOL)
    w = np.zeros(len(ground))
    np.add.at(w, idx, measure.weights)
    return w


def members(family, loc=None):
    return list(enumerate_members(family, loc))


def direct_expectation(measure, member, ground):
    """Reference: ``E_measure[member]``, summed atom by atom, each atom matched
    to its ground point by equal coordinates."""
    total = 0.0
    for point, weight in zip(measure.points, measure.weights):
        (j,) = np.flatnonzero(np.all(ground == point, axis=1))
        total += weight * member[j]
    return total


def direct_scan(family, conditionals, eps):
    """Reference: every member with ``(E_conditional_k[f])_k``, scanned one
    member at a time, and whether it meets every per-class cap ``eps``."""
    ground = family.ground_points
    rows = []
    for batch in member_batches(family):
        for f in batch:
            e = [direct_expectation(c, f, ground) for c in conditionals]
            capped = all(ek <= ck + ROUNDING_TOL for ek, ck in zip(e, eps))
            rows.append((f, e, capped))
    return rows


def per_class_instance(rng, family_of):
    """Points, a family on them and three classes: two from a random
    labelling and one empty, with proportion 0."""
    n = int(rng.integers(3, 7))
    pts = random_points(rng, n)
    conds, p = random_class_conditionals(rng, pts, 2)
    conds.append(DiscreteMeasure(np.empty((0, 2)), np.empty(0)))
    return pts, family_of(rng, pts), conds, np.append(p, 0.0)


FAMILIES = [
    lambda rng, pts: indicator_family(pts),
    lambda rng, pts: grid_family(pts, step=0.5),
    lambda rng, pts: hdh_family(pts, related_hypotheses(rng, 5, len(pts))),
]


class TestEnumeration:
    def test_power_set_on_two_points(self):
        out = members(indicator_family(TWO_POINTS))
        # Subset-mask order: bit j of the mask is the value at point j.
        assert np.array_equal(out, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_zero_localization_keeps_only_null(self):
        s = DiscreteMeasure(TWO_POINTS, [0.5, 0.5])
        out = members(indicator_family(TWO_POINTS),
                      global_localization(0.0, s))
        assert len(out) == 1 and not out[0].any()

    def test_identical_hypothesis_pair_gives_null_only(self):
        h = np.array([[1, 2]])
        fam = hdh_family(TWO_POINTS, np.vstack([h, h]))
        out = members(fam)
        assert all(not m.any() for m in out)

    def test_grid_member_count_and_values(self):
        fam = grid_family(TWO_POINTS, step=0.5)
        out = members(fam)
        assert len(out) == 9
        values = {v for m in out for v in m}
        assert values == {0.0, 0.5, 1.0}

    @pytest.mark.parametrize("step", [-0.25, -1.0, 0.0, 0.3, 1.5, np.inf, np.nan])
    def test_a_bad_grid_step_is_named(self, step):
        with pytest.raises(ValueError, match=r"grid_step must be in \(0, 1\] and divide "
                                             r"1 exactly, got "):
            grid_family(TWO_POINTS, step=step)

    @pytest.mark.parametrize("step", [True, "x"])
    def test_a_grid_step_that_is_no_number_is_named(self, step):
        with pytest.raises(ValueError, match=f"^grid_step must be a number, got {step!r}$"):
            grid_family(TWO_POINTS, step=step)

    def test_hdh_members_are_binary(self, rng):
        pts = random_points(rng, 5)
        fam = hdh_family(pts, rng.integers(1, 4, size=(6, 5)))
        for m in members(fam):
            assert set(np.unique(m)) <= {0.0, 1.0}

    def test_size_limits(self):
        big = np.zeros((23, 2))
        big[:, 0] = np.arange(23)
        with pytest.raises(FamilyTooLargeError):
            list(member_batches(indicator_family(big)))
        with pytest.raises(FamilyTooLargeError):
            list(member_batches(grid_family(big)))
        many = np.zeros((61, 4))
        with pytest.raises(FamilyTooLargeError):
            list(member_batches(hdh_family(np.zeros((4, 2)), many)))

    def test_monotone_in_eps(self, rng):
        pts = random_points(rng, 5)
        fam = indicator_family(pts)
        s = DiscreteMeasure(pts, dyadic_weights(rng, 5, normalize=True))
        sizes = [len(members(fam, global_localization(eps, s)))
                 for eps in (0.0, 0.2, 0.5, 1.0)]
        assert sizes == sorted(sizes)
        # and the smaller family is an actual subset
        small = {m.tobytes() for m in members(fam, global_localization(0.2, s))}
        large = {m.tobytes() for m in members(fam, global_localization(0.5, s))}
        assert small <= large


class TestGroundPlumbing:
    def test_ground_union_dedupes(self):
        g = ground_union(np.array([[0.0, 0.0], [1.0, 0.0]]),
                         np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert len(g) == 3

    def test_weights_accumulate_duplicates(self):
        m = DiscreteMeasure([[0.0, 0.0], [0.0, 0.0]], [0.25, 0.5])
        w = weights_on_ground(m, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(w, [0.75, 0.0])

    def test_off_ground_atom_raises(self):
        for points in ([[5.0, 5.0]], [[0.0, 0.0], [5.0, 5.0]]):
            m = DiscreteMeasure(points, np.full(len(points), 0.5))
            with pytest.raises(ValueError,
                               match=r"atom \[5\.0, 5\.0\] is not on the ground set"):
                weights_on_ground(m, TWO_POINTS)

    @staticmethod
    def cdist_calls(monkeypatch):
        """Count the distance matrices ``weights_on_ground`` builds."""
        calls = []
        def counted(*a, **k):
            calls.append(1)
            return cdist(*a, **k)
        monkeypatch.setattr(imdot.families, "cdist", counted)
        return calls

    def test_own_rows_are_matched_by_index(self, rng, monkeypatch):
        calls = self.cdist_calls(monkeypatch)
        for n in (1, 2, 7, 40):
            ground = random_points(rng, n)
            m = DiscreteMeasure(ground, rng.random(n))
            w = weights_on_ground(m, ground)
            assert w.tobytes() == nearest_point_weights(m, ground).tobytes()
            assert w.tobytes() == m.weights.tobytes()
        assert calls == []

    def test_a_repeated_ground_row_takes_the_first_copy(self, rng, monkeypatch):
        calls = self.cdist_calls(monkeypatch)
        base = random_points(rng, 4)
        ground = base[[0, 1, 2, 1, 3, 0, 1]]
        # -0.0 and 0.0 are one coordinate too
        signed = np.array([[0.0, 1.0], [0.5, 0.5], [-0.0, 1.0]])
        for g, kept in ((ground, [0, 1, 2, 4]), (signed, [0, 1])):
            m = DiscreteMeasure(g, rng.random(len(g)))
            w = weights_on_ground(m, g)
            assert w.tobytes() == nearest_point_weights(m, g).tobytes()
            assert np.array_equal(np.nonzero(w)[0], kept)
        assert calls == []

    def test_rows_within_the_rounding_tolerance_stay_apart(self, rng, monkeypatch):
        calls = self.cdist_calls(monkeypatch)
        tol = ROUNDING_TOL
        ground = np.array([[0.5, 0.5], [0.5 + tol, 0.5], [0.5, 0.5 - 0.4 * tol],
                           [0.5 + tol, 0.5]])
        m = DiscreteMeasure(ground, rng.random(4))
        w = weights_on_ground(m, ground)
        assert w.tobytes() == nearest_point_weights(m, ground).tobytes()
        assert w[3] == 0.0 and np.all(w[:3] > 0)
        assert calls == []

    def test_permuted_atoms_take_the_distance_path(self, rng, monkeypatch):
        calls = self.cdist_calls(monkeypatch)
        ground = random_points(rng, 9)
        ground[5] = ground[2]
        for perm in (rng.permutation(9), np.arange(9)[::-1], [0, 0, 3]):
            m = DiscreteMeasure(ground[perm], rng.random(len(perm)))
            w = weights_on_ground(m, ground)
            assert w.tobytes() == nearest_point_weights(m, ground).tobytes()
        assert len(calls) == 3

    def test_ground_union_matches_the_pairwise_scan(self, rng):
        # The rule: a row is dropped when it lies within tol (Chebyshev) of
        # an earlier kept row.  a~b and b~c with a, c apart keeps a and c.
        tol = ROUNDING_TOL
        chain = np.array([[0.0, 0.0], [0.6e-12, 0.0], [1.2e-12, 0.0]])
        edge = np.array([[0.5, 0.5], [0.5 + tol, 0.5 - tol], [0.5, 0.5 + 2 * tol]])
        cases = [(chain,), (chain[::-1],), (edge, chain), (TWO_POINTS, TWO_POINTS)]
        for _ in range(40):
            pool = random_points(rng, int(rng.integers(1, 6)))
            pts = pool[rng.integers(0, len(pool), int(rng.integers(1, 30)))]
            pts = pts + rng.integers(-2, 3, pts.shape) * rng.choice([0.0, 0.4e-12, tol])
            cases.append((pts[: len(pts) // 2], pts[len(pts) // 2:]))
        dropped = 0
        for case in cases:
            expected = pairwise_scan_ground_union(*case, tol=tol)
            assert np.array_equal(ground_union(*case), expected)
            dropped += sum(len(c) for c in case) - len(expected)
        assert len(ground_union(chain)) == 2
        assert dropped > len(cases)


class TestInclusionChecks:
    def test_zero_eps_inclusion(self, rng):
        pts = random_points(rng, 4)
        conds, p = random_class_conditionals(rng, pts, 2)
        report = localization_inclusion_check(
            indicator_family(pts), conds, p, np.zeros(2))
        assert report.per_class_in_global

    def test_uniform_p_three_points(self, rng):
        # global(0.1) sits inside per-class(0.2, 0.2) for p = (1/2, 1/2)
        pts = random_points(rng, 3)
        conds = [DiscreteMeasure(pts[:2], [0.5, 0.5]),
                 DiscreteMeasure(pts[2:], [1.0])]
        p = np.array([0.5, 0.5])
        report = localization_inclusion_check(
            indicator_family(pts), conds, p, np.array([0.1, 0.1]))
        assert report.ok

    def test_a_nan_per_class_eps_is_rejected_and_an_infinite_one_is_vacuous(self, rng):
        pts = random_points(rng, 3)
        conds = [DiscreteMeasure(pts[:2], [0.5, 0.5]), DiscreteMeasure(pts[2:], [1.0])]
        with pytest.raises(ValueError, match=r"^eps must be nonnegative, got \[nan, 0\.1\]$"):
            per_class_localization([np.nan, 0.1], conds)
        with pytest.raises(ValueError, match=r"^eps_vec must be nonnegative, got \[nan, 0\.1\]$"):
            localization_inclusion_check(indicator_family(pts), conds, np.array([0.5, 0.5]),
                                         np.array([np.nan, 0.1]))
        assert len(per_class_localization([np.inf, 0.1], conds).caps) == 1

    def test_an_infinite_eps_of_a_class_with_mass_makes_an_infinite_global_cap(self, rng):
        # p @ eps_vec is the global cap of direction 1, which must be finite.
        pts = random_points(rng, 3)
        conds = [DiscreteMeasure(pts[:2], [0.5, 0.5]), DiscreteMeasure(pts[2:], [1.0])]
        with pytest.raises(ValueError, match="cap 0 eps must be finite and nonnegative, got inf"):
            localization_inclusion_check(indicator_family(pts), conds, np.array([0.5, 0.5]),
                                         np.array([np.inf, 0.1]))

    def test_an_empty_class_adds_nothing_to_the_global_cap(self):
        # Class 2 has no mass, so its eps, finite or not, leaves the global
        # cap p @ eps_vec at 0.1.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        conds = [DiscreteMeasure(pts[:2], [0.5, 0.5]), DiscreteMeasure(pts[2:], [1.0])]
        reports = [localization_inclusion_check(grid_family(pts, step=1.0), conds,
                                                np.array([1.0, 0.0]), np.array([0.1, e]))
                   for e in (np.inf, 5.0)]
        assert reports[0] == reports[1] == InclusionReport(True, True, 2, 2, None)

    def test_degenerate_class_gets_infinite_eta(self, rng):
        pts = random_points(rng, 4)
        conds = [DiscreteMeasure(pts, np.full(4, 0.25)),
                 DiscreteMeasure(np.empty((0, 2)), np.empty(0))]
        p = np.array([1.0, 0.0])
        report = localization_inclusion_check(
            indicator_family(pts), conds, p, np.array([0.3, 0.0]))
        assert report.global_in_per_class

    def test_random_instances(self, rng):
        passed, detail = checks.localization_inclusions(rng, 30)
        assert passed, detail


@pytest.mark.parametrize("family_of", FAMILIES, ids=["indicator", "grid", "hdh"])
class TestPerClassScan:
    """The cap-matrix admission test against a direct per-member scan, under
    a per-class localization with an infinite component and an empty class."""

    def test_enumeration_and_bruteforce(self, rng, family_of):
        for _ in range(15):
            pts, fam, conds, _ = per_class_instance(rng, family_of)
            # class 1 is uncapped; the empty class 2 is capped at zero
            eps = np.array([rng.uniform(0, 0.6), np.inf, 0.0])
            admitted = [f for f, _, ok in direct_scan(fam, conds, eps) if ok]
            loc = per_class_localization(eps, conds)
            assert np.array_equal(members(fam, loc), admitted)

            # Dyadic weights make every value exact, so ties are exact too.
            n = len(pts)
            t = DiscreteMeasure(pts, dyadic_weights(rng, n))
            s = DiscreteMeasure(pts, dyadic_weights(rng, n))
            values = [direct_expectation(t, f, pts) - direct_expectation(s, f, pts)
                      for f in admitted]
            best = max(values)
            res = imd_bruteforce(t, s, fam, loc)
            assert res.value == best
            assert tuple(res.argmax_function) == min(
                tuple(f) for f, v in zip(admitted, values) if v == best)
            assert res.family_size_scanned == len(admitted)

    def test_inclusion_counts(self, rng, family_of):
        for _ in range(15):
            _, fam, conds, p = per_class_instance(rng, family_of)
            eps_vec = rng.uniform(0, 0.6, size=3)
            eps = float(p @ eps_vec)
            # eta of the empty class is infinite
            eta = np.where(p > 0, eps / np.where(p > 0, p, 1.0), np.inf)
            rows = direct_scan(fam, conds, eps_vec)
            in_pc = [ok for _, _, ok in rows]
            in_glob = [float(p @ e) <= eps + ROUNDING_TOL for _, e, _ in rows]
            in_pc_eta = [all(ek <= ck + ROUNDING_TOL for ek, ck in zip(e, eta))
                         for _, e, _ in rows]
            report = localization_inclusion_check(fam, conds, p, eps_vec)
            assert report.per_class_size == sum(in_pc)
            assert report.global_size == sum(in_glob)
            assert report.per_class_in_global == all(
                g for pc, g in zip(in_pc, in_glob) if pc)
            assert report.global_in_per_class == all(
                pe for g, pe in zip(in_glob, in_pc_eta) if g)


class TestLocalizationCaps:
    def test_negative_cap_is_named(self):
        m = DiscreteMeasure(TWO_POINTS, [0.5, 0.5])
        with pytest.raises(ValueError, match=r"cap 0 .*-1\.0"):
            imd_bruteforce(m, m, indicator_family(m.points), Localization(((m, -1.0),)))

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-12])
    def test_non_finite_or_negative_eps(self, eps):
        m = DiscreteMeasure(TWO_POINTS, [0.5, 0.5])
        with pytest.raises(ValueError, match="cap 1 eps must be finite and nonnegative"):
            Localization(((m, 0.1), (m, eps)))

    def test_cap_without_a_measure(self):
        with pytest.raises(ValueError, match="cap 0 has no DiscreteMeasure: ndarray"):
            Localization(((TWO_POINTS, 0.1),))

    def test_valid_caps(self):
        m = DiscreteMeasure(TWO_POINTS, [0.5, 0.5])
        assert Localization(((m, 0.0), (m, 2))).caps[1][1] == 2
