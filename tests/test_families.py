import numpy as np
import pytest

from imdot import checks
from imdot.checks import dyadic_weights, random_class_conditionals, random_points
from imdot.families import (
    FamilyTooLargeError,
    enumerate_members,
    global_localization,
    grid_family,
    ground_union,
    hdh_family,
    indicator_family,
    localization_inclusion_check,
    member_batches,
    no_localization,
    per_class_localization,
    weights_on_ground,
)
from imdot.measures import DiscreteMeasure

TWO_POINTS = np.array([[0.0, 0.0], [1.0, 0.0]])


def pairwise_scan_ground_union(*point_sets, tol):
    """Reference: compare each row with every row kept before it."""
    stacked = np.vstack([np.atleast_2d(p) for p in point_sets if len(p)])
    kept = []
    for row in stacked:
        if not any(np.max(np.abs(row - prev)) <= tol for prev in kept):
            kept.append(row)
    return np.asarray(kept)


def members(family, loc=None):
    return list(enumerate_members(family, loc))


class TestEnumeration:
    def test_power_set_on_two_points(self):
        out = members(indicator_family(TWO_POINTS))
        assert len(out) == 4
        assert np.array_equal(out[0], [0.0, 0.0])  # null function first

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
        m = DiscreteMeasure([[5.0, 5.0]], [1.0])
        with pytest.raises(ValueError):
            weights_on_ground(m, TWO_POINTS)

    def test_ground_union_matches_the_pairwise_scan(self, rng):
        # The rule: a row is dropped when it lies within tol (Chebyshev) of
        # an earlier kept row.  a~b and b~c with a, c apart keeps a and c.
        tol = 1e-12
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
            assert np.array_equal(ground_union(*case, tol=tol), expected)
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
            indicator_family(pts), conds, p, np.array([0.1, 0.1]), eps=0.1)
        assert report.ok

    def test_degenerate_class_gets_infinite_eta(self, rng):
        pts = random_points(rng, 4)
        conds = [DiscreteMeasure(pts, np.full(4, 0.25)),
                 DiscreteMeasure(np.empty((0, 2)), np.empty(0))]
        p = np.array([1.0, 0.0])
        report = localization_inclusion_check(
            indicator_family(pts), conds, p, np.array([0.3, 0.0]), eps=0.3)
        assert report.global_in_per_class

    def test_random_instances(self, rng):
        passed, detail = checks.localization_inclusions(rng, 30)
        assert passed, detail
