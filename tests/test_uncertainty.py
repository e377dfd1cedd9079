import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdot import checks
from imdot.uncertainty import (
    cross_entropy_loss,
    hinge_uncertainty,
    hypothesis_risks,
    l1_label_loss,
    loss_pair_condition_holds,
    loss_satisfies_triangle,
    min_entropy_uncertainty,
    renyi_entropy,
    scaled_l1_loss,
    source_guided_uncertainty,
    verify_sgu_properties,
    zero_one_loss,
)


class TestEntropies:
    def test_one_hot_is_certain(self):
        assert min_entropy_uncertainty([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log_k(self):
        assert min_entropy_uncertainty([0.25] * 4) == pytest.approx(np.log(4))

    def test_direct_formula(self):
        assert min_entropy_uncertainty([0.7, 0.3]) == pytest.approx(
            0.356675, abs=1e-6)

    def test_renyi_uniform_any_alpha(self):
        for alpha in (0.0, 0.5, 1.0, 2.0, np.inf):
            assert renyi_entropy([0.2] * 5, alpha) == pytest.approx(np.log(5))

    def test_renyi_infinity_is_min_entropy(self):
        v = [0.6, 0.3, 0.1]
        assert renyi_entropy(v, np.inf) == min_entropy_uncertainty(v)

    def test_renyi_two(self):
        assert renyi_entropy([0.7, 0.3], 2.0) == pytest.approx(
            -np.log(0.58), abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            min_entropy_uncertainty([0.7, 0.7])
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.5], -1.0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_min_entropy_below_renyi(self, seed):
        passed, detail = checks.entropy_ordering(np.random.default_rng(seed), 1)
        assert passed, detail


class TestHinge:
    @pytest.mark.parametrize("margin,expected", [
        (1.5, 0.0), (0.0, 1.0), (0.4, 0.6), (-0.4, 0.6), (-2.0, 0.0),
    ])
    def test_values(self, margin, expected):
        assert hinge_uncertainty(margin) == pytest.approx(expected)


class TestLosses:
    def test_triangle_checks(self):
        assert loss_satisfies_triangle(zero_one_loss, 4)
        assert loss_satisfies_triangle(l1_label_loss, 4)
        broken = lambda a, b: 0.0 if a == b else (5.0 if (a, b) == (1, 3) else 1.0)
        assert not loss_satisfies_triangle(broken, 3)

    def test_cross_entropy_clipping(self):
        assert cross_entropy_loss([1.0, 0.0], 2) == pytest.approx(-np.log(1e-12))

    def test_cross_entropy_l1_pair_condition(self, rng):
        r_bound = 2.0
        k = 3
        logits = rng.uniform(-r_bound, r_bound, size=(50, k))
        scores = np.exp(logits)
        scores /= scores.sum(axis=1, keepdims=True)
        assert loss_pair_condition_holds(
            cross_entropy_loss, scaled_l1_loss(r_bound, k), scores, k)
        # an unscaled L1 partner is too weak for the same scores
        wild = np.exp(np.array([[8.0, -8.0, 0.0]]))
        wild /= wild.sum()
        assert not loss_pair_condition_holds(
            cross_entropy_loss, l1_label_loss, wild, k)


class TestSourceGuidedUncertainty:
    def test_singleton_scan(self, rng):
        # H = {h_g}: the value is exactly R_T(g, h_g) + R_S(h_g)
        n_t, n_s = 6, 5
        g = rng.integers(1, 3, size=n_t)
        hyp_t = g.reshape(1, -1)
        hyp_s = rng.integers(1, 3, size=(1, n_s))
        y_s = rng.integers(1, 3, size=n_s)
        value, best = source_guided_uncertainty(g, hyp_t, hyp_s, y_s)
        risks = hypothesis_risks(g, hyp_t, hyp_s, y_s)
        assert best == 0
        assert value == pytest.approx(risks.target[0] + risks.source[0])
        assert risks.target[0] == 0.0  # g agrees with itself

    def test_upper_bounded_by_source_risk(self, rng):
        # for a classifier g in H, U_H(g) <= R_S(g)
        for _ in range(20):
            m, n_t, n_s = 5, 6, 6
            hyp_t = rng.integers(1, 4, size=(m, n_t))
            hyp_s = rng.integers(1, 4, size=(m, n_s))
            y_s = rng.integers(1, 4, size=n_s)
            risks = hypothesis_risks(hyp_t[0], hyp_t, hyp_s, y_s)
            value, _ = source_guided_uncertainty(hyp_t[0], hyp_t, hyp_s, y_s)
            assert value <= risks.source[0] + 1e-12

    def test_matches_independent_scan(self, rng):
        m, n_t, n_s = 5, 4, 7
        g = rng.integers(1, 3, size=n_t)
        hyp_t = rng.integers(1, 3, size=(m, n_t))
        hyp_s = rng.integers(1, 3, size=(m, n_s))
        y_s = rng.integers(1, 3, size=n_s)
        value, best = source_guided_uncertainty(g, hyp_t, hyp_s, y_s)
        # independent duplicate scan with explicit loops
        totals = []
        for h in range(m):
            r_t = sum(g[i] != hyp_t[h][i] for i in range(n_t)) / n_t
            r_s = sum(hyp_s[h][i] != y_s[i] for i in range(n_s)) / n_s
            totals.append(r_t + r_s)
        assert value == pytest.approx(min(totals))
        assert best == int(np.argmin(totals))

    def test_tie_breaks_to_smallest_index(self):
        g = np.array([1, 1])
        hyp_t = np.array([[1, 1], [1, 1]])
        hyp_s = np.array([[1], [1]])
        _, best = source_guided_uncertainty(g, hyp_t, hyp_s, np.array([1]))
        assert best == 0

    def test_empty_hypothesis_list(self):
        with pytest.raises(ValueError):
            source_guided_uncertainty(np.array([1]), np.empty((0, 1), dtype=int),
                                      np.empty((0, 1), dtype=int), np.array([1]))


class TestSguProperties:
    def _instance(self, rng, m=4, extra=3, n_t=6, n_s=6, k=3):
        tilde_t = rng.integers(1, k + 1, size=(m + extra, n_t))
        tilde_s = rng.integers(1, k + 1, size=(m + extra, n_s))
        y_s = rng.integers(1, k + 1, size=n_s)
        y_t = rng.integers(1, k + 1, size=n_t)
        return tilde_t, tilde_s, y_s, y_t, k, m

    def test_all_points_hold(self, rng):
        passed, detail = checks.sgu_properties(rng, 30)
        assert passed, detail

    def test_tilde_equal_h(self, rng):
        tilde_t, tilde_s, y_s, y_t, k, m = self._instance(rng, extra=0)
        report = verify_sgu_properties(tilde_t, tilde_s, y_s, y_t,
                                       tilde_t, tilde_s, k)
        assert report.point2_ok

    def test_best_source_hypothesis_equality(self, rng):
        # U_H(h_S) equals R_S(h_S) exactly
        tilde_t, tilde_s, y_s, y_t, k, m = self._instance(rng)
        report = verify_sgu_properties(tilde_t[:m], tilde_s[:m], y_s, y_t,
                                       tilde_t, tilde_s, k)
        u_hs, r_hs = report.point3_values[0]
        assert u_hs == pytest.approx(r_hs, abs=1e-12)

    def test_rejects_non_triangle_loss(self, rng):
        tilde_t, tilde_s, y_s, y_t, k, m = self._instance(rng)
        bad = lambda a, b: 0.0 if a == b else (9.0 if (a, b) == (1, 2) else 1.0)
        with pytest.raises(ValueError):
            verify_sgu_properties(tilde_t[:m], tilde_s[:m], y_s, y_t,
                                  tilde_t, tilde_s, k, loss=bad)

    def test_rejects_non_superset(self, rng):
        tilde_t, tilde_s, y_s, y_t, k, m = self._instance(rng)
        with pytest.raises(ValueError):
            verify_sgu_properties(np.full((1, 6), 1), np.full((1, 6), 1),
                                  y_s, y_t, tilde_t + 10, tilde_s, k)

    def test_monotone_in_hypothesis_class(self, rng):
        passed, detail = checks.sgu_monotone_in_hypotheses(rng, 20)
        assert passed, detail
