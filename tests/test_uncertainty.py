import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imdot.uncertainty
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
        # True would be the order 1.
        with pytest.raises(ValueError, match="^alpha must be a number, got True$"):
            renyi_entropy([0.5, 0.5], True)

    @pytest.mark.parametrize("score", [[np.nan, 0.5], [0.5, 0.5, np.nan],
                                       [np.inf, 0.5], [np.inf, -np.inf]])
    def test_non_finite_scores_are_named(self, score):
        with pytest.raises(ValueError, match="score must be finite"):
            min_entropy_uncertainty(score)
        with pytest.raises(ValueError, match="score must be finite"):
            renyi_entropy(score, 2.0)

    def test_nan_order_is_named(self):
        with pytest.raises(ValueError, match="alpha must be nonnegative, got nan"):
            renyi_entropy([0.5, 0.5], np.nan)

    def test_values_are_python_floats(self):
        v = [0.5, 0.25, 0.25, 0.0]
        assert type(min_entropy_uncertainty(v)) is float
        for alpha in (0.0, 0.5, 1.0, 2.0, np.inf):
            assert type(renyi_entropy(v, alpha)) is float

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_min_entropy_below_renyi(self, seed):
        passed, detail = checks.entropy_ordering(np.random.default_rng(seed), 1)
        assert passed, detail


def padded_simplex_rows(rng, n_rows, width=7):
    """Dirichlet rows of 1..width entries, zero-padded, with a one-hot row,
    a uniform row and rows with zeros between their positive entries."""
    rows = np.zeros((n_rows, width))
    for row in rows:
        k = int(rng.integers(1, width + 1))
        row[:k] = rng.dirichlet(np.ones(k))
    rows[0, :] = 0.0
    rows[0, width // 2] = 1.0
    rows[1, :] = 1.0 / width
    rows[2:40, 1::2] = 0.0
    rows[2:40] /= rows[2:40].sum(axis=1, keepdims=True)
    return rows


class TestBatchEntropies:
    @pytest.mark.parametrize("alpha", (0.0,) + checks.RENYI_ALPHAS)
    def test_rows_match_the_scalar_calls(self, rng, alpha):
        rows = padded_simplex_rows(rng, 2000)
        batch = renyi_entropy(rows, alpha)
        scalar = np.array([renyi_entropy(row, alpha) for row in rows])
        assert batch.shape == (len(rows),)
        assert np.all(np.abs(batch - scalar) <= 4 * np.spacing(np.abs(scalar)))

    def test_min_entropy_rows_match_the_scalar_calls(self, rng):
        rows = padded_simplex_rows(rng, 2000)
        batch = min_entropy_uncertainty(rows)
        scalar = np.array([min_entropy_uncertainty(row) for row in rows])
        assert np.all(np.abs(batch - scalar) <= 4 * np.spacing(np.abs(scalar)))
        assert np.array_equal(renyi_entropy(rows, np.inf), batch)

    @pytest.mark.parametrize("bad_row", [[0.7, 0.7, 0.0], [0.5, np.nan, 0.5],
                                         [1.5, -0.5, 0.0], [np.inf, 0.0, 0.0]])
    def test_a_bad_row_is_named(self, rng, bad_row):
        rows = padded_simplex_rows(rng, 12, width=3)
        rows[9] = bad_row
        rows[11] = bad_row
        with pytest.raises(ValueError, match=r"score must be finite .* got row 9: "):
            min_entropy_uncertainty(rows)
        for alpha in (0.0, 1.0, 2.0, np.inf):
            with pytest.raises(ValueError, match=r"got row 9: "):
                renyi_entropy(rows, alpha)

    def test_batch_shapes(self):
        assert renyi_entropy(np.zeros((0, 3)), 2.0).shape == (0,)
        with pytest.raises(ValueError, match="score must be a nonempty 1-d array, or a batch "
                                             "of nonempty rows"):
            min_entropy_uncertainty(np.zeros((3, 0)))
        for score in ([], np.full((2, 2, 2), 0.25)):
            with pytest.raises(ValueError, match="score must be a nonempty 1-d array"):
                renyi_entropy(score, 2.0)

    @pytest.mark.parametrize("seed", range(7000, 7010))
    def test_entropy_ordering_matches_a_scalar_loop(self, seed):
        def scalar_entropy_ordering(rng, instances):
            bad = 0
            for _ in range(instances):
                v = rng.dirichlet(np.ones(int(rng.integers(2, 8))))
                h_inf = min_entropy_uncertainty(v)
                bad += sum(h_inf > renyi_entropy(v, alpha) + 1e-12
                           for alpha in checks.RENYI_ALPHAS)
            return bad == 0, f"{bad} violations over {instances} simplex vectors"

        batch_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (checks.entropy_ordering(batch_rng, 2000)
                == scalar_entropy_ordering(scalar_rng, 2000))
        # both leave the generator in the same state for the cases after them
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


class TestHinge:
    @pytest.mark.parametrize("margin,expected", [
        (1.5, 0.0), (0.0, 1.0), (0.4, 0.6), (-0.4, 0.6), (-2.0, 0.0),
    ])
    def test_values(self, margin, expected):
        assert hinge_uncertainty(margin) == pytest.approx(expected)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf])
    def test_non_finite_margin_is_named(self, margin):
        with pytest.raises(ValueError, match="margin must be finite"):
            hinge_uncertainty(margin)


class TestLosses:
    def test_triangle_checks(self):
        assert loss_satisfies_triangle(zero_one_loss, 4)
        assert loss_satisfies_triangle(l1_label_loss, 4)
        broken = lambda a, b: 0.0 if a == b else (5.0 if (a, b) == (1, 3) else 1.0)
        assert not loss_satisfies_triangle(broken, 3)

    def test_cross_entropy_clipping(self):
        assert cross_entropy_loss([1.0, 0.0], 2) == pytest.approx(-np.log(1e-12))

    @pytest.mark.parametrize("label", [0, 3, -1, 1.5])
    def test_cross_entropy_label_outside_the_classes_is_named(self, label):
        with pytest.raises(ValueError, match=rf"^label must (lie in 1\.\.2|be a whole number), "
                                             rf"got {label}$"):
            cross_entropy_loss([0.2, 0.8], label)

    def test_cross_entropy_takes_integer_valued_labels(self):
        for label in (2, 2.0, np.int64(2)):
            assert cross_entropy_loss([0.2, 0.8], label) == -np.log(0.8)

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

    def test_a_length_mismatch_is_named(self):
        with pytest.raises(ValueError, match="hypothesis 0 has 3 labels on the "
                                             "source sample of 2 points"):
            source_guided_uncertainty([1, 2], [[1, 2]], [[1, 1, 1]], [1, 2])
        with pytest.raises(ValueError, match="hypothesis 0 has 2 labels on the "
                                             "target sample of 3 points"):
            hypothesis_risks([1, 2, 1], [[1, 2], [2, 2]], [[1], [2]], [1])

    def test_a_ragged_hypothesis_list_names_the_short_row(self):
        # The rows are checked before any array is made of them, so the
        # error names hypothesis 1 instead of NumPy's inhomogeneous shape.
        message = "hypothesis 1 has 1 labels on the source sample of 2 points"
        with pytest.raises(ValueError, match=message):
            hypothesis_risks([1], [[1], [2]], [[1, 2], [1]], [1, 2])
        with pytest.raises(ValueError, match=message):
            source_guided_uncertainty([1], [[1], [2]], [[1, 2], [1]], [1, 2])
        with pytest.raises(ValueError, match="hypothesis 1 has 2 labels on the "
                                             "target sample of 1 points"):
            source_guided_uncertainty([1], [[1], [2, 1]], [[1], [1]], [1])


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

    def test_each_scorer_of_the_pool_is_scored_once(self, rng, monkeypatch):
        tilde_t, tilde_s, y_s, y_t, k, m = self._instance(rng)
        expected = verify_sgu_properties(tilde_t[:m], tilde_s[:m], y_s, y_t,
                                         tilde_t, tilde_s, k)
        scored = []

        def counted(g, *rest):
            scored.append(tuple(g))
            return source_guided_uncertainty(g, *rest)

        monkeypatch.setattr(imdot.uncertainty, "source_guided_uncertainty", counted)
        report = verify_sgu_properties(tilde_t[:m], tilde_s[:m], y_s, y_t,
                                       tilde_t, tilde_s, k)
        assert scored == [tuple(g) for g in tilde_t]
        assert report == expected

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

    def test_rejects_a_non_superset_of_labels_in_range(self, rng):
        # Labels in 1..k, so that the superset rule, not the label range, rejects it.
        tilde_t, tilde_s, y_s, y_t, k, m = self._instance(rng)
        with pytest.raises(ValueError, match="^the hypothesis class is not contained in "
                                             "its superset$"):
            verify_sgu_properties(tilde_t[:m], tilde_s[:m], y_s, y_t,
                                  tilde_t[m:], tilde_s[m:], k)

    @pytest.mark.parametrize("change, named", [
        ({"target_labels": [1]}, "^hyp_target rows have 2 labels where target_labels has 1$"),
        ({"source_labels": [1, 2, 1]},
         "^hyp_source rows have 2 labels where source_labels has 3$"),
        ({"hyp_source": [[1, 1]]}, "^hyp_target has 2 rows where hyp_source has 1$"),
    ], ids=["target_labels", "source_labels", "rows"])
    def test_mismatched_shapes_are_named(self, change, named):
        args = {"hyp_target": [[1, 2], [2, 2]], "hyp_source": [[1, 1], [2, 1]],
                "source_labels": [1, 2], "target_labels": [1, 2],
                "tilde_target": [[1, 2], [2, 2], [1, 1]],
                "tilde_source": [[1, 1], [2, 1], [2, 2]], "n_classes": 2}
        with pytest.raises(ValueError, match=named):
            verify_sgu_properties(**{**args, **change})

    def test_monotone_in_hypothesis_class(self, rng):
        passed, detail = checks.sgu_monotone_in_hypotheses(rng, 20)
        assert passed, detail
