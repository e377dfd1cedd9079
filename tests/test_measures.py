import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdot.checks import random_points
from imdot.measures import (
    DiscreteMeasure,
    LabeledDataset,
    class_conditionals,
    cost_matrix,
    empirical_measure,
    load_dataset,
    mix,
    save_dataset,
)


def make_dataset(n, labels, k):
    rng = np.random.default_rng(0)
    return LabeledDataset(rng.normal(size=(n, 2)), labels, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_labeled_dataset_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="points must be finite"):
        LabeledDataset([[0.0, 0.0], [bad, 1.0]], [1, 2], 2)


def test_a_labeled_dataset_names_a_nan_label_before_any_cast():
    # A cast to int would warn first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^labels must be whole numbers, got \[nan, 2\.0\]$"):
            LabeledDataset([[0.0], [1.0]], [np.nan, 2], 2)


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0, 0]], [-0.1])
        with pytest.raises(ValueError):
            DiscreteMeasure([[0, 0], [1, 1]], [0.5])
        with pytest.raises(ValueError):
            DiscreteMeasure([[np.inf, 0]], [1.0])

    def test_immutability(self):
        m = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            m.weights[0] = 2.0

    def test_mass_and_support(self):
        m = DiscreteMeasure([[0, 0], [1, 0]], [0.3, 0.0])
        assert m.total_mass == 0.3
        assert not m.is_probability
        assert len(m.support_points()) == 1
        assert m.scaled(2.0).total_mass == pytest.approx(0.6)


class TestEmpiricalMeasure:
    def test_uniform_weights(self):
        ds = make_dataset(4, [1, 1, 2, 2], 2)
        m = empirical_measure(ds)
        assert np.all(m.weights == 0.25)

    def test_singleton(self):
        m = empirical_measure(make_dataset(1, [1], 1))
        assert m.weights[0] == 1.0

    def test_paper_sample_size(self):
        labels = np.ones(300, dtype=int)
        m = empirical_measure(make_dataset(300, labels, 1))
        assert np.allclose(m.weights, 1.0 / 300)
        assert abs(m.total_mass - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 7, 33, 301])
    def test_mass_one(self, n):
        m = empirical_measure(make_dataset(n, np.ones(n, dtype=int), 1))
        assert abs(m.total_mass - 1.0) <= 1e-12

    def test_empty_errors(self):
        ds = LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int), 2)
        with pytest.raises(ValueError):
            empirical_measure(ds)


class TestClassConditionals:
    def test_counting(self):
        ds = make_dataset(3, [1, 1, 2], 2)
        conds, p = class_conditionals(ds)
        assert np.allclose(p, [2 / 3, 1 / 3])
        assert np.allclose(conds[0].weights, [0.5, 0.5])
        assert conds[1].n_atoms == 1

    def test_degenerate_class(self):
        ds = make_dataset(3, [1, 1, 1], 2)
        conds, p = class_conditionals(ds)
        assert np.allclose(p, [1.0, 0.0])
        assert conds[1].n_atoms == 0 and conds[1].total_mass == 0.0

    def test_proportions_sum(self):
        ds = make_dataset(9, [1, 1, 2, 3, 3, 3, 2, 1, 2], 3)
        _, p = class_conditionals(ds)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_mix_with_beta_p_matches_global_scaling(self):
        # relaxing each class by beta * p_k reproduces (1 + beta) * S
        rng = np.random.default_rng(5)
        ds = LabeledDataset(rng.normal(size=(12, 2)),
                            rng.integers(1, 4, size=12), 3)
        conds, p = class_conditionals(ds)
        s = empirical_measure(ds)
        beta = 0.7
        relaxed = mix(s, conds, beta * p)
        # accumulate atom masses on the shared coordinates
        from imdot.families import ground_union, weights_on_ground
        ground = ground_union(s.points)
        merged = weights_on_ground(relaxed, ground)
        expected = (1 + beta) * weights_on_ground(s, ground)
        assert np.allclose(merged, expected, atol=1e-12)


class TestCostMatrix:
    def test_zero_diagonal(self):
        c = cost_matrix([[0.0, 0.0]], [[0.0, 0.0]])
        assert c.entries[0, 0] == 0.0

    def test_three_four_five(self):
        assert cost_matrix([[0, 0]], [[3, 4]]).entries[0, 0] == pytest.approx(5.0)

    def test_hand_euclidean(self):
        c = cost_matrix([[0, 0], [1, 0]], [[0, 1]])
        assert c.entries[0, 0] == pytest.approx(1.0)
        assert c.entries[1, 0] == pytest.approx(np.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cost_matrix([[0, 0]], [[1, 2, 3]])

    def test_symmetry_on_same_points(self, rng):
        pts = random_points(rng, 9)
        c = cost_matrix(pts, pts).entries
        assert np.max(np.abs(c - c.T)) <= 1e-12
        assert np.max(np.abs(np.diag(c))) <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, seed):
        pts = np.random.default_rng(seed).uniform(-5, 5, size=(6, 3))
        c = cost_matrix(pts, pts).entries
        n = len(pts)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert c[i, j] <= c[i, k] + c[k, j] + 1e-9


class TestMix:
    def test_zero_coeffs_is_base(self):
        base = DiscreteMeasure([[0, 0], [1, 1]], [0.8, 0.2])
        comp = DiscreteMeasure([[2, 2]], [1.0])
        out = mix(base, [comp], [0.0])
        assert np.array_equal(out.points, base.points)
        assert np.array_equal(out.weights, base.weights)

    def test_additivity(self):
        base = DiscreteMeasure([[0, 0]], [1.0])
        comp = DiscreteMeasure([[1, 1]], [1.0])
        assert mix(base, [comp], [0.5]).total_mass == pytest.approx(1.5)

    def test_weight_addition(self):
        # S with p = (0.8, 0.2) on atoms a, b; relaxing class 2 by 0.3
        base = DiscreteMeasure([[0, 0], [1, 0]], [0.8, 0.2])
        cond2 = DiscreteMeasure([[1, 0]], [1.0])
        out = mix(base, [DiscreteMeasure([[0, 0]], [1.0]), cond2], [0.0, 0.3])
        from imdot.families import ground_union, weights_on_ground
        merged = weights_on_ground(out, ground_union(base.points))
        assert np.allclose(merged, [0.8, 0.5], atol=1e-15)

    def test_negative_coefficient(self):
        base = DiscreteMeasure([[0, 0]], [1.0])
        with pytest.raises(ValueError):
            mix(base, [base], [-0.1])


class TestIo:
    def test_dataset_roundtrip(self, tmp_path):
        ds = make_dataset(5, [1, 2, 1, 2, 2], 2)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,label"
        back = load_dataset(path)
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("row, cause", [
        ("1.0,1", "2 fields, the header has 3"),
        ("1.0,2.0,1,9,9", "5 fields, the header has 3"),
        ("1.0,x,1", "non-numeric field"),
        ("1.0,2.0,one", "non-numeric field"),
        ("1.0,nan,1", "non-finite coordinate"),
        ("inf,2.0,1", "non-finite coordinate"),
        ("-inf,2.0,2", "non-finite coordinate"),
    ])
    def test_malformed_rows_name_the_file_and_line(self, tmp_path, row, cause):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,label\n0.5,0.5,1\n\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv, line 4: {cause}"):
            load_dataset(path)

    @pytest.mark.parametrize("text, cause", [
        ("", "expected a header of coordinate columns and a trailing 'label' column"),
        ("label\n1\n", "expected a header of coordinate columns and a trailing 'label' column"),
        ("x1,x2,label\n", "no data rows"),
        ("x1,x2,label\n0.5,0.5,0\n1.0,1.0,2\n", r"labels must lie in 1..2, got range \[0, 2\]"),
        ("x1,x2,label\n0.5,0.5,0\n", r"labels must lie in 1..1, got range \[0, 0\]"),
    ])
    def test_a_file_without_a_dataset_is_named(self, tmp_path, text, cause):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv: {cause}$"):
            load_dataset(path)

    def test_a_label_beyond_the_given_classes_is_named(self, tmp_path):
        path = tmp_path / "target.csv"
        path.write_text("x1,label\n0.5,1\n1.0,3\n")
        with pytest.raises(ValueError, match=r"target.csv: labels must lie in 1..2, "
                                             r"got range \[1, 3\]$"):
            load_dataset(path, n_classes=2)
        assert load_dataset(path).points.shape == (2, 1)
