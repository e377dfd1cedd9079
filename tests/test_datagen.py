import numpy as np
import pytest

from imdot.datagen import (
    ToyConfig,
    class_centers,
    draw_seeds,
    generate_pair,
    shared_atom_label_shift,
    source_proportions,
)
from imdot.families import indicator_family
from imdot.imd import imd_bruteforce
from imdot.measures import cost_matrix


class TestClassCenters:
    def test_single_class(self):
        assert np.allclose(class_centers(1), [[0.0, 1.0]], atol=1e-15)

    def test_quarter_turns(self):
        expected = [[0, 1], [-1, 0], [0, -1], [1, 0]]
        assert np.allclose(class_centers(4), expected, atol=1e-12)

    def test_three_classes(self):
        expected = [[0, 1], [-np.sqrt(3) / 2, -0.5], [np.sqrt(3) / 2, -0.5]]
        assert np.allclose(class_centers(3), expected, atol=1e-12)

    def test_unit_radius(self):
        assert np.allclose(np.linalg.norm(class_centers(7), axis=1), 1.0)

    @pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, True])
    def test_a_class_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValueError, match=f"^n_classes must be a positive integer, "
                                             f"got {count!r}$"):
            class_centers(count)


class TestSourceProportions:
    def test_eta_zero_uniform(self):
        assert np.allclose(source_proportions(5, 0.0), 0.2)

    def test_eta_log_two(self):
        assert np.allclose(source_proportions(2, np.log(2)), [1 / 3, 2 / 3])

    def test_exponential_weights(self):
        expected = np.exp([1.0, 2.0, 3.0])
        expected /= expected.sum()
        assert np.allclose(source_proportions(3, 1.0), expected, atol=1e-15)
        assert np.allclose(source_proportions(3, 1.0),
                           [0.0900, 0.2447, 0.6652], atol=5e-5)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, -0.5])
    def test_eta_must_be_finite_and_nonnegative(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and nonnegative"):
            source_proportions(3, eta)

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_a_class_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValueError, match=f"^n_classes must be a positive integer, "
                                             f"got {count!r}$"):
            source_proportions(count, 1.0)


class TestGeneratePair:
    CFG = ToyConfig(n_classes=3, n_source=120, n_target=90, seed=42)

    def test_bit_reproducible(self):
        s1, t1 = generate_pair(self.CFG)
        s2, t2 = generate_pair(self.CFG)
        assert np.array_equal(s1.points, s2.points)
        assert np.array_equal(s1.labels, s2.labels)
        assert np.array_equal(t1.points, t2.points)
        assert np.array_equal(t1.labels, t2.labels)

    def test_target_counts_are_sorted_descending(self):
        _, target = generate_pair(self.CFG)
        counts = target.class_counts()
        assert np.all(np.diff(counts) <= 0)  # class 1 largest
        assert counts.sum() == self.CFG.n_target

    def test_target_proportions_sort_source(self):
        p = source_proportions(3, 1.0)
        q = np.sort(p)[::-1]
        _, target = generate_pair(ToyConfig(n_classes=3, n_source=100,
                                            n_target=10000, seed=0))
        assert np.allclose(target.class_proportions(), q, atol=1e-4)

    def test_eta_zero_balanced(self):
        cfg = ToyConfig(n_classes=4, n_source=200, n_target=200,
                        eta=0.0, seed=3)
        _, target = generate_pair(cfg)
        assert np.all(target.class_counts() == 50)

    def test_theta_zero_shares_the_mixture(self):
        cfg = ToyConfig(n_classes=3, n_source=2000, n_target=2000,
                        theta_degrees=0.0, seed=9)
        source, target = generate_pair(cfg)
        centers = class_centers(3)
        for k in range(1, 4):
            for ds in (source, target):
                pts = ds.points[ds.labels == k]
                assert np.linalg.norm(pts.mean(axis=0) - centers[k - 1]) < 0.1

    def test_theta_ninety_rotates_only_the_target_classes(self):
        # A quarter turn counter-clockwise takes the centre (x, y) to (-y, x).
        cfg = ToyConfig(n_classes=3, n_source=2000, n_target=2000,
                        theta_degrees=90.0, seed=9)
        source, target = generate_pair(cfg)
        centers = class_centers(3)
        turned = np.column_stack([-centers[:, 1], centers[:, 0]])
        for k in range(1, 4):
            source_mean = source.points[source.labels == k].mean(axis=0)
            target_mean = target.points[target.labels == k].mean(axis=0)
            assert np.linalg.norm(source_mean - centers[k - 1]) < 0.1
            assert np.linalg.norm(target_mean - turned[k - 1]) < 0.1

    def test_rotation_preserves_distances(self):
        from imdot.datagen import _rotation
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 2))
        rotated = pts @ _rotation(np.deg2rad(30.0)).T
        d0 = cost_matrix(pts, pts).entries
        d30 = cost_matrix(rotated, rotated).entries
        assert np.max(np.abs(d0 - d30)) <= 1e-9

    def test_empirical_proportions_near_p(self):
        cfg = ToyConfig(n_classes=3, n_source=3000, n_target=3000, seed=17)
        source, _ = generate_pair(cfg)
        p = source_proportions(3, 1.0)
        assert np.max(np.abs(source.class_proportions() - p)) <= 0.05

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ToyConfig(n_classes=1)
        with pytest.raises(ValueError):
            ToyConfig(n_classes=3, n_source=2)
        with pytest.raises(ValueError):
            ToyConfig(sigma=0.0)
        with pytest.raises(ValueError):
            ToyConfig(eta=-0.5)
        # A bool is no number: to_dict() would write it to the sidecars as true.
        for field, rule in (("seed", "a nonnegative integer"), ("sigma", "a number"),
                            ("theta_degrees", "a number")):
            with pytest.raises(ValueError, match=f"^{field} must be {rule}, got True$"):
                ToyConfig(**{field: True})

    @pytest.mark.parametrize("field", ["n_classes", "n_source", "n_target"])
    def test_a_fractional_count_is_named(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 30.5$"):
            ToyConfig(**{"n_classes": 3, "n_source": 40, "n_target": 40, field: 30.5})

    def test_non_finite_parameters_are_named(self):
        for field in ("sigma", "eta", "theta_degrees"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    ToyConfig(**{field: bad})

    def test_draw_seeds_deterministic(self):
        assert np.array_equal(draw_seeds(7, 10), draw_seeds(7, 10))
        assert not np.array_equal(draw_seeds(7, 10), draw_seeds(8, 10))


class TestSharedAtomLabelShift:
    ATOMS = [[[0.0, 0.0]], [[1.0, 0.0]]]

    def test_no_shift_gives_zero_imd(self):
        source, _, target = shared_atom_label_shift(
            self.ATOMS, [0.6, 0.4], [0.6, 0.4])
        fam = indicator_family(source.points)
        assert imd_bruteforce(target, source, fam).value == 0.0

    def test_threshold_formulas(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.5, 0.5])
        per_class = np.maximum(q - p, 0.0)
        global_beta = np.max(np.maximum(q / p - 1.0, 0.0))
        assert per_class[1] == pytest.approx(0.3)
        assert global_beta == pytest.approx(1.5)

    def test_permuted_proportions_thresholds_sum_below_one(self):
        p = np.array([0.1, 0.3, 0.6])
        q = p[::-1].copy()
        thresholds = np.maximum(q - p, 0.0)
        assert thresholds.sum() <= 1.0
        source, conds, target = shared_atom_label_shift(
            [[[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]], p, q)
        assert source.total_mass == pytest.approx(1.0)
        assert target.total_mass == pytest.approx(1.0)
        assert np.array_equal(source.points, target.points)

    def test_overlapping_atoms_rejected(self):
        with pytest.raises(ValueError):
            shared_atom_label_shift([[[0.0, 0.0]], [[0.0, 0.0]]],
                                    [0.5, 0.5], [0.5, 0.5])

    def test_invalid_proportions(self):
        with pytest.raises(ValueError):
            shared_atom_label_shift(self.ATOMS, [0.7, 0.7], [0.5, 0.5])

    @pytest.mark.parametrize("name", ["p", "q"])
    def test_nan_proportions_are_named(self, name):
        vectors = {"p": [0.5, 0.5], "q": [0.5, 0.5], name: [np.nan, 0.5]}
        with pytest.raises(ValueError, match=f"^{name} must be finite and lie on the probability simplex"):
            shared_atom_label_shift(self.ATOMS, vectors["p"], vectors["q"])
