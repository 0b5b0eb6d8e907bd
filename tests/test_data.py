"""CSV loading, scaling, and stratified fold construction."""

import numpy as np
import pytest

from conftest import make_dataset, random_dataset, write_csv
from ffsel import DataError, Dataset, load_csv, make_folds, standard_scale


class TestLoadCsv:
    """Parsing, label-column resolution, and rejection of bad input."""

    def test_string_labels_encoded_by_first_appearance(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("x,y,label\n1.0,2.0,b\n3.0,4.0,a\n5.0,6.0,b\n")
        d = load_csv(p)
        assert d.n_rows == 3
        assert d.n_cols == 2
        assert d.n_classes == 2
        # "b" appears first so it becomes class 0
        assert list(d.labels) == [0, 1, 0]
        assert tuple(d.class_names) == ("b", "a")
        assert tuple(d.feature_names) == ("x", "y")

    def test_label_column_by_name_and_by_index(self, tmp_path):
        p = tmp_path / "named.csv"
        p.write_text("lab,u,v\na,1.0,2.0\nb,3.0,4.0\n")
        by_name = load_csv(p, label_column="lab")
        by_index = load_csv(p, label_column=0)
        assert tuple(by_name.feature_names) == ("u", "v")
        np.testing.assert_array_equal(by_name.features, by_index.features)
        np.testing.assert_array_equal(by_name.labels, by_index.labels)

    def test_default_label_is_last_column(self, tmp_path):
        rng = np.random.default_rng(0)
        p = write_csv(tmp_path / "gen.csv", rng.normal(size=(8, 3)),
                      [0, 1, 0, 1, 0, 1, 0, 1])
        d = load_csv(p)
        assert d.n_cols == 3
        assert d.n_classes == 2

    def test_values_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        p = write_csv(tmp_path / "rt.csv", x, [0, 0, 1, 1, 1])
        d = load_csv(p)
        np.testing.assert_array_equal(d.features, x)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises((DataError, OSError)):
            load_csv(tmp_path / "absent.csv")

    def test_non_numeric_feature_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,label\n1.0,a\noops,b\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_nan_cell_rejected_with_location(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("x,y,label\n1.0,2.0,a\n3.0,NaN,b\n")
        with pytest.raises(DataError) as err:
            load_csv(p)
        msg = str(err.value).lower()
        assert "nan" in msg or "row" in msg

    def test_unknown_label_column_rejected(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("x,label\n1.0,a\n2.0,b\n")
        with pytest.raises(DataError):
            load_csv(p, label_column="nope")

    @pytest.mark.parametrize("name", ["--1", "\u00b2"])
    def test_digit_like_strings_int_rejects_are_header_names(self, tmp_path, name):
        # A superscript two is a digit but not a decimal, and "--1" is no number.
        p = tmp_path / "lab.csv"
        p.write_text("x,label\n1.0,a\n2.0,b\n")
        with pytest.raises(DataError, match="no column named"):
            load_csv(p, label_column=name)


class TestDataset:
    """Container invariants and accessors."""

    def test_shape_accessors(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, 12, 5, n_classes=3)
        assert d.n_rows == 12
        assert d.n_cols == 5
        assert d.n_classes == 3

    def test_labels_must_cover_every_class(self):
        x = np.zeros((4, 2))
        with pytest.raises((ValueError, DataError)):
            # class 1 missing
            Dataset("bad", x, ("a", "b"), np.array([0, 0, 2, 2]),
                    ("c0", "c1", "c2"))

    def test_row_count_mismatch_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises((ValueError, DataError)):
            Dataset("bad", x, ("a", "b"), np.array([0, 1, 0]), ("c0", "c1"))


class TestStandardScale:
    """Per-column z-scoring with the population standard deviation."""

    def test_analytic_column(self):
        d = make_dataset(np.array([[1.0], [2.0], [3.0]]), [0, 1, 0])
        s = standard_scale(d)
        expect = np.array([-1.0, 0.0, 1.0]) * np.sqrt(3.0 / 2.0)
        np.testing.assert_allclose(s.features[:, 0], expect, atol=1e-12)

    def test_constant_column_maps_to_zeros(self):
        d = make_dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                         [0, 1, 0])
        s = standard_scale(d)
        np.testing.assert_array_equal(s.features[:, 0], np.zeros(3))

    def test_moments_after_scaling(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 40, 6)
        s = standard_scale(d)
        np.testing.assert_allclose(s.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(s.features.std(axis=0), 1.0, atol=1e-12)

    def test_original_untouched_and_metadata_kept(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, 10, 3)
        before = d.features.copy()
        s = standard_scale(d)
        np.testing.assert_array_equal(d.features, before)
        assert tuple(s.feature_names) == tuple(d.feature_names)
        np.testing.assert_array_equal(s.labels, d.labels)


class TestMakeFolds:
    """Stratified, seeded, near-equal fold assignment."""

    def test_exact_stratification_on_balanced_toy(self):
        d = make_dataset(np.arange(20.0).reshape(10, 2),
                         [0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        plan = make_folds(d, 5, seed=0)
        for f in range(5):
            rows = plan.fold_rows(f)
            assert len(rows) == 2
            assert sorted(d.labels[rows]) == [0, 1]

    def test_fold_sizes_balanced_within_one_per_class(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 47, 3, n_classes=3)
        plan = make_folds(d, 4, seed=9)
        for c in range(3):
            per_fold = [int(np.sum(d.labels[plan.fold_rows(f)] == c))
                        for f in range(4)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_62_rows_5_folds_size_multiset(self):
        # 40/22 class split: per-class balance forces sizes 13,13,12,12,12
        labels = np.array([0] * 40 + [1] * 22)
        rng = np.random.default_rng(6)
        d = make_dataset(rng.normal(size=(62, 4)), labels)
        plan = make_folds(d, 5, seed=1)
        sizes = sorted(len(plan.fold_rows(f)) for f in range(5))
        assert sizes == [12, 12, 12, 13, 13]

    def test_folds_partition_the_rows(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 33, 2, n_classes=2)
        plan = make_folds(d, 6, seed=3)
        seen = np.concatenate([plan.fold_rows(f) for f in range(6)])
        assert sorted(seen.tolist()) == list(range(33))
        for f in range(6):
            train = set(plan.train_rows(f).tolist())
            test = set(plan.fold_rows(f).tolist())
            assert not train & test
            assert train | test == set(range(33))

    def test_same_seed_reproduces_different_seed_moves(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 60, 2, n_classes=2)
        a = make_folds(d, 5, seed=11)
        b = make_folds(d, 5, seed=11)
        c = make_folds(d, 5, seed=12)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_bad_fold_counts_rejected(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, 10, 2)
        with pytest.raises(ValueError):
            make_folds(d, 0)
        with pytest.raises(ValueError):
            make_folds(d, 11)

    def test_tiny_class_spans_fewer_folds_with_warning(self):
        labels = np.array([0] * 9 + [1] * 3)
        rng = np.random.default_rng(10)
        d = make_dataset(rng.normal(size=(12, 2)), labels)
        with pytest.warns(UserWarning):
            plan = make_folds(d, 4, seed=0)
        minority_folds = {int(plan.assignments[r])
                          for r in np.flatnonzero(d.labels == 1)}
        assert len(minority_folds) == 3
