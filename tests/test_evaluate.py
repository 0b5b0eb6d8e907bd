"""Accuracy metrics, cross-validation, and benchmark records."""

import numpy as np
import pytest

from conftest import make_dataset, random_dataset, separable_dataset
from ffsel import (
    BenchmarkRecord,
    accuracy,
    cross_validate,
    make_folds,
    standard_scale,
)
from ffsel.classifiers import GNB, KNN, RF, classify
from ffsel.records import TIMING_FIELDS, appending, read_records


class TestAccuracy:
    """Exact-match fraction."""

    def test_binary_case(self):
        assert accuracy([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75

    def test_perfect_and_zero(self):
        assert accuracy([2, 1], [2, 1]) == 1.0
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestCrossValidate:
    """Stratified k-fold evaluation of a fixed feature subset."""

    def test_matches_manual_fold_loop(self):
        rng = np.random.default_rng(91)
        d = standard_scale(random_dataset(rng, 40, 6, n_classes=2))
        folds = make_folds(d, 4, seed=2)
        selected = [0, 2, 5]
        mean, sd = cross_validate(d, selected, KNN, folds, k_neighbors=3)
        accs = []
        cols = np.asarray(selected)
        for f in range(4):
            tr, te = folds.train_rows(f), folds.fold_rows(f)
            pred = classify(KNN, d.features[np.ix_(tr, cols)], d.labels[tr],
                            d.features[np.ix_(te, cols)], n_classes=2,
                            k_neighbors=3)
            accs.append(accuracy(pred, d.labels[te]))
        assert mean == np.mean(accs)
        assert sd == np.std(accs)  # population sd over folds

    @pytest.mark.parametrize("scale_per_fold", [False, True])
    def test_per_fold_subsets_match_manual_fold_loop(self, scale_per_fold):
        rng = np.random.default_rng(98)
        d = random_dataset(rng, 36, 7, n_classes=3)
        folds = make_folds(d, 3, seed=4)
        subsets = [[0, 2, 5], [6, 1], (3, 4, 0, 2)]
        mean, sd = cross_validate(d, subsets, KNN, folds, scale_per_fold=scale_per_fold,
                                  k_neighbors=3)
        accs = []
        for f, cols in enumerate(subsets):
            tr, te = folds.train_rows(f), folds.fold_rows(f)
            train_x, test_x = d.features[tr], d.features[te]
            if scale_per_fold:
                mu, sigma = train_x.mean(axis=0), train_x.std(axis=0)
                train_x, test_x = (train_x - mu) / sigma, (test_x - mu) / sigma
            cols = np.asarray(cols)
            pred = classify(KNN, train_x[:, cols], d.labels[tr], test_x[:, cols],
                            n_classes=3, k_neighbors=3)
            accs.append(accuracy(pred, d.labels[te]))
        assert mean == np.mean(accs)
        assert sd == np.std(accs)

    def test_per_fold_subsets_need_one_per_fold(self):
        rng = np.random.default_rng(99)
        d = random_dataset(rng, 20, 4)
        folds = make_folds(d, 3, seed=0)
        with pytest.raises(ValueError, match="2 feature subsets given for 3 folds"):
            cross_validate(d, [[0, 1], [2]], KNN, folds)
        with pytest.raises(ValueError, match="non-empty"):
            cross_validate(d, [[0], [], [1]], KNN, folds)

    def test_separable_data_scores_high(self):
        rng = np.random.default_rng(92)
        d = standard_scale(separable_dataset(rng, n_rows=60, n_cols=5))
        folds = make_folds(d, 5, seed=0)
        for clf in (KNN, GNB):
            mean, sd = cross_validate(d, [0, 1], clf, folds)
            assert mean >= 0.95
            assert sd >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(93)
        d = random_dataset(rng, 30, 5)
        folds = make_folds(d, 3, seed=1)
        a = cross_validate(d, [1, 3], GNB, folds)
        b = cross_validate(d, [1, 3], GNB, folds)
        assert a == b

    def test_scale_per_fold_runs(self):
        rng = np.random.default_rng(94)
        d = random_dataset(rng, 30, 4)
        folds = make_folds(d, 3, seed=0)
        mean, sd = cross_validate(d, [0, 1], KNN, folds, scale_per_fold=True)
        assert 0.0 <= mean <= 1.0

    def test_empty_selection_rejected(self):
        rng = np.random.default_rng(95)
        d = random_dataset(rng, 20, 3)
        folds = make_folds(d, 2, seed=0)
        with pytest.raises(ValueError):
            cross_validate(d, [], KNN, folds)

    def test_out_of_range_selection_rejected(self):
        rng = np.random.default_rng(96)
        d = random_dataset(rng, 20, 3)
        folds = make_folds(d, 2, seed=0)
        with pytest.raises(ValueError):
            cross_validate(d, [0, 3], KNN, folds)

    def test_fold_plan_size_mismatch_rejected(self):
        rng = np.random.default_rng(97)
        d = random_dataset(rng, 20, 3)
        other = random_dataset(rng, 24, 3)
        folds = make_folds(other, 2, seed=0)
        with pytest.raises(ValueError):
            cross_validate(d, [0], KNN, folds)


class TestBenchmarkRecord:
    """Serializable result row of one benchmark cell."""

    def record(self, **over):
        base = dict(dataset="toy", algorithm="KGROUPS", variant="alpha=1",
                    estimator="MI", classifier="KNN", k=5, alpha=1.0,
                    n_selected=4, cv_mean_accuracy=0.9, cv_sd=0.05,
                    selection_cpu_seconds=0.2, training_cpu_seconds=0.1,
                    seed=0, settings={"n_folds": 5})
        base.update(over)
        return BenchmarkRecord(**base)

    def test_round_trip(self, tmp_path):
        rec = self.record()
        path = tmp_path / "records.jsonl"
        with appending(path, 0) as append:
            append([rec])
        assert read_records(path) == [rec]

    def test_comparable_dict_drops_timing(self):
        rec = self.record()
        cmp_keys = set(rec.comparable_dict())
        assert cmp_keys == set(rec.as_dict()) - set(TIMING_FIELDS)

    def test_cell_key_identifies_configuration(self):
        a = self.record(selection_cpu_seconds=1.0)
        b = self.record(selection_cpu_seconds=9.0)
        assert a.cell_key() == b.cell_key()
        c = self.record(k=6)
        assert c.cell_key() != a.cell_key()

    def test_alpha_none_for_non_binning_algorithms(self):
        rec = self.record(algorithm="KBEST", variant="", alpha=None)
        assert rec.as_dict()["alpha"] is None

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            self.record(cv_mean_accuracy=1.5)
        with pytest.raises(ValueError):
            self.record(cv_sd=-0.1)
        with pytest.raises(ValueError):
            self.record(n_selected=0)
