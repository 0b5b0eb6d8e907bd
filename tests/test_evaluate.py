"""Cross-validation and benchmark records."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import make_dataset, predict, random_dataset, separable_dataset
from ffsel import (
    BenchmarkRecord,
    FoldPlan,
    ForestParams,
    cross_validate,
    make_folds,
    standard_scale,
)
from ffsel.classifiers import GNB, KNN, RF
from ffsel.data import standardize
from ffsel.records import TIMING_FIELDS, appending, read_records

FOREST = ForestParams(n_trees=20, seed=3)


class TestCrossValidate:
    """Stratified k-fold evaluation of a fixed feature subset."""

    def test_matches_manual_fold_loop(self):
        # Over each classifier; the RF folds grow in one lockstep fit and
        # must equal one lone forest per fold.
        rng = np.random.default_rng(91)
        d = standard_scale(random_dataset(rng, 40, 6, n_classes=2))
        folds = make_folds(d, 4, seed=2)
        selected = [0, 2, 5]
        for clf in (KNN, GNB, RF):
            mean, sd = cross_validate(d, selected, clf, folds, k_neighbors=3, forest=FOREST)
            accs = []
            cols = np.asarray(selected)
            for f in range(4):
                tr, te = folds.train_rows(f), folds.fold_rows(f)
                pred = predict(clf, d.features[np.ix_(tr, cols)], d.labels[tr],
                               d.features[np.ix_(te, cols)], n_classes=2,
                               k_neighbors=3, forest=FOREST)
                accs.append(np.mean(pred == d.labels[te]))
            assert mean == np.mean(accs), clf
            assert sd == np.std(accs), clf  # population sd over folds

    @pytest.mark.parametrize("scale_per_fold", [False, True])
    def test_per_fold_subsets_match_manual_fold_loop(self, scale_per_fold):
        # Subsets of different sizes: the RF folds grow in one call, grouped
        # by column count.
        rng = np.random.default_rng(98)
        d = random_dataset(rng, 36, 7, n_classes=3)
        folds = make_folds(d, 3, seed=4)
        subsets = [[0, 2, 5], [6, 1], (3, 4, 0, 2)]
        for clf in (KNN, GNB, RF):
            mean, sd = cross_validate(d, subsets, clf, folds, scale_per_fold=scale_per_fold,
                                      k_neighbors=3, forest=FOREST)
            accs = []
            for f, cols in enumerate(subsets):
                tr, te = folds.train_rows(f), folds.fold_rows(f)
                train_x, test_x = d.features[tr], d.features[te]
                if scale_per_fold:
                    mu, sigma = train_x.mean(axis=0), train_x.std(axis=0)
                    train_x, test_x = (train_x - mu) / sigma, (test_x - mu) / sigma
                cols = np.asarray(cols)
                pred = predict(clf, train_x[:, cols], d.labels[tr], test_x[:, cols],
                               n_classes=3, k_neighbors=3, forest=FOREST)
                accs.append(np.mean(pred == d.labels[te]))
            assert mean == np.mean(accs), clf
            assert sd == np.std(accs), clf

    @pytest.mark.parametrize("scale_per_fold", [False, True])
    def test_out_of_fold_scores_match_manual_fold_loop(self, scale_per_fold):
        # Integer columns put many distance ties at the k-th neighbour; 1, 7
        # and 8 columns cover both summation orders of the distances; class 2
        # lives in fold 0 alone, so fold 0 trains without it.  With 240 rows
        # the pooled block's rows take two distance chunks.  Per-fold subsets
        # of equal width share one GNB fit, so some widths repeat.
        rng = np.random.default_rng(100)
        labels = rng.permutation(np.repeat([0, 1, 2], (110, 125, 5)))
        features = rng.integers(-2, 3, size=(labels.size, 10)).astype(float)
        d = make_dataset(features, labels)
        assignments = np.arange(labels.size) % 3
        assignments[labels == 2] = 0
        folds = FoldPlan(3, assignments)
        pooled = [[4], [9, 0, 3, 7, 1, 5, 2], [2, 8, 6, 1, 0, 9, 4, 3]]
        per_fold = [[[4], [9, 0, 3, 7, 1, 5, 2], [2, 8, 6, 1, 0, 9, 4, 3]],
                    [[2, 8, 6, 1, 0, 9, 4, 3], [7], [9, 0, 3, 7, 1, 5, 2]],
                    [[4], [9, 0, 3, 7, 1, 5, 2], [7]],
                    [[2, 8, 6, 1, 0, 9, 4, 3], [0, 1, 2, 3, 4, 5, 6, 7], [9, 0, 3, 7, 1, 5, 2]]]
        for selected in [*pooled, *per_fold]:
            subsets = selected if np.ndim(selected[0]) else [selected] * 3
            for clf, k in ((KNN, 1), (KNN, 4), (KNN, 9), (GNB, 5)):
                mean, sd = cross_validate(d, selected, clf, folds,
                                          scale_per_fold=scale_per_fold, k_neighbors=k)
                accs = []
                for f, cols in enumerate(subsets):
                    tr, te = folds.train_rows(f), folds.fold_rows(f)
                    train_x = d.features[np.ix_(tr, cols)]
                    test_x = d.features[np.ix_(te, cols)]
                    if scale_per_fold:
                        train_x, test_x = standardize(train_x, test_x)
                    pred = predict(clf, train_x, d.labels[tr], test_x, n_classes=3,
                                   k_neighbors=k, forest=None)
                    accs.append(np.mean(pred == d.labels[te]))
                assert (mean, sd) == (np.mean(accs), np.std(accs)), (clf, k, selected)

    def test_neighbor_count_checked_against_each_fold(self):
        # Folds of 2, 5 and 3 rows train on 8, 5 and 7: fold 1 fails first.
        rng = np.random.default_rng(101)
        d = random_dataset(rng, 10, 3)
        folds = FoldPlan(3, [0, 1, 1, 2, 1, 0, 2, 1, 2, 1])
        for selected in ([0, 2], [[0], [1, 2], [2]]):
            with pytest.raises(ValueError, match=re.escape("k_neighbors must lie in [1, 5], got 6")):
                cross_validate(d, selected, KNN, folds, k_neighbors=6)
            with pytest.raises(ValueError, match=re.escape("k_neighbors must lie in [1, 8], got 0")):
                cross_validate(d, selected, KNN, folds, k_neighbors=0)
            assert 0.0 <= cross_validate(d, selected, KNN, folds, k_neighbors=5)[0] <= 1.0

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

    def test_as_dict_equals_asdict_without_sharing_settings(self):
        rec = self.record(settings={"n_folds": 5, "tie_breakers": ["COSINE"]})
        row = rec.as_dict()
        assert list(row.items()) == list(dataclasses.asdict(rec).items())
        row["settings"]["tie_breakers"].append("MI")
        row["settings"]["n_folds"] = 3
        assert rec.settings == {"n_folds": 5, "tie_breakers": ["COSINE"]}

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
