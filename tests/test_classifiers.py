"""Built-in classifiers: nearest neighbors, Gaussian naive Bayes, forest."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import predict
from ffsel import ForestParams, RandomForest
from ffsel.classifiers import (
    _CELLS,
    _squared_distances,
    CLASSIFIERS,
    GNB,
    KNN,
    GNB_VAR_FLOOR,
    _gnb_fit,
    gaussian_nb_classify,
    knn_classify,
)


def knn_oracle(train_x, train_y, test_x, n_classes, k):
    """Brute-force vote with the same two tie rules."""
    out = []
    for row in test_x:
        d2 = ((train_x - row) ** 2).sum(axis=1)
        order = sorted(range(len(train_y)), key=lambda i: (d2[i], i))[:k]
        votes = np.zeros(n_classes, dtype=int)
        for i in order:
            votes[train_y[i]] += 1
        out.append(int(np.argmax(votes)))
    return np.array(out)


def gnb_fit_oracle(train_x, train_y, n_classes):
    """A lone fit's statistics as `_gnb_fit` lays them out, from NumPy's
    reductions on each class's own block: present classes first."""
    train_x = np.ascontiguousarray(train_x)
    counts = np.bincount(train_y, minlength=n_classes)
    classes = np.array([c for c in range(n_classes) if counts[c]] + [c for c in range(n_classes) if not counts[c]])
    floor = GNB_VAR_FLOOR * float(train_x.var(axis=0).max()) or 1e-300
    means = np.zeros((n_classes, train_x.shape[1]))
    variances = np.ones_like(means)
    bias = np.full(n_classes, -np.inf)
    for row, c in enumerate(classes[: np.count_nonzero(counts)]):
        block = train_x[train_y == c]
        means[row] = block.mean(axis=0)
        variances[row] = np.maximum(block.var(axis=0), floor)
        bias[row] = np.log(counts[c] / train_y.size) + -0.5 * np.log(2.0 * np.pi * variances[row]).sum()
    return classes, means, variances, bias


class TestKnn:
    """Distance ranking and the two deterministic tie rules."""

    def test_separated_blobs(self):
        rng = np.random.default_rng(80)
        train_x = np.vstack([rng.normal(0, 0.5, (20, 3)),
                             rng.normal(6, 0.5, (20, 3))])
        train_y = np.repeat([0, 1], 20)
        test_x = np.vstack([rng.normal(0, 0.5, (10, 3)),
                            rng.normal(6, 0.5, (10, 3))])
        pred = knn_classify(train_x, train_y, test_x, n_classes=2,
                            k_neighbors=5)
        np.testing.assert_array_equal(pred, np.repeat([0, 1], 10))

    def test_distance_tie_prefers_lower_row(self):
        train_x = np.array([[0.0], [2.0]])
        train_y = np.array([0, 1])
        pred = knn_classify(train_x, train_y, np.array([[1.0]]),
                            n_classes=2, k_neighbors=1)
        assert pred[0] == 0

    def test_vote_tie_prefers_smaller_class_id(self):
        # nearest neighbor belongs to class 1, but the 2-vote tie goes to 0
        train_x = np.array([[0.9], [0.0]])
        train_y = np.array([1, 0])
        pred = knn_classify(train_x, train_y, np.array([[1.0]]),
                            n_classes=2, k_neighbors=2)
        assert pred[0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            n_train = int(rng.integers(5, 30))
            n_cols = int(rng.integers(1, 5))
            n_classes = int(rng.integers(2, 4))
            train_x = np.round(rng.normal(size=(n_train, n_cols)), 1)
            train_y = rng.integers(0, n_classes, size=n_train)
            test_x = np.round(rng.normal(size=(8, n_cols)), 1)
            k = int(rng.integers(1, n_train + 1))
            got = knn_classify(train_x, train_y, test_x,
                               n_classes=n_classes, k_neighbors=k)
            np.testing.assert_array_equal(
                got, knn_oracle(train_x, train_y, test_x, n_classes, k))

    # Both NumPy summation orders: left to right below 8 columns, pairwise
    # from 8 on (8-way unrolled, and split in halves past 128).
    BATCH_WIDTHS = (*range(1, 13), 20, 130)

    def test_batched_pass_matches_oracle(self):
        rng = np.random.default_rng(88)
        for n_cols in self.BATCH_WIDTHS:
            for grid in (False, True):
                n_train = int(rng.integers(5, 41))
                # more test rows than one distance chunk holds
                n_test = _CELLS // (n_train * n_cols) + 3
                if grid:  # integer grid: many equal distances
                    train_x = rng.integers(-1, 2, size=(n_train, n_cols)).astype(float)
                    test_x = rng.integers(-1, 2, size=(n_test, n_cols)).astype(float)
                    test_x[::4] = train_x[rng.integers(0, n_train, size=test_x[::4].shape[0])]
                else:
                    train_x = rng.normal(size=(n_train, n_cols))
                    test_x = rng.normal(size=(n_test, n_cols))
                n_classes = int(rng.integers(3, 5))
                # class 1 never appears in training
                train_y = rng.choice([c for c in range(n_classes) if c != 1], size=n_train)
                for k in (1, 2, int(rng.integers(1, n_train + 1)), n_train):
                    got = knn_classify(train_x, train_y, test_x,
                                       n_classes=n_classes, k_neighbors=k)
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(
                        got, knn_oracle(train_x, train_y, test_x, n_classes, k))
        empty = knn_classify(np.eye(3), [0, 1, 0], np.zeros((0, 3)),
                             n_classes=2, k_neighbors=2)
        assert empty.dtype == np.int64 and empty.shape == (0,)

    def test_batched_distances_equal_row_sums(self):
        rng = np.random.default_rng(89)
        for n_cols in self.BATCH_WIDTHS:
            n_train = int(rng.integers(1, 41))
            n_test = _CELLS // (n_train * n_cols) + 3
            # magnitudes spread over 16 decades make every rounding show
            scale = 10.0 ** rng.uniform(-8, 8, size=n_cols)
            train_x = rng.normal(size=(n_train, n_cols)) * scale
            test_x = rng.normal(size=(n_test, n_cols)) * scale
            want = np.array([((train_x - row) ** 2).sum(axis=1) for row in test_x])
            got = _squared_distances(train_x, test_x)
            assert got.shape == want.shape
            assert (got == want).all(), n_cols

    def test_neighbor_count_bounds(self):
        x = np.zeros((3, 2))
        y = np.array([0, 1, 0])
        with pytest.raises(ValueError):
            knn_classify(x, y, x, n_classes=2, k_neighbors=0)
        with pytest.raises(ValueError):
            knn_classify(x, y, x, n_classes=2, k_neighbors=4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            knn_classify(np.zeros((4, 3)), np.zeros(4, dtype=int),
                         np.zeros((2, 2)), n_classes=2, k_neighbors=1)


class TestKnnMemory:
    """Chunked distances keep a call's working arrays near one chunk."""

    def test_peak_traced_memory_of_one_call(self):
        rng = np.random.default_rng(90)
        train_x = rng.normal(size=(160, 5000))
        train_y = rng.integers(0, 2, size=160)
        test_x = rng.normal(size=(40, 5000))
        tracemalloc.start()
        try:
            knn_classify(train_x, train_y, test_x, n_classes=2, k_neighbors=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One chunk's difference block (a single test row here, since one
        # row holds more than _CELLS cells), plus 1 MiB for the rest.  All
        # 40 rows at once would take 256 MB.
        assert peak < 8 * max(_CELLS, 160 * 5000) + 2**20


class TestInputChecks:
    """Every classifier (RF as a fitted forest) rejects labels outside [0, n_classes) and non-finite values."""

    @pytest.fixture
    def blocks(self):
        rng = np.random.default_rng(91)
        return rng.normal(size=(6, 2)), np.array([0, 1, 0, 1, 0, 1]), rng.normal(size=(3, 2))

    @pytest.mark.parametrize("name", CLASSIFIERS)
    def test_label_outside_class_range_rejected(self, name, blocks):
        train_x, train_y, test_x = blocks
        train_y[2] = 5
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            predict(name, train_x, train_y, test_x, n_classes=2, k_neighbors=1,
                    forest=ForestParams(n_trees=3, seed=0))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            predict(name, train_x, -train_y, test_x, n_classes=2, k_neighbors=1,
                    forest=ForestParams(n_trees=3, seed=0))

    @pytest.mark.parametrize("name", CLASSIFIERS)
    @pytest.mark.parametrize("where", ["train", "test"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, name, where, bad, blocks):
        train_x, train_y, test_x = blocks
        (train_x if where == "train" else test_x)[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            predict(name, train_x, train_y, test_x, n_classes=2, k_neighbors=1,
                    forest=ForestParams(n_trees=3, seed=0))


class TestGaussianNb:
    """Per-class Gaussian likelihoods with a shared variance floor."""

    def test_matches_hand_computed_posteriors(self):
        train_x = np.array([[0.0], [1.0], [10.0], [11.0]])
        train_y = np.array([0, 0, 1, 1])
        test_x = np.array([[0.4], [5.4], [5.6], [12.0]])
        pred = gaussian_nb_classify(train_x, train_y, test_x, n_classes=2)

        def log_post(x, mu):
            var = 0.25  # population variance of each class sample
            return (math.log(0.5) - 0.5 * math.log(2 * math.pi * var)
                    - (x - mu) ** 2 / (2 * var))

        expect = [0 if log_post(x, 0.5) >= log_post(x, 10.5) else 1
                  for x in test_x[:, 0]]
        np.testing.assert_array_equal(pred, expect)
        np.testing.assert_array_equal(pred, [0, 0, 1, 1])

    def test_absent_class_never_predicted(self):
        rng = np.random.default_rng(82)
        train_x = rng.normal(size=(12, 2))
        train_y = np.array([0, 2] * 6)  # class 1 unseen
        test_x = rng.normal(size=(40, 2))
        pred = gaussian_nb_classify(train_x, train_y, test_x, n_classes=3)
        assert set(pred.tolist()) <= {0, 2}

    def test_priors_matter_for_ambiguous_points(self):
        # identical class means: the bigger class should win everywhere
        train_x = np.array([[0.0], [0.2], [-0.2], [0.1], [-0.1], [0.0]])
        train_y = np.array([0, 0, 0, 0, 1, 1])
        pred = gaussian_nb_classify(train_x, train_y,
                                    np.array([[0.0]]), n_classes=2)
        assert pred[0] == 0

    def test_constant_features_fall_back_to_prior(self):
        train_x = np.ones((5, 2))
        train_y = np.array([0, 0, 0, 1, 1])
        pred = gaussian_nb_classify(train_x, train_y, np.ones((3, 2)),
                                    n_classes=2)
        np.testing.assert_array_equal(pred, [0, 0, 0])

    def test_batched_fits_equal_lone_fits(self):
        # One column (summed pairwise), several (summed row by row), and
        # 2400 rows x 12 sets, which splits the moments into one-column
        # chunks; two blocks of three fits each, rows shared by index.  The
        # first fit lacks the last class wherever it has more than two.
        rng = np.random.default_rng(86)
        for n_rows, n_cols, n_classes in ((50, 1, 3), (9, 1, 2), (50, 2, 2), (70, 7, 4),
                                          (64, 8, 3), (33, 20, 2), (2400, 3, 3)):
            scale = 10.0 ** rng.uniform(-6, 6, size=n_cols)
            x = np.round(rng.normal(size=(2, n_rows, n_cols)) * scale, 1)
            y = rng.integers(0, n_classes, size=n_rows)
            train = rng.random((2, n_rows, 3)) < 0.7
            train[0, y == n_classes - 1, 0] = n_classes == 2
            got = _gnb_fit(x, y, train, n_classes)
            for b in range(2):
                for f in range(3):
                    rows = train[b, :, f]
                    want = gnb_fit_oracle(x[b, rows], y[rows], n_classes)
                    for name, a, w in zip(("classes", "means", "variances", "bias"), got, want):
                        assert np.array_equal(a[3 * b + f], w), (n_rows, n_cols, b, f, name)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            gaussian_nb_classify(np.zeros((0, 2)), np.zeros(0, dtype=int),
                                 np.zeros((1, 2)), n_classes=2)

    def test_separated_blobs(self):
        rng = np.random.default_rng(83)
        train_x = np.vstack([rng.normal(0, 1, (25, 4)),
                             rng.normal(7, 1, (25, 4))])
        train_y = np.repeat([0, 1], 25)
        test_x = np.vstack([rng.normal(0, 1, (10, 4)),
                            rng.normal(7, 1, (10, 4))])
        pred = gaussian_nb_classify(train_x, train_y, test_x, n_classes=2)
        np.testing.assert_array_equal(pred, np.repeat([0, 1], 10))


class TestForestClassifier:
    """A fitted forest's vote on held-out rows."""

    def test_separated_blobs(self):
        rng = np.random.default_rng(84)
        train_x = np.vstack([rng.normal(0, 1, (30, 3)),
                             rng.normal(8, 1, (30, 3))])
        train_y = np.repeat([0, 1], 30)
        test_x = np.vstack([rng.normal(0, 1, (10, 3)),
                            rng.normal(8, 1, (10, 3))])
        model = RandomForest(ForestParams(n_trees=15, seed=0), 2)
        pred = model.fit(train_x, train_y).predict(test_x)
        np.testing.assert_array_equal(pred, np.repeat([0, 1], 10))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(85)
        train_x = rng.normal(size=(30, 4))
        train_y = rng.integers(0, 2, size=30)
        train_y[:2] = [0, 1]
        test_x = rng.normal(size=(20, 4))
        params = ForestParams(n_trees=7, seed=3)
        a = RandomForest(params, 2).fit(train_x, train_y).predict(test_x)
        b = RandomForest(params, 2).fit(train_x, train_y).predict(test_x)
        np.testing.assert_array_equal(a, b)
