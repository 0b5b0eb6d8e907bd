"""Relevance estimators, discretization, and the pairwise redundancy cache."""

import math

import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from ffsel import ForestParams, RedundancyCache, relevance_all
from ffsel.relevance import (
    ABS_PEARSON,
    COSINE,
    ESTIMATORS,
    F_VALUE_CAP,
    FVALUE,
    GINI,
    MI,
    MI_PAIR,
    abs_pearson_value,
    cosine_with_label,
    discretize_equal_frequency,
    f_value_with_label,
    gini_importance,
    mi_pair_value,
    mutual_info_from_counts,
    mutual_info_with_label,
)


def plugin_mi_oracle(table):
    """Brute-force double sum over a contingency table, in nats."""
    table = np.asarray(table, dtype=float)
    n = table.sum()
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    total = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if table[i, j] > 0:
                p = table[i, j] / n
                total += p * math.log(p / ((rows[i] / n) * (cols[j] / n)))
    return total


class TestDiscretize:
    """Equal-frequency binning used by every MI computation."""

    def test_six_values_three_bins(self):
        codes = discretize_equal_frequency(np.arange(1.0, 7.0), 3)
        np.testing.assert_array_equal(codes, [0, 0, 1, 1, 2, 2])

    def test_constant_column_single_code(self):
        codes = discretize_equal_frequency(np.full(9, 4.2), 5)
        np.testing.assert_array_equal(codes, np.zeros(9, dtype=codes.dtype))

    def test_few_distinct_values_get_rank_codes(self):
        codes = discretize_equal_frequency(np.array([7.0, 3.0, 7.0, 3.0]), 5)
        np.testing.assert_array_equal(codes, [1, 0, 1, 0])

    def test_codes_monotone_in_value(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=40)
            codes = discretize_equal_frequency(x, 8)
            order = np.argsort(x, kind="stable")
            diffs = np.diff(codes[order])
            assert (diffs >= 0).all()
            assert codes.min() >= 0
            assert len(np.unique(codes)) <= 8

    def test_equal_values_share_a_code(self):
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=60), 1)
        codes = discretize_equal_frequency(x, 6)
        for v in np.unique(x):
            assert len(np.unique(codes[x == v])) == 1


class TestMutualInformation:
    """Plug-in MI from counts and against the label."""

    def test_independent_table_zero(self):
        assert mutual_info_from_counts(np.array([[2, 2], [2, 2]])) == 0.0

    def test_diagonal_table_log_k(self):
        table = np.diag([3, 3, 3])
        np.testing.assert_allclose(mutual_info_from_counts(table),
                                   math.log(3), rtol=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            table = rng.integers(0, 6, size=(4, 3))
            if table.sum() == 0:
                continue
            np.testing.assert_allclose(mutual_info_from_counts(table),
                                       plugin_mi_oracle(table), atol=1e-12)

    def test_label_mi_determined_label(self):
        d = make_dataset(np.array([[0.0], [0.0], [1.0], [1.0]]), [0, 0, 1, 1])
        np.testing.assert_allclose(mutual_info_with_label(d, 0, bins=2),
                                   math.log(2), rtol=1e-12)

    def test_label_mi_six_point_case(self):
        d = make_dataset(np.arange(1.0, 7.0).reshape(6, 1), [0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(mutual_info_with_label(d, 0, bins=3),
                                   (2.0 / 3.0) * math.log(2), rtol=1e-12)

    def test_constant_column_zero(self):
        d = make_dataset(np.ones((6, 1)), [0, 0, 0, 1, 1, 1])
        assert mutual_info_with_label(d, 0, bins=4) == 0.0

    def test_nonnegative_on_random_data(self):
        rng = np.random.default_rng(14)
        d = random_dataset(rng, 30, 8, n_classes=3)
        for col in range(8):
            assert mutual_info_with_label(d, col, bins=5) >= 0.0

    def test_pair_mi_symmetric_bitwise(self):
        rng = np.random.default_rng(15)
        d = random_dataset(rng, 25, 6)
        for i in range(6):
            for j in range(i + 1, 6):
                assert mi_pair_value(d, i, j) == mi_pair_value(d, j, i)


class TestFValue:
    """One-way ANOVA F statistic against the label."""

    def test_identical_group_means_zero(self):
        d = make_dataset(np.array([[1.0], [3.0], [1.0], [3.0]]), [0, 0, 1, 1])
        assert f_value_with_label(d, 0) == 0.0

    def test_hand_anova_case(self):
        d = make_dataset(np.array([[1.0], [2.0], [3.0], [2.0], [3.0], [4.0]]),
                         [0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(f_value_with_label(d, 0), 1.5, rtol=1e-12)

    def test_zero_within_variance_capped(self):
        d = make_dataset(np.array([[1.0], [1.0], [2.0], [2.0]]), [0, 0, 1, 1])
        assert f_value_with_label(d, 0) == F_VALUE_CAP

    def test_fully_constant_column_zero(self):
        d = make_dataset(np.full((4, 1), 3.0), [0, 0, 1, 1])
        assert f_value_with_label(d, 0) == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            d = random_dataset(rng, 24, 1, n_classes=3)
            base = f_value_with_label(d, 0)
            a = rng.uniform(0.5, 4.0) * rng.choice([-1.0, 1.0])
            b = rng.normal()
            shifted = make_dataset(a * d.features + b, d.labels)
            np.testing.assert_allclose(f_value_with_label(shifted, 0), base,
                                       rtol=1e-9)


class TestCosine:
    """Absolute cosine similarity with the integer-coded label vector."""

    def test_parallel_vectors(self):
        d = make_dataset(np.array([[0.0], [1.0], [1.0]]), [0, 1, 1])
        np.testing.assert_allclose(cosine_with_label(d, 0), 1.0, rtol=1e-12)

    def test_orthogonal_vectors(self):
        # label vector encodes to [0, 1]; x = [1, 0] is orthogonal to it
        d = make_dataset(np.array([[1.0], [0.0]]), [0, 1])
        assert cosine_with_label(d, 0) == 0.0

    def test_dot_product_case(self):
        d = make_dataset(np.array([[1.0], [2.0], [3.0]]), [0, 1, 1])
        np.testing.assert_allclose(cosine_with_label(d, 0),
                                   5.0 / math.sqrt(28.0), rtol=1e-12)

    def test_zero_norm_column(self):
        d = make_dataset(np.zeros((4, 1)), [0, 0, 1, 1])
        assert cosine_with_label(d, 0) == 0.0

    def test_sign_blind(self):
        rng = np.random.default_rng(17)
        d = random_dataset(rng, 20, 1)
        flipped = make_dataset(-d.features, d.labels)
        np.testing.assert_allclose(cosine_with_label(flipped, 0),
                                   cosine_with_label(d, 0), rtol=1e-12)


class TestGiniImportance:
    """Forest-based impurity-decrease relevance."""

    def test_dominant_feature_wins(self):
        rng = np.random.default_rng(18)
        labels = np.repeat([0, 1], 20)
        noise = rng.normal(size=(40, 4))
        signal = labels * 10.0 + rng.normal(size=40) * 0.01
        x = np.column_stack([noise[:, :2], signal, noise[:, 2:]])
        d = make_dataset(x, labels)
        rel = gini_importance(d, ForestParams(n_trees=20, seed=0))
        assert int(np.argmax(rel.values)) == 2

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(19)
        d = random_dataset(rng, 30, 5)
        a = gini_importance(d, ForestParams(n_trees=10, seed=4))
        b = gini_importance(d, ForestParams(n_trees=10, seed=4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_single_tree_hand_trace_one_split(self):
        x = np.column_stack([np.arange(1.0, 7.0),
                             np.array([10.0, 20.0, 20.0, 20.0, 20.0, 20.0])])
        d = make_dataset(x, [0, 0, 0, 1, 1, 1])
        params = ForestParams(n_trees=1, bootstrap=False, max_features=2, seed=0)
        rel = gini_importance(d, params)
        # column 0 splits perfectly at 3.5; the root consumes all impurity
        np.testing.assert_allclose(rel.values, [1.0, 0.0], atol=1e-12)

    def test_single_tree_hand_trace_two_splits(self):
        x = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0],
                      [0.0, 9.0], [1.0, 9.0], [2.0, 9.0]])
        d = make_dataset(x, [0, 0, 1, 1, 1, 1])
        params = ForestParams(n_trees=1, bootstrap=False, max_features=2, seed=0)
        rel = gini_importance(d, params)
        # root on column 1 and the left child on column 0 each decrease
        # weighted impurity by 2/9, so normalized importances split evenly
        np.testing.assert_allclose(rel.values, [0.5, 0.5], atol=1e-12)

    def test_normalized_when_any_split_exists(self):
        rng = np.random.default_rng(20)
        d = random_dataset(rng, 40, 6, n_classes=2)
        rel = gini_importance(d, ForestParams(n_trees=5, seed=1))
        assert rel.values.min() >= 0.0
        np.testing.assert_allclose(rel.values.sum(), 1.0, rtol=1e-12)


class TestRelevanceAll:
    """Vectorized wrapper over the per-column estimators."""

    def test_map_semantics_per_estimator(self):
        rng = np.random.default_rng(21)
        d = random_dataset(rng, 25, 4, n_classes=2)
        mi = relevance_all(d, MI, mi_bins=6)
        fv = relevance_all(d, FVALUE)
        cs = relevance_all(d, COSINE)
        for col in range(4):
            assert mi.values[col] == mutual_info_with_label(d, col, bins=6)
            assert fv.values[col] == f_value_with_label(d, col)
            assert cs.values[col] == cosine_with_label(d, col)

    def test_params_echo(self):
        rng = np.random.default_rng(22)
        d = random_dataset(rng, 20, 3)
        mi = relevance_all(d, MI, mi_bins=7)
        assert mi.params == {"mi_bins": 7}
        assert mi.estimator == MI
        gi = relevance_all(d, GINI, forest=ForestParams(n_trees=3, seed=2))
        assert gi.params["n_trees"] == 3
        assert gi.params["seed"] == 2

    def test_all_estimators_nonnegative(self):
        rng = np.random.default_rng(23)
        d = random_dataset(rng, 30, 5, n_classes=3)
        for est in ESTIMATORS:
            rel = relevance_all(d, est, forest=ForestParams(n_trees=3, seed=0))
            assert (rel.values >= 0.0).all()
            assert rel.values.shape == (5,)

    def test_unknown_estimator_rejected(self):
        rng = np.random.default_rng(24)
        d = random_dataset(rng, 10, 2)
        with pytest.raises(ValueError):
            relevance_all(d, "CHI2")


class TestRedundancy:
    """Pairwise redundancy values and their symmetric cache."""

    def test_identical_columns_pearson_one(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=20)
        d = make_dataset(np.column_stack([x, x]), [0] * 10 + [1] * 10)
        assert abs_pearson_value(d, 0, 1) == 1.0

    def test_negated_column_pearson_one(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=20)
        d = make_dataset(np.column_stack([x, -x]), [0] * 10 + [1] * 10)
        assert abs_pearson_value(d, 0, 1) == 1.0

    def test_constant_column_pearson_zero(self):
        rng = np.random.default_rng(27)
        d = make_dataset(np.column_stack([np.ones(10), rng.normal(size=10)]),
                         [0] * 5 + [1] * 5)
        assert abs_pearson_value(d, 0, 1) == 0.0

    def test_pair_mi_matches_table_oracle(self):
        rng = np.random.default_rng(28)
        d = random_dataset(rng, 24, 5)
        for i in range(5):
            for j in range(i + 1, 5):
                a = discretize_equal_frequency(d.features[:, i], 10)
                b = discretize_equal_frequency(d.features[:, j], 10)
                table = np.zeros((a.max() + 1, b.max() + 1))
                for u, v in zip(a, b):
                    table[u, v] += 1
                np.testing.assert_allclose(mi_pair_value(d, i, j),
                                           plugin_mi_oracle(table), atol=1e-12)

    def test_cache_bitwise_equal_and_counts(self):
        rng = np.random.default_rng(29)
        d = random_dataset(rng, 30, 6)
        for measure, direct in ((MI_PAIR, mi_pair_value),
                                (ABS_PEARSON, abs_pearson_value)):
            cache = RedundancyCache(d, measure)
            if measure == MI_PAIR:
                fn = lambda i, j: direct(d, i, j, 10)
            else:
                fn = lambda i, j: direct(d, i, j)
            for i in range(6):
                for j in range(6):
                    if i != j:
                        assert cache.get(i, j) == fn(i, j)
            assert len(cache) == 15  # each unordered pair stored once

    def test_cache_symmetric_lookup(self):
        rng = np.random.default_rng(30)
        d = random_dataset(rng, 15, 3)
        cache = RedundancyCache(d, ABS_PEARSON)
        v1 = cache.get(0, 2)
        v2 = cache.get(2, 0)
        assert v1 == v2
        assert len(cache) == 1

    def test_diagonal_rejected(self):
        rng = np.random.default_rng(31)
        d = random_dataset(rng, 10, 3)
        with pytest.raises(ValueError):
            RedundancyCache(d, MI_PAIR).get(2, 2)
        with pytest.raises(ValueError):
            RedundancyCache(d, ABS_PEARSON).get(1, 1)

    def test_measure_mismatch_rejected(self):
        rng = np.random.default_rng(32)
        d = random_dataset(rng, 10, 3)
        with pytest.raises(ValueError):
            RedundancyCache(d, "TAU")
