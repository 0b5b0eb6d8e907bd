"""Relevance estimators, discretization, and the pairwise redundancy cache."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import grow_whole, make_dataset, random_dataset
from ffsel import ForestParams, RedundancyCache, relevance, relevance_all
from oracles import (
    oracle_abs_pearson,
    oracle_cosine,
    oracle_discretize,
    oracle_f_value,
    oracle_mi_from_counts,
    oracle_mi_of_codes,
)
from ffsel.forest import _last_axis_sum
from ffsel.relevance import (
    ABS_PEARSON,
    COSINE,
    DEFAULT_MI_BINS,
    ESTIMATORS,
    F_VALUE_CAP,
    FVALUE,
    GINI,
    MI,
    MI_PAIR,
    _CELLS,
    _mutual_info_stack,
    _pairwise_runs,
    _middle_sum,
    _sorted_quantiles,
    discretize_columns,
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


def run_sums(values, starts, sizes):
    """``np.sum`` of each run ``values[start : start + size]``, by the MI kernel."""
    return 0.0 + _pairwise_runs(np.concatenate([values, np.zeros(8)]), starts, sizes)


def one_column(d, estimator, **kwargs):
    """Relevance of the single column of a one-column dataset."""
    assert d.n_cols == 1
    return relevance_all(d, estimator, **kwargs).values[0]


def code_column(x, bins):
    """Codes of one column, discretized on its own."""
    return discretize_columns(np.asarray(x, dtype=np.float64)[:, None], bins)[0]


class TestDiscretize:
    """Equal-frequency binning used by every MI computation."""

    def test_six_values_three_bins(self):
        codes = code_column(np.arange(1.0, 7.0), 3)
        np.testing.assert_array_equal(codes, [0, 0, 1, 1, 2, 2])

    def test_constant_column_single_code(self):
        codes = code_column(np.full(9, 4.2), 5)
        np.testing.assert_array_equal(codes, np.zeros(9, dtype=codes.dtype))

    def test_few_distinct_values_get_rank_codes(self):
        codes = code_column(np.array([7.0, 3.0, 7.0, 3.0]), 5)
        np.testing.assert_array_equal(codes, [1, 0, 1, 0])

    def test_codes_monotone_in_value(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=40)
            codes = code_column(x, 8)
            order = np.argsort(x, kind="stable")
            diffs = np.diff(codes[order])
            assert (diffs >= 0).all()
            assert codes.min() >= 0
            assert len(np.unique(codes)) <= 8

    def test_equal_values_share_a_code(self):
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=60), 1)
        codes = code_column(x, 6)
        for v in np.unique(x):
            assert len(np.unique(codes[x == v])) == 1

    @pytest.mark.parametrize("bins", [1, 2, 3, 5, 10, 17])
    @pytest.mark.parametrize("n_rows", [1, 2, 37, 62])
    def test_matrix_matches_per_column_reference(self, bins, n_rows):
        # Wider than one block of columns, with ties, few distinct values,
        # constant columns and signed zeros.
        rng = np.random.default_rng(13)
        x = rng.normal(size=(n_rows, 300))
        x[:, 1:60] = np.round(x[:, 1:60] * rng.integers(1, 8, size=59))
        x[:, 60:80] = rng.integers(0, 4, size=(n_rows, 20)) / 3.0
        x[:, 80] = 2.5
        x[:, 81] = np.where(rng.random(n_rows) < 0.5, -0.0, 0.0)
        x[:, 82] = np.where(rng.random(n_rows) < 0.5, -0.0, 1.0)
        x[:, 130:140] = x[:, 5:6]
        codes = discretize_columns(x, bins)
        assert codes.T.shape == x.shape and codes.dtype == np.min_scalar_type(bins - 1)
        for j in range(x.shape[1]):
            expect = oracle_discretize(x[:, j], bins)
            np.testing.assert_array_equal(codes[j], expect, err_msg=f"column {j}")
            np.testing.assert_array_equal(code_column(x[:, j], bins), expect)

    @pytest.mark.parametrize("bins", [4, 10])
    @pytest.mark.parametrize("n_rows", [2, 4, 10, 11, 41, 62])
    def test_edges_read_off_the_sorted_block(self, bins, n_rows):
        # Ties, runs of -0.0 and 0.0 among distinct values, blocks with rows
        # <= bins, and 41 rows, where every virtual index (n - 1) * q of 4
        # bins is an integer.  Edges equal np.quantile's by value; a zero
        # edge's sign may differ, and `block > t` codes both zeros alike.
        rng = np.random.default_rng(14)
        x = rng.normal(size=(n_rows, 200))
        x[:, :60] = np.round(x[:, :60] * rng.integers(1, 5, size=60))
        zeros = rng.random((n_rows, 60)) < 0.4
        x[:, 60:120][zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        s = np.sort(x, axis=0)
        q = np.arange(1, bins) / bins
        edges = _sorted_quantiles(s, q)
        assert (edges == np.quantile(s, q, axis=0)).all()
        codes = discretize_columns(x, bins)
        for j in range(x.shape[1]):
            np.testing.assert_array_equal(codes[j], oracle_discretize(x[:, j], bins), err_msg=f"column {j}")

    @pytest.mark.parametrize("bins", [1, 3, 10, 17, 300])
    @pytest.mark.parametrize("n_rows", [1, 2, 62, 203])
    def test_columns_across_block_edges(self, bins, n_rows, monkeypatch):
        # Blocks of 37 columns, so the 120 columns span three whole blocks
        # and part of a fourth.  Ties, few distinct values, constant columns
        # and signed zeros each straddle a block edge.  With 1 or 2 rows
        # every column is few; with more rows and up to 17 bins, none of
        # the fourth block's is.
        monkeypatch.setattr(relevance, "_CELLS", 37 * n_rows)
        rng = np.random.default_rng(58)
        x = rng.normal(size=(n_rows, 120))
        x[:, 30:45] = np.round(x[:, 30:45] * rng.integers(1, 8, size=15))
        x[:, 45:70] = rng.integers(0, 3, size=(n_rows, 25)) / 2.0
        x[:, 70:80] = 1.5
        zeros = rng.random((n_rows, 14)) < 0.4
        x[:, 100:114][zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        x[:, 108] = np.where(rng.random(n_rows) < 0.5, -0.0, 0.0)
        x[:, 109] = np.where(rng.random(n_rows) < 0.5, -0.0, 1.0)
        codes = discretize_columns(x, bins)
        assert codes.shape == (120, n_rows) and codes.dtype == np.min_scalar_type(bins - 1)
        for j in range(x.shape[1]):
            np.testing.assert_array_equal(codes[j], oracle_discretize(x[:, j], bins), err_msg=f"column {j}")

    def test_bins_must_be_positive(self):
        with pytest.raises(ValueError):
            discretize_columns(np.zeros((3, 2)), 0)


class TestMutualInformation:
    """Plug-in MI from counts and against the label."""

    def test_independent_table_zero(self):
        assert oracle_mi_from_counts(np.array([[2, 2], [2, 2]])) == 0.0

    def test_diagonal_table_log_k(self):
        table = np.diag([3, 3, 3])
        np.testing.assert_allclose(oracle_mi_from_counts(table),
                                   math.log(3), rtol=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            table = rng.integers(0, 6, size=(4, 3))
            if table.sum() == 0:
                continue
            np.testing.assert_allclose(oracle_mi_from_counts(table),
                                       plugin_mi_oracle(table), atol=1e-12)

    def test_label_mi_determined_label(self):
        d = make_dataset(np.array([[0.0], [0.0], [1.0], [1.0]]), [0, 0, 1, 1])
        np.testing.assert_allclose(one_column(d, MI, mi_bins=2),
                                   math.log(2), rtol=1e-12)

    def test_label_mi_six_point_case(self):
        d = make_dataset(np.arange(1.0, 7.0).reshape(6, 1), [0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(one_column(d, MI, mi_bins=3),
                                   (2.0 / 3.0) * math.log(2), rtol=1e-12)

    def test_constant_column_zero(self):
        d = make_dataset(np.ones((6, 1)), [0, 0, 0, 1, 1, 1])
        assert one_column(d, MI, mi_bins=4) == 0.0

    def test_nonnegative_on_random_data(self):
        rng = np.random.default_rng(14)
        d = random_dataset(rng, 30, 8, n_classes=3)
        assert (relevance_all(d, MI, mi_bins=5).values >= 0.0).all()

    def test_pair_mi_symmetric_bitwise(self):
        rng = np.random.default_rng(15)
        d = random_dataset(rng, 25, 6)
        for i in range(6):
            for j in range(i + 1, 6):
                assert (RedundancyCache(d, MI_PAIR).get(i, j)
                        == RedundancyCache(d, MI_PAIR).get(j, i))


class TestMutualInfoStack:
    """The batched kernel that scores many joint tables at once."""

    def test_pairwise_rows_match_np_sum(self):
        # The kernel copies NumPy's summation order; a NumPy release that
        # changes it fails here first.
        rng = np.random.default_rng(40)
        for n in range(300):
            t = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-6, 7, size=(3, n))
            for row, total in zip(t, run_sums(t.ravel(), np.arange(3) * n, np.full(3, n))):
                assert total == np.sum(row), n

    def test_runs_at_random_offsets_match_np_sum(self):
        # One call over runs of every length class: empty, under 8 (no
        # block), 8 to 128 (one pass) and over 128 (split), at random and
        # overlapping offsets, so the masked lanes pad each short run.
        rng = np.random.default_rng(57)
        values = rng.normal(size=2000) * 10.0 ** rng.integers(-6, 7, size=2000)
        sizes = np.concatenate([[0, 0, 7, 8, 128, 129, 136, 300], rng.integers(0, 301, size=400)])
        starts = rng.integers(0, values.size - sizes + 1)
        got = run_sums(values, starts, sizes)
        assert got.shape == sizes.shape
        for start, size, total in zip(starts, sizes, got):
            want = np.sum(values[start : start + size])
            assert total.tobytes() == want.tobytes(), (start, size)
        for lo, hi in ((0, 0), (1, 7), (8, 128), (129, 300)):
            assert ((sizes >= lo) & (sizes <= hi)).sum() >= 2, (lo, hi)

    @pytest.mark.parametrize("ka", range(1, 21))
    def test_marginals_match_numpy_sums_bytewise(self, ka):
        # `_last_axis_sum` and `_middle_sum` copy the order NumPy reduces
        # each axis of a stack in: a left fold below 8 values and pairwise
        # from 8 on along the last axis, a left fold along the middle one,
        # except kb = 1, which NumPy sums pairwise.  A NumPy release that
        # changes it fails here.
        rng = np.random.default_rng(60 + ka)
        for kb in [*range(1, 21), 129, 300]:
            joint = rng.integers(0, rng.integers(2, 50), size=(20, ka, kb))
            joint[rng.random(joint.shape) < rng.random((20, 1, 1))] = 0
            joint[0] = 0  # a zero table
            spread = rng.random((20, ka, kb)) * 10.0 ** rng.integers(-6, 7, size=(20, ka, kb))
            for p in (joint / np.maximum(joint.sum(axis=(1, 2)), 1)[:, None, None], spread):
                assert _middle_sum(p).tobytes() == p.sum(axis=1).tobytes(), (ka, kb)
                assert _last_axis_sum(p).tobytes() == p.sum(axis=2).tobytes(), (ka, kb)

    @pytest.mark.parametrize("ka", range(1, 13))
    def test_stack_equals_scalar_bitwise(self, ka):
        rng = np.random.default_rng(41 + ka)
        for kb in range(1, 13):
            stack = rng.integers(0, rng.integers(2, 50), size=(30, ka, kb))
            # Sparse tables, so each shape has L nonzero cells from 0 to ka*kb.
            stack[rng.random(stack.shape) < rng.random((30, 1, 1))] = 0
            stack[0] = 0  # n = 0
            stack[1, -1, :] = 0  # a zero row
            stack[2, :, 0] = 0  # a zero column
            got = _mutual_info_stack(stack)
            assert got.shape == (30,)
            for i, table in enumerate(stack):
                assert got[i] == oracle_mi_from_counts(table), (ka, kb, i)

    def test_more_than_128_nonzero_cells(self):
        # 10 codes x 15 classes, most cells filled: NumPy splits sums of
        # more than 128 terms in two.
        rng = np.random.default_rng(54)
        stack = rng.integers(1, 4, size=(200, 10, 15))
        stack[rng.random(stack.shape) < rng.random((200, 1, 1)) * 0.5] = 0
        sizes = (stack > 0).sum(axis=(1, 2))
        assert sizes.min() < 128 < sizes.max()
        got = _mutual_info_stack(stack)
        for i, table in enumerate(stack):
            assert got[i] == oracle_mi_from_counts(table), sizes[i]


class TestFValue:
    """One-way ANOVA F statistic against the label."""

    def test_identical_group_means_zero(self):
        d = make_dataset(np.array([[1.0], [3.0], [1.0], [3.0]]), [0, 0, 1, 1])
        assert one_column(d, FVALUE) == 0.0

    def test_hand_anova_case(self):
        d = make_dataset(np.array([[1.0], [2.0], [3.0], [2.0], [3.0], [4.0]]),
                         [0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(one_column(d, FVALUE), 1.5, rtol=1e-12)

    def test_zero_within_variance_capped(self):
        d = make_dataset(np.array([[1.0], [1.0], [2.0], [2.0]]), [0, 0, 1, 1])
        assert one_column(d, FVALUE) == F_VALUE_CAP

    def test_fully_constant_column_zero(self):
        d = make_dataset(np.full((4, 1), 3.0), [0, 0, 1, 1])
        assert one_column(d, FVALUE) == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            d = random_dataset(rng, 24, 1, n_classes=3)
            base = one_column(d, FVALUE)
            a = rng.uniform(0.5, 4.0) * rng.choice([-1.0, 1.0])
            b = rng.normal()
            shifted = make_dataset(a * d.features + b, d.labels)
            np.testing.assert_allclose(one_column(shifted, FVALUE), base,
                                       rtol=1e-9)


class TestCosine:
    """Absolute cosine similarity with the integer-coded label vector."""

    def test_parallel_vectors(self):
        d = make_dataset(np.array([[0.0], [1.0], [1.0]]), [0, 1, 1])
        np.testing.assert_allclose(one_column(d, COSINE), 1.0, rtol=1e-12)

    def test_orthogonal_vectors(self):
        # label vector encodes to [0, 1]; x = [1, 0] is orthogonal to it
        d = make_dataset(np.array([[1.0], [0.0]]), [0, 1])
        assert one_column(d, COSINE) == 0.0

    def test_dot_product_case(self):
        d = make_dataset(np.array([[1.0], [2.0], [3.0]]), [0, 1, 1])
        np.testing.assert_allclose(one_column(d, COSINE),
                                   5.0 / math.sqrt(28.0), rtol=1e-12)

    def test_zero_norm_column(self):
        d = make_dataset(np.zeros((4, 1)), [0, 0, 1, 1])
        assert one_column(d, COSINE) == 0.0

    def test_sign_blind(self):
        rng = np.random.default_rng(17)
        d = random_dataset(rng, 20, 1)
        flipped = make_dataset(-d.features, d.labels)
        np.testing.assert_allclose(one_column(flipped, COSINE),
                                   one_column(d, COSINE), rtol=1e-12)


def whole_data_tree(x, y, draws):
    """Normalized importances and split thresholds of `grow_whole`'s tree."""
    x = np.asarray(x, dtype=np.float64)
    records = grow_whole(x, y, max(y) + 1, draws)[2]
    feature, threshold, term = records[2], records[3], records[5]
    raw = np.bincount(feature, weights=term, minlength=x.shape[1])
    return raw / raw.sum(), threshold


class TestGiniImportance:
    """Forest-based impurity-decrease relevance."""

    def test_dominant_feature_wins(self):
        rng = np.random.default_rng(18)
        labels = np.repeat([0, 1], 20)
        noise = rng.normal(size=(40, 4))
        signal = labels * 10.0 + rng.normal(size=40) * 0.01
        x = np.column_stack([noise[:, :2], signal, noise[:, 2:]])
        d = make_dataset(x, labels)
        rel = relevance_all(d, GINI, forest=ForestParams(n_trees=20, seed=0))
        assert int(np.argmax(rel.values)) == 2

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(19)
        d = random_dataset(rng, 30, 5)
        a = relevance_all(d, GINI, forest=ForestParams(n_trees=10, seed=4))
        b = relevance_all(d, GINI, forest=ForestParams(n_trees=10, seed=4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_single_tree_hand_trace_one_split(self):
        x = np.column_stack([np.arange(1.0, 7.0),
                             np.array([10.0, 20.0, 20.0, 20.0, 20.0, 20.0])])
        # column 0 splits perfectly at 3.5; the root consumes all impurity
        imp, threshold = whole_data_tree(x, [0, 0, 0, 1, 1, 1], [0])
        assert threshold.tolist() == [3.5]
        np.testing.assert_allclose(imp, [1.0, 0.0], atol=1e-12)
        # column 1 alone leaves the right child impure, and splits no further
        imp, threshold = whole_data_tree(x, [0, 0, 0, 1, 1, 1], [1, 1])
        assert threshold.tolist() == [15.0]
        np.testing.assert_allclose(imp, [0.0, 1.0], atol=1e-12)

    def test_single_tree_hand_trace_two_splits(self):
        x = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0],
                      [0.0, 9.0], [1.0, 9.0], [2.0, 9.0]])
        # root on column 1 and the left child on column 0 each decrease
        # weighted impurity by 2/9, so normalized importances split evenly
        imp, threshold = whole_data_tree(x, [0, 0, 1, 1, 1, 1], [1, 0])
        assert threshold.tolist() == [7.0, 1.5]
        np.testing.assert_allclose(imp, [0.5, 0.5], atol=1e-12)

    def test_normalized_when_any_split_exists(self):
        rng = np.random.default_rng(20)
        d = random_dataset(rng, 40, 6, n_classes=2)
        rel = relevance_all(d, GINI, forest=ForestParams(n_trees=5, seed=1))
        assert rel.values.min() >= 0.0
        np.testing.assert_allclose(rel.values.sum(), 1.0, rtol=1e-12)


def assert_matches_per_column_oracles(d, mi_bins=DEFAULT_MI_BINS):
    """Whole-matrix relevance equals the oracles' per-column values exactly."""
    mi = relevance_all(d, MI, mi_bins=mi_bins).values
    fv = relevance_all(d, FVALUE).values
    cs = relevance_all(d, COSINE).values
    for col in range(d.n_cols):
        x = d.features[:, col]
        assert mi[col] == oracle_mi_of_codes(oracle_discretize(x, mi_bins), d.labels), col
        assert fv[col] == oracle_f_value(x, d.labels, d.n_classes), col
        assert cs[col] == oracle_cosine(x, d.labels), col


class TestRelevanceAll:
    """Every estimator scores all columns of a dataset in one call."""

    def test_map_semantics_per_estimator(self):
        rng = np.random.default_rng(21)
        assert_matches_per_column_oracles(random_dataset(rng, 25, 4, n_classes=2), mi_bins=6)

    def test_three_classes_and_constant_columns(self):
        rng = np.random.default_rng(33)
        for n_rows in (3, 7, 62, 301):
            d = random_dataset(rng, n_rows, 40, n_classes=3)
            x = np.array(d.features)
            x[:, 3] = 1.5
            x[:, 7] = 0.0
            x[:, 11] = np.round(x[:, 11])
            assert_matches_per_column_oracles(make_dataset(x, d.labels))

    def test_fifteen_classes(self):
        # 10 codes x 15 classes on 600 rows: some tables have more than 128
        # nonzero cells.
        rng = np.random.default_rng(36)
        d = random_dataset(rng, 600, 30, n_classes=15)
        cells = [np.unique(oracle_discretize(x, 10) * 15 + d.labels).size for x in d.features.T]
        assert max(cells) > 128
        assert_matches_per_column_oracles(d)

    def test_mixed_code_counts_within_a_block(self):
        # Columns of 1 to 9 distinct values beside continuous ones, in the
        # same blocks, over more than two blocks of columns.  At 2,700
        # columns the 10-code tables (30 cells each) take more than one
        # kernel call.
        rng = np.random.default_rng(37)
        for n_cols in (300, 2700):
            d = random_dataset(rng, 80, n_cols, n_classes=3)
            x = np.array(d.features)
            for j in range(0, n_cols, 3):
                x[:, j] = rng.integers(0, 1 + (j // 3) % 9, size=80)
            full = (discretize_columns(x, DEFAULT_MI_BINS).max(axis=1) == 9).sum()
            assert (full * 10 * 3 > _CELLS) == (n_cols == 2700)
            assert_matches_per_column_oracles(make_dataset(x, d.labels))

    def test_fold_subset(self):
        rng = np.random.default_rng(34)
        d = random_dataset(rng, 45, 30, n_classes=3)
        rows = np.flatnonzero(np.arange(45) % 5 != 2)
        sub = dataclasses.replace(d, features=d.features[rows], labels=d.labels[rows])
        assert_matches_per_column_oracles(sub)

    def test_noncontiguous_column_subset(self):
        # As KGroups scores a round's tied columns: a dataset of some columns.
        # In the mixed matrix they hold different code counts (constant,
        # two-valued, few-valued and continuous), as tied columns of
        # different bins may, and each still scores as in the whole matrix.
        rng = np.random.default_rng(35)
        d = random_dataset(rng, 50, 30, n_classes=3)
        x = np.array(d.features)
        x[:, 4] = 2.0
        x[:, 17] = x[:, 17] > 0
        x[:, 9] = np.round(x[:, 9])
        mixed = make_dataset(x, d.labels)
        for data, cols in ((d, [28, 1, 4, 17, 9]), (mixed, [9, 28, 4, 1, 17, 22])):
            cols = np.array(cols)
            sub = dataclasses.replace(
                data, features=data.features[:, cols], feature_names=[f"f{i}" for i in cols]
            )
            for mi_bins in (3, DEFAULT_MI_BINS, 16):
                assert_matches_per_column_oracles(sub, mi_bins)
                np.testing.assert_array_equal(relevance_all(sub, MI, mi_bins=mi_bins).values,
                                              relevance_all(data, MI, mi_bins=mi_bins).values[cols])
            for est in (FVALUE, COSINE):
                np.testing.assert_array_equal(relevance_all(sub, est).values,
                                              relevance_all(data, est).values[cols])
        for mi_bins in (3, 16):  # the mixed subset's tables take at least three shapes
            assert np.unique(discretize_columns(sub.features, mi_bins).max(axis=1)).size >= 3

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
        assert RedundancyCache(d, ABS_PEARSON).get(0, 1) == 1.0

    def test_negated_column_pearson_one(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=20)
        d = make_dataset(np.column_stack([x, -x]), [0] * 10 + [1] * 10)
        assert RedundancyCache(d, ABS_PEARSON).get(0, 1) == 1.0

    def test_constant_column_pearson_zero(self):
        rng = np.random.default_rng(27)
        d = make_dataset(np.column_stack([np.ones(10), rng.normal(size=10)]),
                         [0] * 5 + [1] * 5)
        assert RedundancyCache(d, ABS_PEARSON).get(0, 1) == 0.0

    def test_pair_mi_matches_table_oracle(self):
        rng = np.random.default_rng(28)
        d = random_dataset(rng, 24, 5)
        for i in range(5):
            for j in range(i + 1, 5):
                a = oracle_discretize(d.features[:, i], 10)
                b = oracle_discretize(d.features[:, j], 10)
                table = np.zeros((a.max() + 1, b.max() + 1))
                for u, v in zip(a, b):
                    table[u, v] += 1
                np.testing.assert_allclose(RedundancyCache(d, MI_PAIR).get(i, j),
                                           plugin_mi_oracle(table), atol=1e-12)

    def test_cache_bitwise_equal_and_counts(self):
        rng = np.random.default_rng(29)
        d = random_dataset(rng, 30, 6)
        codes = [oracle_discretize(d.features[:, c], 10) for c in range(6)]
        direct = {
            MI_PAIR: lambda a, b: oracle_mi_of_codes(codes[a], codes[b]),
            ABS_PEARSON: lambda a, b: oracle_abs_pearson(d.features[:, a], d.features[:, b]),
        }
        for measure, fn in direct.items():
            cache = RedundancyCache(d, measure)
            for i in range(6):
                for j in range(6):
                    if i != j:
                        assert cache.get(i, j) == fn(min(i, j), max(i, j))
            assert len(cache) == 30  # every lookup computes its value

    @pytest.mark.parametrize("measure", [MI_PAIR, ABS_PEARSON])
    def test_batched_values_equal_pair_lookups(self, measure):
        # Candidates on both sides of the newest pick and across chunks of
        # 128; column 0 is constant and every third column has 1 to 9
        # distinct values, so MI table shapes vary within one call.
        rng = np.random.default_rng(38)
        d = random_dataset(rng, 40, 300, n_classes=3)
        x = np.array(d.features)
        for j in range(0, 300, 3):
            x[:, j] = rng.integers(0, 1 + (j // 3) % 9, size=40)
        d = make_dataset(x, d.labels)
        codes = [oracle_discretize(d.features[:, c], 10) for c in range(300)]
        newest = 151
        candidates = np.delete(np.arange(300), newest)
        cache = RedundancyCache(d, measure)
        got = cache.against(newest, candidates)
        assert len(cache) == candidates.size
        for c, value in zip(candidates, got):
            assert value == RedundancyCache(d, measure).get(int(c), newest), c
            lo, hi = min(c, newest), max(c, newest)
            if measure == MI_PAIR:
                assert value == oracle_mi_of_codes(codes[lo], codes[hi]), c
            else:
                assert value == oracle_abs_pearson(d.features[:, lo], d.features[:, hi]), c
        if measure == ABS_PEARSON:
            assert got[0] == 0.0  # the constant column

    def test_fine_bins_match_lone_tables(self):
        # 16 bins on 200 rows: most pair tables hold more than 128 nonzero
        # cells, so their terms are summed in split runs; every fourth
        # column from column 2 has 1 to 12 distinct values, so smaller
        # tables share calls.  The newest pick is the first, a middle and
        # the last column, so each side of it is empty once, and a side's
        # 16-code tables (256 cells each) take more than one kernel call.
        rng = np.random.default_rng(58)
        d = random_dataset(rng, 200, 600, n_classes=3)
        x = np.array(d.features)
        for j in range(2, 600, 4):
            x[:, j] = rng.integers(0, 1 + (j // 4) % 12, size=200)
        d = make_dataset(x, d.labels)
        codes = discretize_columns(d.features, 16)
        full = codes.max(axis=1) == 15
        for newest in (0, 301, 599):
            assert max(full[:newest].sum(), full[newest + 1 :].sum()) * 16 * 16 > _CELLS
            candidates = np.delete(np.arange(600), newest)
            got = RedundancyCache(d, MI_PAIR, mi_bins=16).against(newest, candidates)
            sizes = []
            for c, value in zip(candidates, got):
                lo, hi = min(c, newest), max(c, newest)
                table = np.zeros((codes[lo].max() + 1, codes[hi].max() + 1), dtype=np.int64)
                np.add.at(table, (codes[lo], codes[hi]), 1)
                sizes.append(np.count_nonzero(table))
                assert value == oracle_mi_from_counts(table), (newest, c)
            assert min(sizes) <= 128 < max(sizes)

    @pytest.mark.parametrize("bins", [20, 256, 300])
    def test_codes_past_one_byte_products_match_lone_tables(self, bins):
        # Code rows are stored in the narrowest unsigned type: at 20 bins a
        # code times a code count passes 255, at 256 bins the top code is
        # 255 itself, and 300 bins need two bytes.
        d = random_dataset(np.random.default_rng(59), 400, 6, n_classes=3)
        codes = discretize_columns(d.features, bins)
        assert codes.max() == min(bins, 400) - 1
        assert_matches_per_column_oracles(d, mi_bins=bins)
        cache = RedundancyCache(d, MI_PAIR, mi_bins=bins, rel=relevance_all(d, MI, mi_bins=bins))
        for newest in (0, 3):
            candidates = np.delete(np.arange(6), newest)
            got = cache.against(newest, candidates)
            for c, value in zip(candidates, got):
                lo, hi = min(c, newest), max(c, newest)
                assert value == oracle_mi_of_codes(codes[lo], codes[hi]), (newest, c)

    def test_cache_symmetric_lookup(self):
        rng = np.random.default_rng(30)
        d = random_dataset(rng, 15, 3)
        cache = RedundancyCache(d, ABS_PEARSON)
        v1 = cache.get(0, 2)
        v2 = cache.get(2, 0)
        assert v1 == v2
        assert len(cache) == 2

    def test_diagonal_rejected(self):
        rng = np.random.default_rng(31)
        d = random_dataset(rng, 10, 3)
        with pytest.raises(ValueError):
            RedundancyCache(d, MI_PAIR).get(2, 2)
        with pytest.raises(ValueError):
            RedundancyCache(d, ABS_PEARSON).get(1, 1)
        for measure in (MI_PAIR, ABS_PEARSON):
            with pytest.raises(ValueError):
                RedundancyCache(d, measure).against(2, np.array([0, 2, 1]))

    def test_measure_mismatch_rejected(self):
        rng = np.random.default_rng(32)
        d = random_dataset(rng, 10, 3)
        with pytest.raises(ValueError):
            RedundancyCache(d, "TAU")
