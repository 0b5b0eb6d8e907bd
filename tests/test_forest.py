"""Random forest learner: determinism, oracle agreement, and prediction."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ffsel
from conftest import grow_whole, random_dataset, separable_dataset
from ffsel import ForestParams, RandomForest
from ffsel.forest import fit_forests
from ffsel import forest as forest_module
from oracles import oracle_bounded, oracle_choice, oracle_forest


class TestForestParams:
    """One forest configuration: a tree count and a seed."""

    def test_default_max_features_is_sqrt(self):
        assert [forest_module._max_features(n) for n in (1, 2, 3, 4, 8, 9, 100, 2000)] == [1, 1, 1, 2, 2, 3, 10, 44]
        assert [f.name for f in dataclasses.fields(ForestParams)] == ["n_trees", "seed"]

    def test_tree_count_and_seed_checked(self):
        with pytest.raises(ValueError, match="n_trees must be positive, got 0"):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError, match="forest seed must be >= 0, got -1"):
            ForestParams(seed=-1)

    def test_choice_never_takes_numpys_tail_branch(self):
        # Generator.choice(n, m, replace=False) shuffles the tail of
        # arange(n) when n > 10,000 and m > n // 50, which Floyd's algorithm
        # (the pinned behaviour) does not match; floor(sqrt(n)) exceeds
        # n // 50 only below n = 2,500.
        assert all(forest_module._max_features(n) <= n // 50 for n in range(10_001, 60_001))


class TestRandomForest:
    """Fit/predict behavior of the ensemble."""

    def test_separable_data_high_accuracy(self):
        rng = np.random.default_rng(34)
        d = separable_dataset(rng, n_rows=80, n_cols=5, shift=5.0)
        forest = RandomForest(ForestParams(n_trees=15, seed=0), n_classes=2)
        forest.fit(d.features, d.labels)
        pred = forest.predict(d.features)
        assert (pred == d.labels).mean() >= 0.95

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(35)
        d = random_dataset(rng, 40, 6, n_classes=3)
        test_x = rng.normal(size=(25, 6))
        runs = []
        for _ in range(2):
            f = RandomForest(ForestParams(n_trees=8, seed=7), n_classes=3)
            f.fit(d.features, d.labels)
            runs.append((f.predict(test_x), f.feature_importances()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_seed_changes_the_ensemble(self):
        rng = np.random.default_rng(36)
        d = random_dataset(rng, 60, 8, n_classes=2)
        imps = []
        for seed in (0, 1):
            f = RandomForest(ForestParams(n_trees=5, seed=seed), n_classes=2)
            f.fit(d.features, d.labels)
            imps.append(f.feature_importances())
        assert not np.array_equal(imps[0], imps[1])

    def test_importances_normalized_and_nonnegative(self):
        rng = np.random.default_rng(37)
        d = random_dataset(rng, 50, 7, n_classes=2)
        f = RandomForest(ForestParams(n_trees=6, seed=2), n_classes=2)
        f.fit(d.features, d.labels)
        imp = f.feature_importances()
        assert imp.shape == (7,)
        assert (imp >= 0.0).all()
        np.testing.assert_allclose(imp.sum(), 1.0, rtol=1e-12)

    def test_predictions_are_valid_class_ids(self):
        rng = np.random.default_rng(38)
        d = random_dataset(rng, 45, 4, n_classes=4)
        f = RandomForest(ForestParams(n_trees=5, seed=3), n_classes=4)
        f.fit(d.features, d.labels)
        pred = f.predict(rng.normal(size=(30, 4)))
        assert pred.shape == (30,)
        assert set(pred.tolist()) <= set(range(4))

    def test_single_row_nodes_become_leaves(self):
        # 2 rows of different classes allow exactly one split
        n_splits, root_class, records = grow_whole([[0.0], [1.0]], [0, 1], 2, [0])
        tree, node, feature, threshold, child, term, class_l, class_r = records
        assert n_splits.tolist() == [1]
        assert (node.tolist(), feature.tolist(), threshold.tolist()) == ([0], [0], [0.5])
        assert (class_l.tolist(), class_r.tolist(), term.tolist()) == ([0], [1], [0.5])

    def test_constant_features_fall_back_to_majority(self):
        x = np.ones((6, 2))
        y = np.array([0, 0, 0, 0, 1, 1])
        f = RandomForest(ForestParams(n_trees=3, seed=1), n_classes=2)
        f.fit(x, y)
        np.testing.assert_array_equal(f.predict(np.ones((4, 2))),
                                      np.zeros(4, dtype=np.int64))

    def test_predict_before_fit_rejected(self):
        f = RandomForest(ForestParams(n_trees=2, seed=0), n_classes=2)
        with pytest.raises((RuntimeError, ValueError)):
            f.predict(np.zeros((3, 2)))


class TestInputValidation:
    """fit and predict reject malformed inputs with a ValueError naming the fault."""

    def _forest(self):
        return RandomForest(ForestParams(n_trees=3, seed=0), n_classes=2)

    def _fitted(self):
        rng = np.random.default_rng(39)
        d = random_dataset(rng, 20, 4, n_classes=2)
        return self._forest().fit(d.features, d.labels)

    def test_label_equal_to_n_classes_rejected(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            self._forest().fit(np.zeros((4, 2)), np.array([0, 1, 2, 1]))

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            self._forest().fit(np.zeros((4, 2)), np.array([0, 1, -1, 1]))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="X has 5 rows but y has 4 labels"):
            self._forest().fit(np.zeros((5, 2)), np.array([0, 1, 0, 1]))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="on 0 rows and 3 columns"):
            self._forest().fit(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_non_finite_features_rejected(self):
        x = np.arange(8.0).reshape(4, 2)
        for bad in (np.nan, np.inf, -np.inf):
            x[2, 1] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                self._forest().fit(x, np.array([0, 1, 0, 1]))

    def test_predict_non_2d_rejected(self):
        f = self._fitted()
        for x in (np.zeros(4), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match="2-D X with the 4 columns"):
                f.predict(x)

    def test_predict_column_count_mismatch_rejected(self):
        f = self._fitted()
        for n_cols in (3, 5):
            with pytest.raises(ValueError, match="2-D X with the 4 columns"):
                f.predict(np.zeros((6, n_cols)))


def words_of(seed, n_words):
    """The first ``n_words`` 32-bit words of a PCG64 stream, as uint64."""
    raw = np.random.PCG64(seed).random_raw((n_words + 1) // 2)
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:n_words]


class TestNumpyAssumptions:
    """The lockstep fit leans on these NumPy behaviours; a NumPy change fails
    here before it can move trees."""

    def test_choice_of_one_equals_batched_integers(self):
        # One integers(0, n, size=m) draw stands in for a tree's successive
        # choice(n, size=1, replace=False) calls after its bootstrap draw.
        for n in (2, 3, 7, 2000):
            for seed in range(20):
                one, batched = np.random.default_rng(seed), np.random.default_rng(seed)
                one.integers(0, 62, size=62)
                batched.integers(0, 62, size=62)
                per_node = [int(one.choice(n, size=1, replace=False)[0]) for _ in range(123)]
                assert per_node == batched.integers(0, n, size=123).tolist(), (n, seed)

    @pytest.mark.parametrize("n_cols", [1, 2, 3])
    def test_replay_equals_default_rng_integers(self, monkeypatch, n_cols):
        # One call replays every row count from each seed's one raw stream:
        # odd row counts leave a high half buffered for the draws, and
        # smaller row counts start their draws earlier in the stream.
        def no_fallback(*args):
            raise AssertionError("a word was rejected; pick seeds without one")

        monkeypatch.setattr(forest_module, "_tree_draws", no_fallback)
        row_counts = (1, 3, 49, 50, 161, 203)
        seeds = np.random.SeedSequence(17).spawn(20)
        replayed = forest_module._replayed(17, len(seeds), row_counts, n_cols, forest_module._words)
        for n in row_counts:
            sample, draws = replayed[n]
            assert draws.shape == (len(seeds), 2 * max(row_counts) - 1)
            for t, seed in enumerate(seeds):
                rng = np.random.default_rng(seed)
                assert sample[t].tolist() == rng.integers(0, n, size=n).tolist(), (n, t)
                expected = rng.integers(0, n_cols, size=2 * n - 1)
                assert draws[t, : 2 * n - 1].tolist() == expected.tolist(), (n, t)

    def test_bounded_accepts_what_integers_returns(self):
        # Near 3 * 2**30 NumPy rejects about a quarter of all words and
        # draws again; the words the helper accepts are its values in order.
        for n in (3 * 2**30, 3 * 2**30 + 1, 2**31 + 1, 50, 2000):
            for seed in range(5):
                values, rejected = forest_module._bounded(words_of(seed, 4001), n)
                accepted = values[~rejected]
                if n > 2**31:
                    assert rejected.sum() > 500, n  # the rejection path is exercised
                expected = np.random.default_rng(seed).integers(0, n, size=len(accepted))
                assert accepted.tolist() == expected.tolist(), (n, seed)

    def test_choice_without_replacement_is_floyd_then_shuffle(self):
        # Without p, Generator.choice(n, m, replace=False) runs Floyd's
        # algorithm and shuffles the picks, each draw one Lemire-bounded
        # word as `_bounded` maps it, unless n > 10,000 and m > n // 50:
        # then it shuffles the tail of arange(n), which Floyd does not match.
        for n, m in [(4, 2), (10, 3), (49, 7), (50, 10), (2000, 44), (20000, 141), (20000, 400)]:
            for seed in range(2):
                rng, words = np.random.default_rng(seed), iter(words_of(seed, 2**16).tolist())
                next_word = words.__next__
                bootstrap = rng.integers(0, 62, size=62).tolist()
                assert [oracle_bounded(next_word, 62) for _ in range(62)] == bootstrap
                for call in range(60):
                    picks = rng.choice(n, size=m, replace=False).tolist()
                    assert picks == oracle_choice(next_word, n, m), (n, m, seed, call)
        for seed in range(2):
            rng, words = np.random.default_rng(seed), iter(words_of(seed, 2**16).tolist())
            tail = rng.choice(20000, size=401, replace=False).tolist()
            assert tail != oracle_choice(words.__next__, 20000, 401), seed

    def test_weighted_bincount_adds_in_order_as_add_at(self):
        # `_grow` sums each forest's importance terms with a weighted
        # bincount; it must add each bin's terms in input order, as
        # np.add.at and a tree-by-tree fit do.
        rng = np.random.default_rng(42)
        ids = rng.integers(0, 7, size=3000)
        terms = rng.random(3000) * 10.0 ** rng.integers(-12, 1, size=3000)
        expected = np.zeros(9)
        np.add.at(expected, ids, terms)
        in_order = [0.0] * 9
        for i, term in zip(ids.tolist(), terms.tolist()):
            in_order[i] += term
        assert expected.tolist() == in_order
        assert np.bincount(ids, weights=terms, minlength=9).tobytes() == expected.tobytes()
        # The terms are spread so that another order sums to other bits.
        shuffled = np.zeros(9)
        np.add.at(shuffled, ids[::-1], terms[::-1])
        assert shuffled.tobytes() != expected.tobytes()

    @pytest.mark.parametrize("n_classes", range(1, 13))
    def test_class_sum_equals_sum_over_last_axis(self, n_classes):
        # Size-1 axes (one candidate, one node, one boundary) are coalesced
        # by NumPy's reduction, so each shape is pinned on its own.
        rng = np.random.default_rng(4100 + n_classes)
        shapes = [(61, 3, 44), (61, 1, 44), (61, 3, 1), (61, 1, 1), (1, 3, 44), (1, 1, 1), (200,), (1,), ()]
        for shape in shapes:
            a = np.square(rng.random(shape + (n_classes,)) * 10.0 ** rng.integers(-6, 6, size=shape + (n_classes,)))
            got, expected = forest_module._last_axis_sum(a), a.sum(axis=-1)
            assert np.shape(got) == expected.shape, shape
            assert np.asarray(got).tobytes() == expected.tobytes(), shape

    def test_batched_impurity_equals_per_node_dot(self):
        rng = np.random.default_rng(41)
        for n_classes in range(2, 13):
            counts = rng.integers(0, 40, size=(500, n_classes))
            counts[:, 0] += 1  # no empty node
            sizes = counts.sum(axis=1)
            per_node = []
            for c, n in zip(counts, sizes):
                p = c / n
                per_node.append(float(1.0 - np.dot(p, p)))
            assert forest_module._impurity(counts, sizes).tolist() == per_node, n_classes


def forest_case(case: int):
    """Seeded inputs: ties, a duplicated and a constant column, 2-12 classes,
    and 1-12 columns, so one candidate per node (at most 3 columns) or
    several by ``rng.choice``."""
    rng = np.random.default_rng(4000 + case)
    n_rows = int(rng.integers(2, 121))
    n_cols = int(rng.integers(1, 13))
    n_classes = 2 + case % 11
    x = np.round(rng.normal(size=(n_rows, n_cols)), case % 4)
    if n_cols >= 3:
        x[:, 1] = x[:, 0]
        x[:, 2] = 0.25
    y = rng.integers(0, n_classes, size=n_rows)
    y[: min(n_rows, n_classes)] = np.arange(min(n_rows, n_classes))
    params = ForestParams(n_trees=3, seed=case)
    test_x = np.round(rng.normal(size=(17, n_cols)), case % 4)
    return x, y, n_classes, params, test_x


class TestAgainstOracle:
    """The array split search reproduces a per-candidate, stack-walk forest."""

    def test_importances_predictions_and_node_count_exact(self):
        widths = set()
        for case in range(102):
            x, y, n_classes, params, test_x = forest_case(case)
            widths.add(x.shape[1])
            imp, pred, n_nodes = oracle_forest(x, y, n_classes, params, test_x)
            f = RandomForest(params, n_classes=n_classes).fit(x, y)
            assert f.feature_importances().tolist() == imp.tolist(), case
            assert f.predict(test_x).tolist() == pred.tolist(), case
            assert sum(len(t.feature) for t in f.trees) == n_nodes, case
            # Every split leaves rows on both sides, so at most n leaves.
            assert all(len(t.feature) <= 2 * len(x) - 1 for t in f.trees), case
        assert widths == set(range(1, 13))


def lockstep_cases():
    """Seeded many-tree fits whose lockstep steps take the shapes named."""
    rng = np.random.default_rng(4200)
    # 60 bootstrap roots of 90 rows x 3 candidates overflow one chunk.
    x = np.round(rng.normal(size=(90, 12)), 1)
    y = rng.integers(0, 3, size=90)
    yield "two chunks", x, y, 3, ForestParams(n_trees=60, seed=5)
    # One informative column among constant ones: with one candidate per
    # node (3 columns), most searched nodes in a step find no split.
    x = np.full((40, 3), 0.5)
    x[:, 2] = rng.normal(size=40)
    y = (x[:, 2] + rng.normal(size=40) > 0).astype(np.int64)
    yield "one split", x, y, 2, ForestParams(n_trees=40, seed=6)
    # Four classes, two candidates per node.
    x = np.round(rng.normal(size=(70, 5)), 2)
    y = rng.integers(0, 4, size=70)
    yield "four classes", x, y, 4, ForestParams(n_trees=30, seed=7)
    # Noisy labels over twelve classes, one candidate per node: trees grow
    # deep, and stacks many entries deep push and pop beside shallow ones.
    x = np.round(rng.normal(size=(120, 2)), 2)
    y = rng.integers(0, 12, size=120)
    yield "deep stacks", x, y, 12, ForestParams(n_trees=20, seed=8)


class TestLockstepShapes:
    """Many trees per step, mixed node sizes, chunked steps and lone splits
    reproduce the per-candidate oracle exactly."""

    def test_many_tree_fits_match_oracle(self, monkeypatch):
        searches = []  # (node sizes, number of nodes that split) per chunk
        search = forest_module._best_splits

        def recorded(X, onehot, rows, sizes, *rest):
            out = search(X, onehot, rows, sizes, *rest)
            searches.append((sizes.tolist(), int((out[0] > 0.0).sum())))
            return out

        monkeypatch.setattr(forest_module, "_best_splits", recorded)
        shapes = set()
        for name, x, y, n_classes, params in lockstep_cases():
            searches.clear()
            test_x = np.round(np.random.default_rng(4201).normal(size=(25, x.shape[1])), 1)
            imp, pred, n_nodes = oracle_forest(x, y, n_classes, params, test_x)
            f = RandomForest(params, n_classes=n_classes).fit(x, y)
            assert f.feature_importances().tolist() == imp.tolist(), name
            assert f.predict(test_x).tolist() == pred.tolist(), name
            assert sum(len(t.feature) for t in f.trees) == n_nodes, name
            if any(len(set(sizes)) > 1 for sizes, _ in searches):
                shapes.add("mixed sizes")
            if sum(sizes == [len(x)] * len(sizes) for sizes, _ in searches) >= 2:
                shapes.add("root step in chunks")  # only roots hold every row
            if any(len(sizes) > 1 and splits == 1 for sizes, splits in searches):
                shapes.add("one of many splits")
        assert shapes == {"mixed sizes", "root step in chunks", "one of many splits"}


class TestTieOrder:
    """The split search may order equal values either way: permuting the
    rows inside each tree's segment of the row order moves no split."""

    @staticmethod
    def draws(path, n_trees, n_cols, longest):
        """Fresh draws for one growth on ``path``, as `_lockstep` takes them."""
        if path == "one candidate":
            return np.random.default_rng(13).integers(0, n_cols, size=(n_trees, 2 * longest - 1))
        rngs = [np.random.default_rng(seed) for seed in np.random.SeedSequence(13).spawn(n_trees)]
        return rngs, np.arange(n_trees)

    @pytest.mark.parametrize("n_classes", [2, 5])
    @pytest.mark.parametrize("path, max_features", [("one candidate", 1), ("rng.choice", 3)])
    def test_permuted_segments_give_identical_records(self, monkeypatch, path, max_features, n_classes):
        sorted_rows, search = [], forest_module._best_splits

        def recorded(*args):
            out = search(*args)
            sorted_rows.append(out[4].tobytes())
            return out

        monkeypatch.setattr(forest_module, "_best_splits", recorded)
        rng = np.random.default_rng(4600 + n_classes)
        x = np.round(rng.normal(size=(60, 7)), 0)
        x[:, 3:] = np.round(rng.normal(size=(60, 4)), 1)
        x[:, 1] = x[:, 4]  # a duplicated column
        y = rng.integers(0, n_classes, size=60)
        n_rows = np.array([60, 60, 60, 45, 45, 30, 30, 30])
        # Bootstrap samples: rows repeat inside a segment.
        order = np.concatenate([rng.integers(0, 60, size=n) for n in n_rows])
        edges = np.cumsum(n_rows)[:-1]
        permuted = np.concatenate([rng.permutation(seg) for seg in np.split(order, edges)])
        assert permuted.tolist() != order.tolist()
        grown, searched = [], []
        for rows in (order, permuted):
            sorted_rows.clear()
            draws = self.draws(path, len(n_rows), x.shape[1], int(n_rows.max()))
            grown.append(forest_module._lockstep(x, y, n_classes, max_features, rows.copy(), draws, n_rows))
            searched.append(list(sorted_rows))
        (n_splits, root_class, records), (n_splits_b, root_class_b, records_b) = grown
        assert n_splits.tolist() == n_splits_b.tolist()
        assert n_splits.sum() > 5 * len(n_rows)
        assert root_class.tolist() == root_class_b.tolist()
        for a, b in zip(records, records_b):
            assert a.tobytes() == b.tobytes()
        # The searches saw the same nodes with their rows in other orders.
        assert len(searched[0]) == len(searched[1])
        assert searched[0] != searched[1]


def fold_blocks(x, y, n_folds):
    """Out-of-fold training blocks, one per fold (fold of row r: r % n_folds)."""
    fold = np.arange(len(y)) % n_folds
    return [(x[fold != f], y[fold != f]) for f in range(n_folds)]


class TestFitForests:
    """Several training blocks grown in one lockstep growth equal lone fits."""

    @pytest.mark.parametrize("n_cols", [1, 3, 6])
    def test_each_block_equals_a_lone_fit(self, n_cols):
        # 1: one column, every column a candidate; 3: up-front candidate
        # draws; 6: rng.choice per node.  Five folds of 62 rows give
        # training blocks of 49 and 50 rows; two more blocks have 23 rows,
        # one of them 4 columns (rng.choice, in a growth of its own).
        rng = np.random.default_rng(4300)
        x = np.round(rng.normal(size=(62, 6)), 1)
        x[:, 5] = x[:, 4]
        y = rng.integers(0, 3, size=62)
        blocks = fold_blocks(x[:, :n_cols], y, 5) + [(x[:23, :n_cols], y[:23]), (x[30:53, :4], y[30:53])]
        params = ForestParams(n_trees=12, seed=9)
        forests = fit_forests(params, 3, blocks)
        assert len(forests) == len(blocks)
        for b, (forest, (bx, by)) in enumerate(zip(forests, blocks)):
            alone = RandomForest(params, n_classes=3).fit(bx, by)
            assert len(forest.trees) == len(alone.trees) == 12, b
            for grown, lone in zip(forest.trees, alone.trees):
                for field, a, e in zip(lone._fields, grown, lone):
                    assert a.tolist() == e.tolist(), (b, field)
            assert forest.feature_importances().tolist() == alone.feature_importances().tolist(), b

    def test_blocks_of_one_row_count_share_generators(self, monkeypatch):
        # With rng.choice per node, tree t of every block with n rows reads
        # one generator, called once per step while any of them searches:
        # as often as the longest of their lone fits calls its own.
        tree_draws, made = forest_module._tree_draws, []

        class Counted:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def choice(self, *args, **kwargs):
                self.calls += 1
                return self.rng.choice(*args, **kwargs)

        def counted(*args):
            rng, sample, draws = tree_draws(*args)
            made.append(Counted(rng))
            return made[-1], sample, draws

        monkeypatch.setattr(forest_module, "_tree_draws", counted)
        blocks, _ = TestMixedRowCounts.blocks(5)  # 49, 49, 50, 50, 50 and 23 rows
        params = ForestParams(n_trees=10, seed=11)  # two candidates per node
        longest, alone = {}, []
        for bx, by in blocks:
            made.clear()
            alone.append(RandomForest(params, n_classes=3).fit(bx, by))
            for t, rng in enumerate(made):
                longest[len(by), t] = max(longest.get((len(by), t), 0), rng.calls)
        made.clear()
        forests = fit_forests(params, 3, blocks)
        row_counts = [49, 50, 23]
        assert len(made) == len(row_counts) * params.n_trees
        calls = {(row_counts[i // params.n_trees], i % params.n_trees): rng.calls for i, rng in enumerate(made)}
        assert calls == longest
        for b, (forest, lone) in enumerate(zip(forests, alone)):
            for a, e in zip(forest._table, lone._table):
                assert a.tobytes() == e.tobytes(), b
            assert forest._raw_importances.tobytes() == lone._raw_importances.tobytes(), b

    def test_each_block_is_checked(self):
        good = (np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            fit_forests(ForestParams(n_trees=2), 2, [good, (np.zeros((4, 2)), np.array([0, 1, 2, 1]))])
        with pytest.raises(ValueError, match="at least one training block"):
            fit_forests(ForestParams(n_trees=2), 2, [])


class TestMixedRowCounts:
    """One growth over blocks of several row counts, and a tree whose replayed
    draws hit a rejected word, reproduce the oracle exactly."""

    @staticmethod
    def blocks(n_cols):
        # Five folds of 62 rows train on 49 or 50 rows; one more block has 23.
        rng = np.random.default_rng(4500)
        x = np.round(rng.normal(size=(62, 5)), 1)[:, :n_cols]
        y = rng.integers(0, 3, size=62)
        test_x = np.round(rng.normal(size=(20, 5)), 1)[:, :n_cols]
        return fold_blocks(x, y, 5) + [(x[:23], y[:23])], test_x

    def assert_blocks_match_oracle(self, params, n_cols):
        blocks, test_x = self.blocks(n_cols)
        forests = fit_forests(params, 3, blocks)
        for b, (forest, (bx, by)) in enumerate(zip(forests, blocks)):
            imp, pred, n_nodes = oracle_forest(bx, by, 3, params, test_x)
            assert forest.feature_importances().tolist() == imp.tolist(), b
            assert forest.predict(test_x).tolist() == pred.tolist(), b
            assert sum(len(t.feature) for t in forest.trees) == n_nodes, b

    # 1: one column, every column a candidate; 2: up-front candidate
    # draws; 5: rng.choice per node.
    @pytest.mark.parametrize("n_cols", [1, 2, 5])
    def test_each_block_equals_the_oracle(self, n_cols):
        self.assert_blocks_match_oracle(ForestParams(n_trees=10, seed=11), n_cols)

    # Only growths on at most 3 columns replay words; rng.choice reads none.
    @pytest.mark.parametrize("n_cols", [1, 2])
    def test_rejected_word_falls_back_to_the_generator(self, monkeypatch, cold_words, n_cols):
        # Tree 2's words read as rejected, and its replayed values are wrong
        # as they would be after a rejection; its own generator must redraw.
        bounded, tree_draws = forest_module._bounded, forest_module._tree_draws
        fallbacks = []

        def rejecting(words, n):
            values, rejected = bounded(words, n)
            values[2] = (values[2] + 1) % n
            rejected[2] = True
            return values, rejected

        def counted(seed, n_rows, *rest):
            fallbacks.append(n_rows)
            return tree_draws(seed, n_rows, *rest)

        monkeypatch.setattr(forest_module, "_bounded", rejecting)
        monkeypatch.setattr(forest_module, "_tree_draws", counted)
        self.assert_blocks_match_oracle(ForestParams(n_trees=6, seed=12), n_cols)
        assert sorted(fallbacks) == [23, 49, 50], fallbacks


@pytest.fixture
def cold_words():
    """The shared word table, empty before and after the test, so no test
    reads a table another one built."""
    forest_module._shared_words.cache_clear()
    yield forest_module._shared_words
    forest_module._shared_words.cache_clear()


class TestSharedWords:
    """`fit_forests` builds each seed's replayed words once per process;
    `RandomForest.fit` builds its own."""

    @staticmethod
    def two_column_blocks():
        # Five folds of 62 rows train on 49 or 50 rows: one candidate per node.
        return TestMixedRowCounts.blocks(2)[0][:5]

    def test_second_growth_builds_no_stream(self, monkeypatch, cold_words):
        built = []
        pcg64 = np.random.PCG64

        def counted(*args):
            built.append(args)
            return pcg64(*args)

        monkeypatch.setattr(np.random, "PCG64", counted)
        blocks, test_x = TestMixedRowCounts.blocks(2)  # one candidate per node
        params = ForestParams(n_trees=10, seed=11)
        first = fit_forests(params, 3, blocks)
        assert len(built) == params.n_trees
        second = fit_forests(params, 3, blocks)
        assert len(built) == params.n_trees
        for b, (again, forest, (bx, by)) in enumerate(zip(second, first, blocks)):
            for a, e in zip(again._table, forest._table):
                assert a.tobytes() == e.tobytes(), b
            assert again._raw_importances.tobytes() == forest._raw_importances.tobytes(), b
            imp, pred, n_nodes = oracle_forest(bx, by, 3, params, test_x)
            assert again.feature_importances().tolist() == imp.tolist(), b
            assert again.predict(test_x).tolist() == pred.tolist(), b
            assert sum(len(t.feature) for t in again.trees) == n_nodes, b

    def test_lone_fit_reads_no_table(self, cold_words):
        # The lone fit replays as many words per tree as the CV growth did
        # (50 rows at most), so reading the table would be a hit.
        blocks = self.two_column_blocks()
        params = ForestParams(n_trees=10, seed=11)
        fit_forests(params, 3, blocks)
        filled = cold_words.cache_info()
        assert filled.misses == 1
        x, y = blocks[2]
        assert len(y) == 50
        RandomForest(params, n_classes=3).fit(x, y)
        assert cold_words.cache_info() == filled
        fit_forests(params, 3, [(x, y)])
        assert cold_words.cache_info().hits == filled.hits + 1

    def test_tables_are_read_only_and_bounded(self, cold_words):
        x, y = self.two_column_blocks()[2]
        bound = cold_words.cache_parameters()["maxsize"]
        for seed in range(bound + 3):
            fit_forests(ForestParams(n_trees=4, seed=seed), 3, [(x, y)])
            assert cold_words.cache_info().currsize <= bound, seed
        assert cold_words.cache_info().currsize == bound
        # 50 bootstrap words and 99 draws per tree: 75 raw outputs.
        hits = cold_words.cache_info().hits
        words = cold_words(bound + 2, 4, 75)
        assert cold_words.cache_info().hits == hits + 1
        assert words.shape == (4, 150) and not words.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            words[0, 0] = 0


class TestTreesView:
    """`RandomForest.trees` gives each tree with child ids local to it."""

    def test_walking_each_tree_gives_the_votes_predict_counts(self):
        # Five folds of 62 rows train on 49 or 50 rows; one more block has
        # 23 rows of 4 columns, so it grows in a growth of its own.
        rng = np.random.default_rng(4400)
        x = np.round(rng.normal(size=(62, 6)), 1)
        y = rng.integers(0, 3, size=62)
        blocks = fold_blocks(x, y, 5) + [(x[:23, :4], y[:23])]
        forests = fit_forests(ForestParams(n_trees=9, seed=3), 3, blocks)
        test_x = np.round(rng.normal(size=(30, 6)), 1)
        for b, (forest, (bx, _)) in enumerate(zip(forests, blocks)):
            tx = test_x[:, : bx.shape[1]]
            votes = np.zeros((len(tx), 3), dtype=np.int64)
            assert len(forest.trees) == 9, b
            for tree in forest.trees:
                walk = [(0, np.arange(len(tx)))]
                while walk:
                    node, rows = walk.pop()
                    if tree.feature[node] < 0:
                        votes[rows, tree.leaf_class[node]] += 1
                        continue
                    goes_left = tx[rows, tree.feature[node]] <= tree.threshold[node]
                    walk += [(tree.left[node], rows[goes_left]), (tree.right[node], rows[~goes_left])]
            assert (votes.sum(axis=1) == 9).all(), b
            assert forest.predict(tx).tolist() == votes.argmax(axis=1).tolist(), b

    def test_unfitted_forest_has_no_trees(self):
        assert RandomForest(ForestParams(n_trees=2), n_classes=2).trees == []


class TestFitMemory:
    """Chunked split searches keep a default fit's working arrays small."""

    @staticmethod
    def colon_design():
        rng = np.random.default_rng(62)
        y = np.repeat([0, 1], (22, 40))
        x = rng.normal(size=(62, 2000))
        x[:, :20] += 2.0 * y[:, None]
        return (x - x.mean(axis=0)) / x.std(axis=0), y

    def test_peak_traced_memory_of_a_default_fit(self):
        x, y = self.colon_design()
        tracemalloc.start()
        try:
            RandomForest(ForestParams(), 2).fit(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_peak_traced_memory_of_a_five_fold_fit(self):
        # All five folds' default forests grow at once on one stacked copy
        # of their training rows, under the one-fit bound.
        blocks = fold_blocks(*self.colon_design(), 5)
        tracemalloc.start()
        try:
            fit_forests(ForestParams(), 2, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n_cols", [12, 3])
    def test_peak_traced_memory_of_a_five_fold_lung_shaped_fit(self, n_cols):
        # The study's largest shape, 203 rows in 5 classes (ROADMAP item 7),
        # on 12 selected columns (rng.choice) or 3 (one candidate per node):
        # deep trees, whose stacks hold only the depth they reach.
        rng = np.random.default_rng(203)
        y = rng.permutation(np.repeat(np.arange(5), (139, 21, 20, 17, 6)))
        x = rng.normal(size=(203, 12))
        x[:, :6] += 0.8 * rng.normal(size=(5, 6))[y]
        blocks = fold_blocks(x[:, :n_cols], y, 5)
        tracemalloc.start()
        try:
            fit_forests(ForestParams(), 5, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# Grows one tree on all three rows, whose first two values are adjacent
# doubles, so their midpoint rounds up to the larger one, and prints what
# it grew.
ADJACENT_DOUBLES_FIT = """
import json
import numpy as np
from ffsel import forest as forest_module

x = np.array([[1 + 2.0**-52], [1 + 2.0**-51], [2 + 2.0**-51]])
y = np.array([0, 1, 1])
n_splits, _, records = forest_module._lockstep(x, y, 2, 1, np.arange(3), np.zeros((1, 5), dtype=np.int64), np.array([3]))
_, _, _, threshold, _, term, class_l, class_r = records
print(json.dumps({
    "nodes": 2 * int(n_splits[0]) + 1,
    "threshold": float(threshold[0]),
    "predict": np.where(x[:, 0] <= threshold[0], class_l[0], class_r[0]).tolist(),
    "importance term": float(term[0]),
}))
"""


class TestAdjacentDoubles:
    """A midpoint that rounds up to the upper value must not regrow the node."""

    def test_split_between_adjacent_doubles_terminates(self):
        # A child that equals its parent would grow forever, so the fit runs
        # in a child process that the test can stop.
        paths = [str(Path(ffsel.__file__).parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        try:
            done = subprocess.run(
                [sys.executable, "-c", ADJACENT_DOUBLES_FIT],
                capture_output=True, text=True, env=env, timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("one-tree fit on adjacent doubles did not finish in 30 s")
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        assert got["nodes"] == 3
        assert got["threshold"] == 1 + 2.0**-52
        assert got["predict"] == [0, 1, 1]
        assert got["importance term"] == pytest.approx(4 / 9, rel=1e-15)  # the root's whole impurity
