"""Random forest of CART trees with Gini splits and impurity-based importances.

One learner serves two callers: the GINI relevance estimator (mean decrease
in impurity, averaged over trees and normalized to sum 1) and the forest
classifier (majority vote over trees).  Everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["ForestParams", "RandomForest"]


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_features: int | None = None  # None -> floor(sqrt(n_cols)), min 1
    min_samples_split: int = 2
    bootstrap: bool = True
    seed: int = 0

    def resolve_max_features(self, n_cols: int) -> int:
        if self.max_features is None:
            return max(1, int(np.sqrt(n_cols)))
        return max(1, min(self.max_features, n_cols))


class _Tree(NamedTuple):
    """CART classification tree stored as node arrays.

    Internal nodes carry (feature, threshold); rows with value <= threshold
    go left.  A leaf has feature -1 and is its own left and right child.
    Every node's leaf class is the majority class of its training rows,
    ties resolved toward the smaller class id.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray


def _best_split(X, onehot, idx, candidates, counts, node_gini, sizes):
    """First maximal Gini gain over a node's rows ``idx`` and ``candidates``.

    Sorts every candidate column at once, counts the classes left of each
    boundary between sorted rows from the (rows x classes) indicator
    ``onehot`` as (boundaries x candidates x classes), and scores all
    boundaries as one (boundaries x candidates) array.  Classes stay on the
    last, contiguous axis, so each boundary sums its class terms in the
    order a one-column search would.  A boundary between equal values is no
    split.  The first column in ``candidates`` order wins a tie, and within
    it the first boundary.  Returns (gain, candidate position, threshold,
    left rows, right rows, left class counts); the gain is -inf when every
    candidate is constant at this node.  The threshold is the boundary's
    midpoint, or its lower value if the midpoint rounds up to the upper.
    """
    n = idx.shape[0]
    rows = idx[X[idx[:, None], candidates].argsort(axis=0, kind="stable")]
    values = X[rows, candidates]
    lc = onehot[rows[:-1]].cumsum(axis=0)
    nl, nr = sizes[1:n, None], sizes[n - 1:0:-1, None]
    gini_l = 1.0 - np.square(lc / nl[..., None]).sum(axis=2)
    gini_r = 1.0 - np.square((counts - lc) / nr[..., None]).sum(axis=2)
    gains = node_gini - (nl * gini_l + nr * gini_r) / n
    gains = np.where(values[1:] > values[:-1], gains, -np.inf)
    j, i = divmod(int(gains.T.argmax()), n - 1)
    split = 0.5 * (values[i, j] + values[i + 1, j])
    if split == values[i + 1, j]:
        split = values[i, j]
    return gains[i, j], j, split, rows[: i + 1, j], rows[i + 1 :, j], lc[i, j]


class RandomForest:
    """Forest of Gini-split CART trees with MDI feature importances."""

    def __init__(self, params: ForestParams, n_classes: int):
        if params.n_trees < 1:
            raise ValueError("n_trees must be positive")
        self.params = params
        self.n_classes = n_classes
        self.trees: list[_Tree] = []
        self._raw_importances: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n_rows, n_cols = X.shape
        max_features = self.params.resolve_max_features(n_cols)
        importances = np.zeros(n_cols, dtype=np.float64)
        self.trees = []
        seeds = np.random.SeedSequence(self.params.seed).spawn(self.params.n_trees)
        for t in range(self.params.n_trees):
            rng = np.random.default_rng(seeds[t])
            if self.params.bootstrap:
                sample = rng.integers(0, n_rows, size=n_rows)
            else:
                sample = np.arange(n_rows)
            tree = self._grow_tree(X, y, sample, max_features, rng, importances)
            self.trees.append(tree)
        importances /= self.params.n_trees
        self._raw_importances = importances
        return self

    def _grow_tree(self, X, y, sample, max_features, rng, importances) -> _Tree:
        n_total = sample.shape[0]
        n_cols = X.shape[1]
        min_split = max(2, self.params.min_samples_split)
        onehot = y[:, None] == np.arange(self.n_classes)
        sizes = np.arange(n_total + 1, dtype=np.float64)  # row counts either side of a boundary
        feature, threshold, left, right, leaf_class = [-1], [0.0], [0], [0], [0]
        stack = [(0, sample, np.bincount(y[sample], minlength=self.n_classes))]
        while stack:
            node, idx, counts = stack.pop()
            leaf_class[node] = int(counts.argmax())
            p = counts / idx.shape[0]  # a node's counts sum to its row count
            node_gini = float(1.0 - np.dot(p, p))
            if idx.shape[0] < min_split or node_gini == 0.0:
                continue
            if max_features >= n_cols:
                candidates = np.arange(n_cols)
            else:
                candidates = rng.choice(n_cols, size=max_features, replace=False)
            gain, j, split, rows_l, rows_r, counts_l = _best_split(X, onehot, idx, candidates, counts, node_gini, sizes)
            if gain <= 0.0:
                continue
            f = int(candidates[j])
            importances[f] += (idx.shape[0] / n_total) * gain
            # Two new leaves, each its own child until it splits.
            child = len(feature)
            feature[node], threshold[node] = f, float(split)
            left[node], right[node] = child, child + 1
            feature += (-1, -1)
            threshold += (0.0, 0.0)
            left += (child, child + 1)
            right += (child, child + 1)
            leaf_class += (0, 0)
            stack.append((child, rows_l, counts_l))
            stack.append((child + 1, rows_r, counts - counts_l))
        return _Tree(*map(np.array, (feature, threshold, left, right, leaf_class)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote over trees; vote ties go to the smaller class id.

        All trees walk together over their concatenated node arrays, every
        (tree, row) pair moving down one level per step; a pair that reached
        a leaf stays there, since a leaf is its own child.
        """
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        n_nodes = [len(t.feature) for t in self.trees]
        start = np.cumsum([0] + n_nodes[:-1])
        feature, threshold, left, right, leaf_class = map(np.concatenate, zip(*self.trees))
        shift = np.repeat(start, n_nodes)
        left, right = left + shift, right + shift
        rows = np.arange(X.shape[0])
        node = np.repeat(start[:, None], X.shape[0], axis=1)
        while not (feature[node] < 0).all():
            goes_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(goes_left, left[node], right[node])
        votes = np.zeros((X.shape[0], self.n_classes), dtype=np.int64)
        np.add.at(votes, (rows, leaf_class[node]), 1)
        return votes.argmax(axis=1)

    def feature_importances(self) -> np.ndarray:
        """Per-feature mean weighted impurity decrease, normalized to sum 1.

        A forest that never split (all-constant features or pure labels)
        keeps the all-zero vector instead of dividing by zero.
        """
        if self._raw_importances is None:
            raise RuntimeError("forest is not fitted")
        total = self._raw_importances.sum()
        if total == 0.0:
            return np.zeros_like(self._raw_importances)
        return self._raw_importances / total
