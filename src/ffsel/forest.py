"""Random forest of CART trees with Gini splits and impurity-based importances.

One learner serves two callers: the GINI relevance estimator (mean decrease
in impurity, averaged over trees and normalized to sum 1) and the forest
classifier (majority vote over trees).  Everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["ForestParams", "RandomForest", "fit_forests"]


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_features: int | None = None  # None -> floor(sqrt(n_cols)), min 1
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


# Most padded (rows x candidates) cells one split search scores at once.  A
# step's nodes are searched in chunks of this size, so a fit's working
# arrays stay small however many trees grow together.
_CELLS = 8192


def _impurity(counts, sizes):
    """Gini impurity of each row of ``counts`` (nodes x classes), whose rows
    sum to ``sizes``.  A stacked ``matmul`` gives each node the bits of
    ``np.dot(p, p)`` on its own class shares."""
    p = counts / sizes[:, None]
    return 1.0 - np.matmul(p[:, None, :], p[:, :, None])[:, 0, 0]


def _best_splits(X, onehot, rows, sizes, candidates, counts, node_gini):
    """First maximal Gini gain at each node of a chunk.

    Node ``s`` holds the training rows ``rows[:sizes[s], s]``; the rest of
    its column is padding, which sorts last as +inf.  Every node's candidate
    columns (``candidates[s]``) are sorted at once, the classes left of each
    boundary between sorted rows are counted from the (rows x classes)
    indicator ``onehot`` as (boundaries x nodes x candidates x classes), and
    every boundary is scored.  Boundaries lead, so the running count adds
    whole contiguous blocks; classes stay on the last, contiguous axis, so
    each boundary sums its class terms in the order a one-column search
    would.  A boundary between equal values, or at or past a node's last
    row, is no split.  The first column in ``candidates`` order wins a tie,
    and within it the first boundary.

    Returns per node (gain, candidate position, threshold, left size, the
    winning column's sorted rows, left class counts); the gain is -inf when
    every candidate is constant at that node.  The threshold is the
    boundary's midpoint, or its lower value if the midpoint rounds up to the
    upper.  The sorted rows are gathered into a new array, so children do
    not keep the chunk's working arrays alive.
    """
    width, n_nodes = rows.shape
    values = X[rows[:, :, None], candidates]
    values[np.arange(width)[:, None] >= sizes] = np.inf
    rows = rows[values.argsort(axis=0, kind="stable"), np.arange(n_nodes)[:, None]]
    values = X[rows, candidates]
    lc = onehot[rows[:-1]].cumsum(axis=0)
    nl = np.arange(1, width, dtype=np.float64)[:, None, None]
    nr = np.maximum(sizes[:, None] - nl, 1.0)  # 1 past a node's rows keeps padding finite
    gini_l = 1.0 - np.square(lc / nl[..., None]).sum(axis=3)
    gini_r = 1.0 - np.square((counts[:, None, :] - lc) / nr[..., None]).sum(axis=3)
    gains = node_gini[:, None] - (nl * gini_l + nr * gini_r) / sizes[:, None]
    inside = nl < sizes[:, None]
    gains = np.where(inside & (values[1:] > values[:-1]), gains, -np.inf)
    best = gains.transpose(1, 2, 0).reshape(n_nodes, -1).argmax(axis=1)
    j, i = np.divmod(best, width - 1)
    s = np.arange(n_nodes)
    lo, hi = values[i, s, j], values[i + 1, s, j]
    split = 0.5 * (lo + hi)
    split = np.where(split == hi, lo, split)
    return gains[i, s, j], j, split, i + 1, rows[:, s, j].T, lc[i, s, j]


class _Growth:
    """One tree while the forest grows: its generator, DFS stack and nodes.

    A stack entry is (node, rows, class counts, impurity); rows index the
    shared row space of the growth.  With one candidate per node, ``draws``
    yields the tree's candidate draws, made in one call after the bootstrap
    draw; otherwise it is None.  ``n_rows`` is the size of the tree's own
    training block, which weighs its importance terms.
    """

    def __init__(self, rng, draws, sample, n_rows, counts, gini):
        self.rng, self.draws, self.n_rows = rng, draws, n_rows
        self.stack = [(0, sample, counts, gini)]
        self.feature, self.threshold = [-1], [0.0]
        self.left, self.right = [0], [0]
        self.leaf_class = [int(counts.argmax())]
        self.splits: list[tuple[int, float]] = []  # (feature, importance term), DFS order

    def next_search(self):
        """Pop the next impure node, leaving pure ones (one-row nodes among
        them) as leaves."""
        while self.stack:
            entry = self.stack.pop()
            if entry[3] != 0.0:
                return entry
        return None

    def candidates(self, n_cols, max_features):
        if max_features >= n_cols:
            return np.arange(n_cols)
        if self.draws is not None:
            return (next(self.draws),)
        return self.rng.choice(n_cols, size=max_features, replace=False)

    def split(self, node, f, threshold, term, left, right):
        """Turn leaf ``node`` into a split on column ``f`` with two new leaves,
        each its own child until it splits.  ``left`` and ``right`` are the
        children's (rows, class counts, impurity, leaf class)."""
        child = len(self.feature)
        self.splits.append((f, term))
        self.feature[node], self.threshold[node] = f, threshold
        self.left[node], self.right[node] = child, child + 1
        self.feature += (-1, -1)
        self.threshold += (0.0, 0.0)
        self.left += (child, child + 1)
        self.right += (child, child + 1)
        self.leaf_class += (left[3], right[3])
        self.stack.append((child, *left[:3]))
        self.stack.append((child + 1, *right[:3]))

    def tree(self) -> _Tree:
        return _Tree(*map(np.array, (self.feature, self.threshold, self.left, self.right, self.leaf_class)))


def _split_chunk(X, onehot, chunk):
    """Search a chunk of (growth, node, rows, class counts, impurity,
    candidates) and split every node with a positive gain."""
    growths, nodes, node_rows, counts, node_gini, candidates = zip(*chunk)
    sizes = np.array([len(r) for r in node_rows])
    rows = np.zeros((sizes[0], len(chunk)), dtype=np.int64)  # padded with row 0
    for k, r in enumerate(node_rows):
        rows[: len(r), k] = r
    counts, candidates = np.stack(counts), np.array(candidates)
    gain, j, split, n_left, win, counts_l = _best_splits(
        X, onehot, rows, sizes, candidates, counts, np.array(node_gini)
    )
    counts_r = counts - counts_l
    gini_l = _impurity(counts_l, n_left).tolist()
    gini_r = _impurity(counts_r, sizes - n_left).tolist()
    class_l, class_r = counts_l.argmax(axis=1).tolist(), counts_r.argmax(axis=1).tolist()
    feature = candidates[np.arange(len(chunk)), j].tolist()
    term = (sizes / np.array([g.n_rows for g in growths]) * gain).tolist()
    split, n_left = split.tolist(), n_left.tolist()
    for k in np.flatnonzero(gain > 0.0).tolist():
        m = n_left[k]
        growths[k].split(
            nodes[k], feature[k], split[k], term[k],
            (win[k, :m], counts_l[k], gini_l[k], class_l[k]),
            (win[k, m : sizes[k]], counts_r[k], gini_r[k], class_r[k]),
        )


def _checked(X, y, n_classes):
    """One training block as (float64 X, int64 y), or a ValueError naming its fault."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.ndim != 1:
        raise ValueError(f"need a 2-D X and 1-D y, got {X.ndim}-D and {y.ndim}-D")
    n_rows, n_cols = X.shape
    if y.shape[0] != n_rows:
        raise ValueError(f"X has {n_rows} rows but y has {y.shape[0]} labels")
    if n_rows == 0 or n_cols == 0:
        raise ValueError(f"cannot train on {n_rows} rows and {n_cols} columns")
    if not np.isfinite(X).all():
        raise ValueError("X holds NaN or infinite values")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes}), got {y.min()}..{y.max()}")
    return X, y


def _tree_draws(seed, n_rows, n_cols, max_features, bootstrap):
    """A tree's generator, bootstrap sample and, with one candidate per
    node, its candidate draws (else None), drawn up front."""
    rng = np.random.default_rng(seed)
    sample = rng.integers(0, n_rows, size=n_rows) if bootstrap else np.arange(n_rows)
    draws = None
    if max_features == 1 < n_cols:
        # Equals one rng.choice(n_cols, size=1, replace=False) per
        # searched node; a tree on n rows has at most 2n - 1 nodes.
        draws = rng.integers(0, n_cols, size=2 * n_rows - 1).tolist()
    return rng, sample, draws


def _grow(forests, blocks):
    """Grow ``forests[b]`` on training block ``blocks[b]``, all in lockstep.

    The forests share one ``ForestParams`` and ``n_classes``.  Blocks with
    one column count grow together: their rows are stacked into one row
    space, each tree's sample indices are offset into it, and one class
    indicator serves them all.  Tree t of every block draws from spawned
    seed t, and each tree keeps its own draws and depth-first stack (right
    child first), so it grows exactly as it would alone.

    Each step pops from every tree the next node that may split, draws its
    candidates, and scores all popped nodes in a few chunked split
    searches.  A growth takes about as many steps as its largest tree has
    internal nodes.  Importances add each split's term in (tree, DFS)
    order, the order a tree-by-tree fit would.
    """
    params, n_classes = forests[0].params, forests[0].n_classes
    blocks = [_checked(X, y, n_classes) for X, y in blocks]
    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    for n_cols in dict.fromkeys(X.shape[1] for X, _ in blocks):
        group = [b for b, (X, _) in enumerate(blocks) if X.shape[1] == n_cols]
        # A lone block is its own row space; stacking would only copy it.
        X = np.concatenate([blocks[b][0] for b in group]) if len(group) > 1 else blocks[group[0]][0]
        y = np.concatenate([blocks[b][1] for b in group])
        onehot = y[:, None] == np.arange(n_classes)
        max_features = params.resolve_max_features(n_cols)
        # Only rng.choice reads a generator after its up-front draws; without
        # it, blocks of one row count share those draws.
        reread = 1 < max_features < n_cols
        drawn = {}
        roots = []  # (rng, draws, sample, n_rows), block by block
        offset = 0
        for b in group:
            n_rows = len(blocks[b][1])
            if reread or n_rows not in drawn:
                drawn[n_rows] = [
                    _tree_draws(seed, n_rows, n_cols, max_features, params.bootstrap) for seed in seeds
                ]
            for rng, sample, draws in drawn[n_rows]:
                roots.append((rng, None if draws is None else iter(draws), sample + offset, n_rows))
            offset += n_rows
        sizes = np.array([r[3] for r in roots])
        tree = np.repeat(np.arange(len(roots)), sizes)
        flat = tree * n_classes + y[np.concatenate([r[2] for r in roots])]
        counts = np.bincount(flat, minlength=len(roots) * n_classes).reshape(len(roots), n_classes)
        ginis = _impurity(counts, sizes).tolist()
        growths = [_Growth(*r, c, gini) for r, c, gini in zip(roots, counts, ginis)]
        growing = growths
        while growing:
            batch = []
            for g in growing:
                entry = g.next_search()
                if entry is not None:
                    batch.append((g, *entry, g.candidates(n_cols, max_features)))
            # Largest nodes first, so each chunk pads to its first node's rows.
            batch.sort(key=lambda b: -len(b[2]))
            start = 0
            while start < len(batch):
                stop = start + max(1, _CELLS // (len(batch[start][2]) * max_features))
                _split_chunk(X, onehot, batch[start:stop])
                start = stop
            growing = [b[0] for b in batch if b[0].stack]
        for i, b in enumerate(group):
            trees = growths[i * params.n_trees : (i + 1) * params.n_trees]
            importances = np.zeros(n_cols, dtype=np.float64)
            splits = [s for g in trees for s in g.splits]
            if splits:
                f, term = zip(*splits)
                np.add.at(importances, np.array(f), np.array(term))
            importances /= params.n_trees
            forests[b].trees = [g.tree() for g in trees]
            forests[b]._raw_importances = importances
            forests[b]._n_cols = n_cols


def fit_forests(
    params: ForestParams, n_classes: int, blocks: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list["RandomForest"]:
    """One forest per (X, y) training block, all grown in one lockstep growth.

    Each forest equals ``RandomForest(params, n_classes).fit(X, y)`` on its
    own block, trees and importances alike.  Blocks may differ in row and
    column counts.
    """
    if not blocks:
        raise ValueError("need at least one training block")
    forests = [RandomForest(params, n_classes) for _ in blocks]
    _grow(forests, blocks)
    return forests


class RandomForest:
    """Forest of Gini-split CART trees with MDI feature importances."""

    def __init__(self, params: ForestParams, n_classes: int):
        if params.n_trees < 1:
            raise ValueError("n_trees must be positive")
        self.params = params
        self.n_classes = n_classes
        self.trees: list[_Tree] = []
        self._raw_importances: np.ndarray | None = None
        self._n_cols = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        """Grow all trees in lockstep: the one-block case of `fit_forests`."""
        _grow([self], [(X, y)])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote over trees; vote ties go to the smaller class id.

        All trees walk together over their concatenated node arrays, every
        (tree, row) pair moving down one level per step; a pair that reached
        a leaf stays there, since a leaf is its own child.
        """
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_cols:
            raise ValueError(
                f"need a 2-D X with the {self._n_cols} columns the forest was fitted on, got shape {X.shape}"
            )
        if not np.isfinite(X).all():
            raise ValueError("X holds NaN or infinite values")
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
