"""Random forest of CART trees with Gini splits and impurity-based importances.

One learner serves two callers: the GINI relevance estimator (mean decrease
in impurity, averaged over trees and normalized to sum 1) and the forest
classifier (majority vote over trees).  Everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["ForestParams", "RandomForest", "fit_forests"]


@dataclass(frozen=True)
class ForestParams:
    """A forest of ``n_trees`` trees, tree t drawn from spawned seed t of
    ``seed``.  Every tree grows on a bootstrap sample of its training rows
    and scores `_max_features` candidate columns per node."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be positive, got {self.n_trees}")
        if self.seed < 0:
            raise ValueError(f"forest seed must be >= 0, got {self.seed}")


def _max_features(n_cols):
    """Candidate columns per node on ``n_cols`` columns: floor(sqrt(n_cols)), at least 1."""
    return max(1, int(np.sqrt(n_cols)))


class _Tree(NamedTuple):
    """One CART classification tree of a forest, as node arrays.

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


# NumPy's pairwise summation sums runs of at most this many values with
# eight strided accumulators, and halves longer runs.
_PW_BLOCKSIZE = 128


def _last_axis_sum(a):
    """``a.sum(axis=-1)`` bit for bit, by whole-array adds in the order NumPy
    adds, for any number of leading axes.

    NumPy reduces the last axis with its pairwise summation, per run of its
    k values: fewer than 8 values add one at a time from 0.0; from 8 on, 8
    strided accumulators take whole blocks, combine as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and take the tail one value at a
    time, and runs over ``_PW_BLOCKSIZE`` split at a multiple of 8 near the
    middle.  On a short axis, such as a node's classes, this is far faster
    than NumPy's own reduction.  Below 8 values the fold starts from the
    first value, not 0.0, which saves a pass and differs only where every
    value is -0.0: then it gives -0.0 where NumPy gives 0.0.  Squares and
    probabilities, which both callers sum, hold no -0.0.
    """
    k = a.shape[-1]
    if k > _PW_BLOCKSIZE:
        half = k // 2
        half -= half % 8
        return _last_axis_sum(a[..., :half]) + _last_axis_sum(a[..., half:])
    if k < 8:
        total = a[..., 0] + (a[..., 1] if k > 1 else 0.0)
        tail = range(2, k)
    else:
        r = a[..., :8] + 0.0
        for j in range(8, k - 7, 8):
            r += a[..., j : j + 8]
        r = r[..., 0::2] + r[..., 1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
        r = r[..., 0::2] + r[..., 1::2]
        total = r[..., 0] + r[..., 1]
        tail = range(k - k % 8, k)
    for j in tail:
        total += a[..., j]
    return total


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

    The sort is NumPy's default, which is not stable: equal values may come
    out in any order, and no split depends on it.  Padding is +inf and real
    values are finite, so padding sorts after every real row.  A boundary
    counts only where ``values[i + 1] > values[i]``, so a valid boundary's
    left rows are exactly the node's rows valued at most ``values[i]``.  Its
    left class counts (sums of ones, exact in any order), its threshold and
    both children's row multisets are therefore fixed, and so is every
    gain, tree, importance and prediction.  The class counts gather
    ``onehot`` rows by ``take``, which NumPy runs far faster than the equal
    fancy index.

    Returns per node (gain, candidate position, threshold, left size, the
    winning column's sorted rows padded as in ``rows``, left class counts);
    the gain is -inf when every candidate is constant at that node.  The
    threshold is the boundary's midpoint, or its lower value if the
    midpoint rounds up to the upper.
    """
    width, n_nodes = rows.shape
    values = X[rows[:, :, None], candidates]
    values[np.arange(width)[:, None] >= sizes] = np.inf
    rows = rows[values.argsort(axis=0), np.arange(n_nodes)[:, None]]
    values = X[rows, candidates]
    lc = onehot.take(rows[:-1], axis=0).cumsum(axis=0)
    nl = np.arange(1, width, dtype=np.float64)[:, None, None]
    nr = np.maximum(sizes[:, None] - nl, 1.0)  # 1 past a node's rows keeps padding finite
    gini_l = 1.0 - _last_axis_sum(np.square(lc / nl[..., None]))
    gini_r = 1.0 - _last_axis_sum(np.square((counts[:, None, :] - lc) / nr[..., None]))
    gains = node_gini[:, None] - (nl * gini_l + nr * gini_r) / sizes[:, None]
    inside = nl < sizes[:, None]
    gains = np.where(inside & (values[1:] > values[:-1]), gains, -np.inf)
    best = gains.transpose(1, 2, 0).reshape(n_nodes, -1).argmax(axis=1)
    j, i = np.divmod(best, width - 1)
    s = np.arange(n_nodes)
    lo, hi = values[i, s, j], values[i + 1, s, j]
    split = 0.5 * (lo + hi)
    split = np.where(split == hi, lo, split)
    return gains[i, s, j], j, split, i + 1, rows[:, s, j], lc[i, s, j]


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


def _tree_draws(seed, n_rows, n_cols):
    """A tree's generator, bootstrap sample and, with one candidate per
    node, its candidate draws (else None), drawn up front."""
    rng = np.random.default_rng(seed)
    sample = rng.integers(0, n_rows, size=n_rows)
    draws = None
    if _max_features(n_cols) == 1:
        # Equals one rng.choice(n_cols, size=1, replace=False) per
        # searched node; a tree on n rows has at most 2n - 1 nodes.
        draws = rng.integers(0, n_cols, size=2 * n_rows - 1)
    return rng, sample, draws


def _bounded(words, n):
    """``Generator.integers(0, n)`` of each 32-bit word in ``words`` (uint64)
    by Lemire's method, and whether NumPy rejects the word and draws again."""
    m = words * np.uint64(n)
    return (m >> 32).astype(np.int64), (m & 0xFFFFFFFF) < (2**32 - n) % n


def _words(seed, n_trees, n_raw):
    """The first ``n_raw`` 64-bit outputs of each of ``n_trees`` PCG64
    streams spawned from ``seed``, as (trees x 2 * n_raw) read-only uint64
    32-bit words: the low, then the high half of each output."""
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    raw = np.array([np.random.PCG64(s).random_raw(n_raw) for s in seeds])
    words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=2).reshape(n_trees, -1)
    words.flags.writeable = False
    return words


# The words `fit_forests` reads, kept per (seed, trees, outputs per tree)
# for the process.  Only growths with one candidate per node read them,
# which is every growth on at most 3 columns.  A sweep's cross-validation
# forests share the seed, the tree count and the folds' row counts, so
# only the first such growth builds its streams.  `RandomForest.fit`
# builds its own words, so the GINI relevance fit inside a recorded
# selection cost reads no table another cell warmed.
_shared_words = lru_cache(maxsize=8)(_words)


def _replayed(seed, n_trees, row_counts, n_cols, words_of):
    """Every tree's `_tree_draws` sample and one-candidate draws for each
    row count, for a growth on at most 3 columns, where no generator is
    read after them.

    ``integers(0, n)`` maps 32-bit words by `_bounded`, and PCG64 gives them
    as the low, then the high half of each 64-bit output, keeping a high half
    for the next call.  So one stream of words per tree, from
    ``words_of(seed, n_trees, n_raw)`` (`_words` or its shared table), serves
    every row count n: the sample takes words ``[0, n)`` (none when n is 1,
    which needs no word), the draws the next ``2 * longest - 1`` for the
    largest row count ``longest``.  On one column every draw is 0, and no
    word is rejected for it.  A tree with a rejected word among them (chance
    below bound / 2**32 per word) takes `_tree_draws` on its spawned seed.

    Returns per row count a (trees x n) sample array and a (trees x 2 *
    longest - 1) draw array; a tree on n rows reads only its first 2n - 1
    draws.
    """
    longest = max(row_counts)
    width = 2 * longest - 1
    words = words_of(seed, n_trees, (longest + width + 1) // 2)
    replayed = {}
    for n in row_counts:
        sample, bad = _bounded(words[:, :n], n)
        start = n if n > 1 else 0
        draws, bad_draw = _bounded(words[:, start : start + width], n_cols)
        for t in np.flatnonzero(bad.any(axis=1) | bad_draw.any(axis=1)).tolist():
            # Spawned seed t of ``seed``, built alone.
            tree_seed = np.random.SeedSequence(seed, spawn_key=(t,))
            _, sample[t], d = _tree_draws(tree_seed, n, n_cols)
            draws[t, : len(d)] = d
        replayed[n] = sample, draws
    return replayed


def _lockstep(X, y, n_classes, max_features, order, draws, n_rows):
    """Grow one tree per entry of ``n_rows`` on the row space ``X``, ``y``.
    Tree t's sample is the t-th segment of the row order ``order``, of
    ``n_rows[t]`` rows.  Each node scores ``max_features`` candidates.  With
    one, ``draws`` holds each tree's one-candidate draws as rows of an
    array; with more, (generators, each tree's generator id), from which
    nodes draw by ``rng.choice``.

    The trees share array state.  A node is a ``[lo, hi)`` slice of
    ``order``: a search writes the node's rows back sorted by its winning
    column, so a split's children are the slices either side of the
    boundary.  Each tree's stack holds (node, lo, hi, class counts) and
    impurity under a top pointer.  Only impure children are pushed, left
    then right, so the right pops first.

    Each step pops every tree's top entry and scores all popped nodes in a
    few chunked split searches, so tree t's s-th search is at step s and,
    with one candidate per node, takes its draw s.  A tree searches at every
    step until its stack empties, so trees on one generator take its s-th
    ``rng.choice`` at step s: one call per step serves them all.

    Returns each tree's split count and root leaf class, and the split
    records (tree, node, feature, threshold, left child, importance term,
    left and right leaf class) stably sorted by tree, into (tree, DFS)
    order.  A tree's i-th split makes its local children 2i + 1 and 2i + 2.
    """
    n_trees, n_cols = len(n_rows), X.shape[1]
    onehot = (y[:, None] == np.arange(n_classes)).astype(np.float64)
    lo = np.cumsum(n_rows) - n_rows
    flat = np.repeat(np.arange(n_trees), n_rows) * n_classes + y[order]
    counts = np.bincount(flat, minlength=n_trees * n_classes).reshape(n_trees, n_classes)
    root_class = counts.argmax(axis=1)
    # The stack deepens by doubling, so it holds only the depth reached.
    stack = np.zeros((n_trees, 8, 3 + n_classes), dtype=np.int64)
    stack_gini = np.zeros((n_trees, 8))
    stack[:, 0] = np.column_stack([np.zeros_like(lo), lo, lo + n_rows, counts])
    stack_gini[:, 0] = _impurity(counts, n_rows)
    top = (stack_gini[:, 0] != 0.0).astype(np.int64)
    n_splits = np.zeros(n_trees, dtype=np.int64)
    records = [(np.zeros(0, dtype=np.int64),) * 8]
    step = 0
    while top.any():
        t = np.flatnonzero(top)
        top[t] -= 1
        entry, node_gini = stack[t, top[t]], stack_gini[t, top[t]]
        node, lo, hi, counts = entry[:, 0], entry[:, 1], entry[:, 2], entry[:, 3:]
        if max_features == 1:
            candidates = draws[t, step, None]
        else:
            rngs, rng_of = draws
            # A lone block's trees each have their own generator.
            shared = len(rngs) < len(rng_of)
            used, at = np.unique(rng_of[t], return_inverse=True) if shared else (t, slice(None))
            drawn = [rngs[i].choice(n_cols, size=max_features, replace=False) for i in used.tolist()]
            candidates = np.array(drawn)[at]
        step += 1
        sizes = hi - lo
        gain, split = np.empty(len(t)), np.empty(len(t))
        j, n_left, counts_l = np.empty_like(t), np.empty_like(t), np.empty_like(counts)
        # Largest nodes first, so each chunk pads to its first node's rows.
        by_size = np.argsort(-sizes, kind="stable")
        start = 0
        while start < len(t):
            k = by_size[start : start + max(1, _CELLS // (int(sizes[by_size[start]]) * max_features))]
            at = lo[k] + np.arange(sizes[k[0]])[:, None]
            inside = at < hi[k]
            at = np.where(inside, at, lo[k])  # padding repeats a node's first row
            gain[k], j[k], split[k], n_left[k], win, counts_l[k] = _best_splits(
                X, onehot, order[at], sizes[k], candidates[k], counts[k], node_gini[k]
            )
            order[at[inside]] = win[inside]
            start += len(k)
        feature = candidates[np.arange(len(t)), j]
        ok = gain > 0.0
        t, node, lo, hi, m, counts = t[ok], node[ok], lo[ok], hi[ok], n_left[ok], counts[ok]
        counts_l, counts_r = counts_l[ok], counts - counts_l[ok]
        child = 2 * n_splits[t] + 1
        n_splits[t] += 1
        term = (hi - lo) / n_rows[t] * gain[ok]
        classes = counts_l.argmax(axis=1), counts_r.argmax(axis=1)
        records.append((t, node, feature[ok], split[ok], child, term, *classes))
        if top.max() + 2 > stack.shape[1]:
            stack, stack_gini = (np.concatenate([a, np.zeros_like(a)], axis=1) for a in (stack, stack_gini))
        children = (child, lo, lo + m, counts_l), (child + 1, lo + m, hi, counts_r)
        for pushed, gini in zip(children, (_impurity(counts_l, m), _impurity(counts_r, hi - lo - m))):
            impure = gini != 0.0
            p = t[impure]
            stack[p, top[p]] = np.column_stack(pushed)[impure]
            stack_gini[p, top[p]] = gini[impure]
            top[p] += 1
    fields = [np.concatenate(f) for f in zip(*records)]
    by_tree = np.argsort(fields[0], kind="stable")
    return n_splits, root_class, [f[by_tree] for f in fields]


def _grow(forests, blocks, words_of):
    """Grow ``forests[b]`` on training block ``blocks[b]``, all in lockstep.

    The forests share one ``ForestParams`` and ``n_classes``.  Blocks with
    one column count grow together in one `_lockstep` growth: their rows
    are stacked into one row space and each tree's sample indices are
    offset into it.  Tree t of every block draws from spawned seed t and
    keeps its own stack, and its draws are those of a lone fit, so it grows
    exactly as it would alone.  On 4 columns or more nodes draw by
    ``rng.choice``, and blocks of one row count share tree t's generator,
    whose draws are the same for each; on at most 3, one `_replayed`
    stream of words per seed, from ``words_of``, gives tree t's draws for
    every block.

    Each forest keeps its trees' root ids and one read-only node table of
    the `_Tree` fields over all its trees.  Importances add each split's
    term in (tree, DFS) order, as a tree-by-tree fit would.
    """
    params, n_classes = forests[0].params, forests[0].n_classes
    blocks = [_checked(X, y, n_classes) for X, y in blocks]
    for n_cols in dict.fromkeys(X.shape[1] for X, _ in blocks):
        group = [b for b, (X, _) in enumerate(blocks) if X.shape[1] == n_cols]
        # A lone block is its own row space; stacking would only copy it.
        X = np.concatenate([blocks[b][0] for b in group]) if len(group) > 1 else blocks[group[0]][0]
        y = np.concatenate([blocks[b][1] for b in group])
        max_features = _max_features(n_cols)
        row_counts = [len(blocks[b][1]) for b in group]
        if max_features > 1:
            # rng.choice reads each tree's generator again at every node.
            # Blocks of one row count draw alike, so they share generators.
            seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
            distinct = list(dict.fromkeys(row_counts))
            trees = [[_tree_draws(seed, n, n_cols) for seed in seeds] for n in distinct]
            of_block = [distinct.index(n) for n in row_counts]
            rng_of = np.concatenate([i * params.n_trees + np.arange(params.n_trees) for i in of_block])
            draws = [rng for trees_of_n in trees for rng, _, _ in trees_of_n], rng_of
            samples = [np.array([sample for _, sample, _ in trees[i]]) for i in of_block]
        else:
            replayed = _replayed(params.seed, params.n_trees, dict.fromkeys(row_counts), n_cols, words_of)
            samples = [replayed[n][0] for n in row_counts]
            draws = np.concatenate([replayed[n][1] for n in row_counts])
        # Block b's samples index its rows, offset into the stacked row space.
        offsets = np.cumsum(row_counts) - row_counts
        order = np.concatenate([sample + offset for sample, offset in zip(samples, offsets)], axis=None)
        sizes = np.repeat(row_counts, params.n_trees)
        n_splits, root_class, records = _lockstep(X, y, n_classes, max_features, order, draws, sizes)
        tree, node, feature, threshold, child, term, class_l, class_r = records
        n_nodes = 2 * n_splits + 1
        first = np.cumsum(n_nodes) - n_nodes  # each root's id in the group's table
        at, left = first[tree] + node, first[tree] + child
        ids = np.arange(n_nodes.sum())  # the table's columns are the `_Tree` fields
        table = np.full(ids.size, -1), np.zeros(ids.size), ids.copy(), ids, np.empty_like(ids)
        table[0][at], table[1][at], table[2][at], table[3][at] = feature, threshold, left, left + 1
        table[4][first], table[4][left], table[4][left + 1] = root_class, class_l, class_r
        for a in table:
            a.flags.writeable = False
        # Each forest's trees, and so its records and nodes, are consecutive.
        edges = np.searchsorted(tree, np.arange(len(group) + 1) * params.n_trees)
        ends = np.append(first, ids.size)[:: params.n_trees]
        for i, b in enumerate(group):
            n0, n1 = ends[i], ends[i + 1]
            feature_of, threshold_of, left_of, right_of, leaf_class = (a[n0:n1] for a in table)
            roots = first[i * params.n_trees : (i + 1) * params.n_trees] - n0
            forests[b]._table = roots, feature_of, threshold_of, left_of - n0, right_of - n0, leaf_class
            # A weighted bincount adds each feature's terms in record order.
            mine = slice(edges[i], edges[i + 1])
            importances = np.bincount(feature[mine], weights=term[mine], minlength=n_cols)
            forests[b]._raw_importances = importances / params.n_trees
            forests[b]._n_cols = n_cols


def fit_forests(
    params: ForestParams, n_classes: int, blocks: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list["RandomForest"]:
    """One forest per (X, y) training block, all grown in one lockstep growth.

    Each forest equals ``RandomForest(params, n_classes).fit(X, y)`` on its
    own block, trees and importances alike.  Blocks may differ in row and
    column counts.  The replayed words come from `_shared_words`, so a
    second growth with the same seed, tree count and row counts builds no
    PCG64 stream.
    """
    if not blocks:
        raise ValueError("need at least one training block")
    forests = [RandomForest(params, n_classes) for _ in blocks]
    _grow(forests, blocks, _shared_words)
    return forests


class RandomForest:
    """Forest of Gini-split CART trees with MDI feature importances."""

    def __init__(self, params: ForestParams, n_classes: int):
        self.params = params
        self.n_classes = n_classes
        self._table: tuple[np.ndarray, ...] | None = None  # root ids, then the node table of `_grow`
        self._raw_importances: np.ndarray | None = None
        self._n_cols = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        """Grow all trees in lockstep: the one-block case of `fit_forests`,
        with words built for this fit alone (see `_shared_words`)."""
        _grow([self], [(X, y)], _words)
        return self

    @property
    def trees(self) -> list[_Tree]:
        """Each tree as a read-only view of the node table, with child ids
        local to the tree; ``[]`` before a fit."""
        if self._table is None:
            return []
        roots, *nodes = self._table
        parts = [np.split(a, roots[1:]) for a in nodes]
        return [_Tree(f, t, l - r, rt - r, c) for r, f, t, l, rt, c in zip(roots.tolist(), *parts)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote over trees; vote ties go to the smaller class id.

        All trees walk together over the node table, every (tree, row) pair
        moving down one level per step; a pair that reached a leaf stays
        there, since a leaf is its own child.
        """
        if self._table is None:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_cols:
            raise ValueError(
                f"need a 2-D X with the {self._n_cols} columns the forest was fitted on, got shape {X.shape}"
            )
        if not np.isfinite(X).all():
            raise ValueError("X holds NaN or infinite values")
        roots, feature, threshold, left, right, leaf_class = self._table
        rows = np.arange(X.shape[0])
        node = np.repeat(roots[:, None], X.shape[0], axis=1)
        while not (feature[node] < 0).all():
            goes_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(goes_left, left[node], right[node])
        n, c = X.shape[0], self.n_classes
        votes = np.bincount((rows * c + leaf_class[node]).ravel(), minlength=n * c).reshape(n, c)
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
