"""Random forest of CART trees with Gini splits and impurity-based importances.

One learner serves two callers: the GINI relevance estimator (mean decrease
in impurity, averaged over trees and normalized to sum 1) and the forest
classifier (majority vote over trees).  Everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def _bounded(words, n):
    """NumPy's ``integers(0, n)`` of each 32-bit word in ``words`` by Lemire's method, and whether
    NumPy rejects the word and reads the next; ``n`` is a bound or bounds broadcast against ``words``."""
    m = words.astype(np.uint64) * np.asarray(n, dtype=np.uint64)
    return (m >> 32).astype(np.int64), (m & 0xFFFFFFFF) < (2**32 - n) % n


class _Streams:
    """Tree t's PCG64 stream (spawned seed t of ``seed``) as the 32-bit words
    NumPy's draws read, the low then the high half of each output, in
    a read-only (trees x words) table that at least doubles when a read passes it."""

    def __init__(self, seed, n_trees):
        self._pcg64 = [np.random.PCG64(s) for s in np.random.SeedSequence(seed).spawn(n_trees)]
        self.table = np.zeros((n_trees, 0), dtype=np.uint32)
        self._samples, self._drawing = {}, threading.Lock()  # shared streams may be read from several threads

    def bootstrap(self, n):
        """Each stream's first draw, ``integers(0, n, size=n)``, and the word after it; kept per ``n``."""
        if n not in self._samples:
            trees = np.arange(len(self.table))
            self._samples[n] = _integers(self, trees, 0 * trees, np.full(n, n, dtype=np.uint64))
        return self._samples[n]

    def words(self, trees, starts, count):
        """Words ``[starts[i], starts[i] + count)`` of stream ``trees[i]``, as rows (table windows)."""
        with self._drawing:
            have, need = self.table.shape[1], int(starts.max()) + count
            if need > have:
                raw = np.array([g.random_raw((max(need, 2 * have) - have + 1) // 2) for g in self._pcg64])
                self.table = np.concatenate([self.table, raw.astype("<u8", copy=False).view("<u4")], axis=1)
                self.table.flags.writeable = False
            shape, strides = (len(self.table), self.table.shape[1] - count + 1, count), self.table.strides
            return as_strided(self.table, shape, strides + strides[1:], writeable=False)[trees, starts]


# The streams `fit_forests` reads, kept per (seed, trees) for the process (`RandomForest.fit` builds its own).
_shared_streams = lru_cache(maxsize=8)(_Streams)


def _integers(streams, trees, starts, bounds):
    """NumPy's ``integers(0, b)`` for each bound b of ``bounds`` in turn, on
    stream ``trees[i]`` from word ``starts[i]``, as rows, and each stream's
    next word.  A draw maps one word by `_bounded`, skipping rejected words
    as NumPy does; bounds of 1 (all or none) read no word."""
    if bounds[0] == 1:
        return np.zeros((len(trees), len(bounds)), dtype=np.int64), starts
    drawn, rejected = _bounded(streams.words(trees, starts, len(bounds)), bounds)
    ends = starts + len(bounds)
    for i in np.flatnonzero(rejected.any(axis=1)).tolist():
        ok, row = int(rejected[i].argmax()), slice(i, i + 1)  # draws before the rejected word stand
        drawn[i, ok:], ends[row] = _integers(streams, trees[row], starts[row] + ok + 1, bounds[ok:])
    return drawn, ends


def _choices(streams, trees, starts, n, m, steps):
    """``steps`` successive NumPy ``choice(n, size=m, replace=False)`` calls on stream ``trees[i]``
    from word ``starts[i]``, as (streams x steps x m) picks, and each stream's next word.  As in
    NumPy (unless n > 10,000 and m > n // 50, which `_max_features` never gives), Floyd's algorithm
    draws on [0, j] for j = n - m ... n - 1, keeping the draw or, when an earlier pick equals it, j;
    then for i = m - 1 ... 1 pick i swaps with the pick at a draw on [0, i], each loop step for
    every node at once."""
    bounds = np.concatenate([np.arange(n - m, n) + 1, np.arange(m, 1, -1)]).astype(np.uint64)
    draws, ends = _integers(streams, trees, starts, np.tile(bounds, steps))
    draws = draws.reshape(-1, len(bounds))
    if m == 1:  # one Floyd draw, no collision and no shuffle
        return draws.reshape(len(trees), steps, 1), ends
    picks = np.ascontiguousarray(draws[:, :m].T)  # pick i of every node is row i
    for i in range(1, m):
        picks[i][(picks[:i] == picks[i]).any(axis=0)] = n - m + i
    flat = picks.reshape(-1)
    for i, at in zip(range(m - 1, 0, -1), draws[:, m:].T * len(draws) + np.arange(len(draws))):
        picks[i], flat[at] = flat[at], picks[i].copy()  # at: each node's swap partner in ``flat``
    return picks.T.reshape(len(trees), steps, m), ends


_DRAWS = 2**15  # about the most words one refill of node candidates draws
_NODES = 2**13  # about the searches a first refill draws for, if _DRAWS allows


def _node_draws(streams, trees, starts, n_cols, n_rows):
    """The `_lockstep` hook: ``draw(t, step)`` gives each tree i in ``t`` the
    step-th `_choices` call of stream ``trees[i]`` from word ``starts[i]``.
    Trees on one stream from one word draw alike, so a refill draws once per
    such pair still searching: the steps of ``_NODES`` searches at the first
    refill, then as many as have passed (so the table at most doubles), but
    no more than its pairs fit in ``_DRAWS`` words or can search (2n - 1
    nodes on n rows)."""
    m, stride = _max_features(n_cols), int(starts.max()) + 1
    pairs = np.flatnonzero(np.bincount(key := trees * stride + starts))  # distinct (stream, word) keys
    stream, at, pair = *np.divmod(pairs, stride), np.searchsorted(pairs, key)
    least, batch = max(1, _NODES // len(pairs)), {"end": 0}

    def draw(t, step):
        if step >= batch["end"]:
            used = np.flatnonzero(np.bincount(pair[t]))
            most = max(1, _DRAWS // (len(used) * (2 * m - 1)))  # steps whose words fit in _DRAWS
            steps = min(step or least, most, 2 * int(n_rows[t].max()) - 1 - step)
            picks, at[used] = _choices(streams, stream[used], at[used], n_cols, m, steps)
            batch.update(start=step, end=step + steps, picks=picks, row=np.searchsorted(used, pair))
        return batch["picks"][batch["row"][t], step - batch["start"]]

    return draw


def _lockstep(X, y, n_classes, order, draw, n_rows):
    """Grow one tree per entry of ``n_rows`` on the row space ``X``, ``y``.
    Tree t's sample is the t-th segment of the row order ``order``, of
    ``n_rows[t]`` rows.  ``draw(t, step)``, a `_node_draws` hook, gives the
    candidate columns of the nodes trees ``t`` search at ``step``.

    The trees share array state.  A node is a ``[lo, hi)`` slice of
    ``order``: a search writes the node's rows back sorted by its winning
    column, so a split's children are the slices either side of the
    boundary.  Each tree's stack holds (node, lo, hi, class counts) and
    impurity under a top pointer.  Only impure children are pushed, left
    then right, so the right pops first.

    Each step pops every tree's top entry and scores all popped nodes in a
    few chunked split searches.  A tree searches at every step until its
    stack empties, so tree t's s-th search is at step s.

    Returns each tree's split count and root leaf class, and the split
    records (tree, node, feature, threshold, left child, importance term,
    left and right leaf class) stably sorted by tree, into (tree, DFS)
    order.  A tree's i-th split makes its local children 2i + 1 and 2i + 2.
    """
    n_trees = len(n_rows)
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
        candidates = draw(t, step)
        step += 1
        sizes = hi - lo
        gain, split = np.empty(len(t)), np.empty(len(t))
        j, n_left, counts_l = np.empty_like(t), np.empty_like(t), np.empty_like(counts)
        # Largest nodes first, so each chunk pads to its first node's rows.
        by_size = np.argsort(-sizes, kind="stable")
        start = 0
        while start < len(t):
            k = by_size[start : start + max(1, _CELLS // (int(sizes[by_size[start]]) * candidates.shape[1]))]
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


def _grow(forests, blocks, streams):
    """Grow ``forests[b]`` on training block ``blocks[b]``, all in lockstep.

    The forests share one ``ForestParams`` and ``n_classes``.  Blocks with
    one column count grow together in one `_lockstep` growth: their rows
    are stacked into one row space and each tree's sample indices are
    offset into it.  Tree t of every block reads stream t of ``streams``
    (`_Streams` of the seed and tree count) for its bootstrap sample and
    node candidates, as a lone fit does, and keeps its own stack, so it
    grows exactly as it would alone.

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
        row_counts = [len(blocks[b][1]) for b in group]
        boot = {n: streams.bootstrap(n) for n in row_counts}
        # Block b's samples index its rows, offset into the stacked row space.
        offsets = np.cumsum(row_counts) - row_counts
        order = np.concatenate([boot[n][0] + offset for n, offset in zip(row_counts, offsets)], axis=None)
        sizes = np.repeat(row_counts, params.n_trees)
        starts = np.concatenate([boot[n][1] for n in row_counts])  # each tree's word after its sample
        draw = _node_draws(streams, np.tile(np.arange(params.n_trees), len(group)), starts, n_cols, sizes)
        n_splits, root_class, records = _lockstep(X, y, n_classes, order, draw, sizes)
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
    column counts.  The words come from `_shared_streams`: a second growth
    with the same seed and tree count builds no PCG64 stream.
    """
    if not blocks:
        raise ValueError("need at least one training block")
    forests = [RandomForest(params, n_classes) for _ in blocks]
    _grow(forests, blocks, _shared_streams(params.seed, params.n_trees))
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
        """Grow all trees in lockstep: the one-block case of `fit_forests`, with streams built for
        this fit alone, so a GINI fit inside a recorded selection cost reads no words another cell drew."""
        _grow([self], [(X, y)], _Streams(self.params.seed, self.params.n_trees))
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
