"""Brute-force reference selectors for testing the fast implementations.

Deliberately slow and obvious: a full re-sort, a per-step rescan with no
caching, a direct interval scan for the binning, per-column and per-pair
estimators of their own, a forest that searches each node's split one
candidate column at a time, and NumPy's bounded draws and
``Generator.choice`` replayed one 32-bit word at a time.  Integration
tests require the fast paths to reproduce these outputs exactly, so score
arithmetic here mirrors the fast code term for term.  Nothing here calls an estimator or
redundancy function of ``ffsel.relevance``, or the forest of
``ffsel.forest``; GINI comes from ``oracle_forest``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ffsel.data import Dataset
from ffsel.forest import ForestParams
from ffsel.relevance import (
    ABS_PEARSON,
    COSINE,
    DEFAULT_MI_BINS,
    F_VALUE_CAP,
    FVALUE,
    GINI,
    MI,
    MI_PAIR,
    RelevanceVector,
)
from ffsel.selectors import (
    DIFFERENCE,
    KBEST,
    KGROUPS,
    MRMR_D,
    MRMR_Q,
    QUOTIENT,
    QUOTIENT_EPS,
    TIE_EPS,
    SelectionResult,
)

__all__ = [
    "oracle_discretize",
    "oracle_mi_from_counts",
    "oracle_mi_of_codes",
    "oracle_f_value",
    "oracle_cosine",
    "oracle_abs_pearson",
    "oracle_forest",
    "oracle_bounded",
    "oracle_choice",
    "oracle_kbest",
    "oracle_mrmr",
    "oracle_kgroups",
]


def oracle_discretize(x: np.ndarray, bins: int) -> np.ndarray:
    """Equal-frequency codes of one column, coded on its own.

    At most ``bins`` distinct values: each value's rank among them.  Else
    the index of the first interior quantile edge that reaches the value.
    """
    x = np.asarray(x, dtype=np.float64)
    distinct = np.unique(x)
    if distinct.size <= bins:
        return np.searchsorted(distinct, x).astype(np.int64)
    edges = np.quantile(x, np.arange(1, bins) / bins)
    return np.searchsorted(edges, x, side="left").astype(np.int64)


def oracle_mi_from_counts(joint: np.ndarray) -> float:
    """Plug-in mutual information in nats from a joint count table."""
    joint = np.asarray(joint, dtype=np.float64)
    n = joint.sum()
    if n == 0:
        return 0.0
    p = joint / n
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    nz = p > 0
    outer = px[:, None] * py[None, :]
    mi = float(np.sum(p[nz] * np.log(p[nz] / outer[nz])))
    return max(mi, 0.0)


def oracle_mi_of_codes(a: np.ndarray, b: np.ndarray) -> float:
    """Plug-in MI of two code vectors, from their joint count table."""
    joint = np.zeros((int(a.max()) + 1, int(b.max()) + 1), dtype=np.int64)
    np.add.at(joint, (a, b), 1)
    return oracle_mi_from_counts(joint)


def oracle_f_value(x: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    """One-way ANOVA F statistic of one column against the class labels.

    The between-class term squares by multiplication, as an array square
    does; a scalar ``** 2`` may round differently.
    """
    x = np.asarray(x, dtype=np.float64)
    grand_mean = x.mean()
    ss_between = 0.0
    ss_within = 0.0
    for class_id in range(n_classes):
        g = x[labels == class_id]
        gm = g.mean()
        diff = gm - grand_mean
        ss_between += g.size * (diff * diff)
        ss_within += float(np.sum((g - gm) ** 2))
    if ss_within == 0.0:
        return F_VALUE_CAP if ss_between > 0.0 else 0.0
    return (ss_between / (n_classes - 1)) / (ss_within / (x.size - n_classes))


def oracle_cosine(x: np.ndarray, labels: np.ndarray) -> float:
    """Absolute cosine similarity between one column and the integer labels."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return abs(float(np.dot(x, y))) / (nx * ny)


def oracle_abs_pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Absolute Pearson correlation of two columns; 0 when either is constant.

    Each sum is ``np.sum`` over the centered columns; the ratio is capped at 1.
    """
    a_c = a - a.mean()
    b_c = b - b.mean()
    denom = float(np.sqrt(np.sum(a_c * a_c))) * float(np.sqrt(np.sum(b_c * b_c)))
    if denom == 0.0:
        return 0.0
    return min(abs(float(np.sum(a_c * b_c))) / denom, 1.0)


def _oracle_gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.dot(p, p))


def _oracle_column_split(values, ys, n_classes, total, node_gini):
    """Best (gain, threshold) of one column, scanning its sorted boundaries.

    The threshold is the midpoint of the boundary's two values, or the lower
    value when the midpoint reaches the upper one.
    """
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    vs = values[order]
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), ys[order]] = 1.0
    left = onehot.cumsum(axis=0)
    boundaries = np.flatnonzero(vs[1:] > vs[:-1]) + 1
    if boundaries.size == 0:
        return -1.0, 0.0
    nl = boundaries.astype(np.float64)
    nr = n - nl
    lc = left[boundaries - 1]
    rc = total[None, :] - lc
    gini_l = 1.0 - np.square(lc / nl[:, None]).sum(axis=1)
    gini_r = 1.0 - np.square(rc / nr[:, None]).sum(axis=1)
    gains = node_gini - (nl * gini_l + nr * gini_r) / n
    best = int(np.argmax(gains))
    i = boundaries[best]
    threshold = 0.5 * (vs[i - 1] + vs[i])
    if threshold >= vs[i]:  # adjacent doubles: the midpoint rounded up
        threshold = vs[i - 1]
    return float(gains[best]), float(threshold)


def oracle_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: ForestParams,
    X_test: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Normalized importances, majority-vote predictions and total node count.

    Breiman's forest: each tree grows on a bootstrap sample, and each node
    draws floor(sqrt(p)) of the p columns as candidates by ``rng.choice``.
    Each tree grows depth first (right child first) from a node stack, and
    each node scores its candidate columns one at a time in ``candidates``
    order, keeping a column only when its gain is strictly greater.  Each
    tree predicts by walking a stack of (node, rows).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_rows, n_cols = X.shape
    max_features = math.isqrt(n_cols)
    raw = np.zeros(n_cols, dtype=np.float64)
    votes = np.zeros((X_test.shape[0], n_classes), dtype=np.int64)
    n_nodes = 0
    for seed in np.random.SeedSequence(params.seed).spawn(params.n_trees):
        rng = np.random.default_rng(seed)
        sample = rng.integers(0, n_rows, size=n_rows)
        nodes: list[list] = [[-1, 0.0, -1, -1, -1]]  # feature, threshold, left, right, class
        stack = [(0, sample)]
        while stack:
            node, idx = stack.pop()
            counts = np.bincount(y[idx], minlength=n_classes)
            node_gini = _oracle_gini(counts)
            if node_gini == 0.0:
                nodes[node][4] = int(np.argmax(counts))
                continue
            candidates = rng.choice(n_cols, size=max_features, replace=False)
            best_gain, best_f, best_t = 0.0, -1, 0.0
            for f in candidates:
                gain, t = _oracle_column_split(
                    X[idx, f], y[idx], n_classes, counts.astype(np.float64), node_gini
                )
                if gain > best_gain:
                    best_gain, best_f, best_t = gain, int(f), t
            if best_f < 0:
                nodes[node][4] = int(np.argmax(counts))
                continue
            raw[best_f] += (idx.shape[0] / n_rows) * best_gain
            goes_left = X[idx, best_f] <= best_t
            nodes[node][:4] = [best_f, best_t, len(nodes), len(nodes) + 1]
            nodes += [[-1, 0.0, -1, -1, -1], [-1, 0.0, -1, -1, -1]]
            stack.append((nodes[node][2], idx[goes_left]))
            stack.append((nodes[node][3], idx[~goes_left]))
        n_nodes += len(nodes)
        walk = [(0, np.arange(X_test.shape[0]))]
        while walk:
            node, rows = walk.pop()
            f, t, left, right, label = nodes[node]
            if f < 0:
                votes[rows, label] += 1
                continue
            goes_left = X_test[rows, f] <= t
            walk += [(left, rows[goes_left]), (right, rows[~goes_left])]
    raw /= params.n_trees
    total = raw.sum()
    importances = np.zeros_like(raw) if total == 0.0 else raw / total
    return importances, votes.argmax(axis=1), n_nodes


def oracle_bounded(next_word, n: int) -> int:
    """``Generator.integers(0, n)`` from 32-bit words, by Lemire's method.

    ``next_word()`` gives the generator's next 32-bit word.  A word whose
    product with ``n`` has its low 32 bits below ``(2**32 - n) % n`` is
    rejected and the next word drawn.
    """
    threshold = (2**32 - n) % n
    while True:
        m = next_word() * n
        if m & 0xFFFFFFFF >= threshold:
            return m >> 32


def oracle_choice(next_word, n: int, m: int) -> list[int]:
    """``Generator.choice(n, size=m, replace=False)`` by Floyd's algorithm.

    For j = n - m ... n - 1 draw val on [0, j] and keep it, or keep j if val
    was already taken; then for i = m - 1 ... 1 swap pick i with the pick at
    an index drawn on [0, i].  Each draw is one `oracle_bounded` call; a
    draw on [0, 0] reads no word.
    """
    picks: list[int] = []
    for j in range(n - m, n):
        val = oracle_bounded(next_word, j + 1) if j else 0
        picks.append(j if val in picks else val)
    for i in range(m - 1, 0, -1):
        k = oracle_bounded(next_word, i + 1)
        picks[i], picks[k] = picks[k], picks[i]
    return picks


def oracle_kbest(rel: RelevanceVector, k: int) -> SelectionResult:
    values = [float(v) for v in rel.values]
    n = len(values)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} features")
    order = sorted(range(n), key=lambda i: (-values[i], i))
    return SelectionResult(
        algorithm=KBEST,
        selected=tuple(order[:k]),
        cpu_time_seconds=0.0,
    )


def oracle_mrmr(
    d: Dataset,
    rel: RelevanceVector,
    k: int,
    form: str = DIFFERENCE,
    redundancy: str = MI_PAIR,
    beta: float = 1.0,
    mean_normalized: bool = True,
    *,
    mi_bins: int = DEFAULT_MI_BINS,
) -> SelectionResult:
    values = rel.values
    n = d.n_cols
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} features")

    if redundancy == MI_PAIR:
        codes = [oracle_discretize(d.features[:, c], mi_bins) for c in range(n)]

    def pair(i: int, j: int) -> float:
        lo, hi = min(i, j), max(i, j)  # lower column first, as the fast path
        if redundancy == MI_PAIR:
            return oracle_mi_of_codes(codes[lo], codes[hi])
        if redundancy == ABS_PEARSON:
            return oracle_abs_pearson(d.features[:, lo], d.features[:, hi])
        raise ValueError(f"unknown redundancy measure: {redundancy!r}")

    selected: list[int] = []
    while len(selected) < k:
        best_i = -1
        best_score = None
        for c in range(n):
            if c in selected:
                continue
            if not selected:
                score = float(values[c])
            else:
                total = 0.0
                for s in selected:  # selection order, matching the fast path
                    total += pair(c, s)
                red = total / len(selected) if mean_normalized else total
                if form == DIFFERENCE:
                    score = float(values[c]) - beta * red
                elif form == QUOTIENT:
                    score = float(values[c]) / max(red, QUOTIENT_EPS)
                else:
                    raise ValueError(f"unknown form: {form!r}")
            if best_score is None or score > best_score:
                best_i = c
                best_score = score
        selected.append(best_i)

    return SelectionResult(
        algorithm=MRMR_D if form == DIFFERENCE else MRMR_Q,
        selected=tuple(selected),
        cpu_time_seconds=0.0,
    )


def _estimate_one(
    d: Dataset,
    name: str,
    col: int,
    gini_memo: dict,
    *,
    mi_bins: int,
    forest: ForestParams | None,
) -> float:
    if name == MI:
        return oracle_mi_of_codes(oracle_discretize(d.features[:, col], mi_bins), d.labels)
    if name == FVALUE:
        return oracle_f_value(d.features[:, col], d.labels, d.n_classes)
    if name == COSINE:
        return oracle_cosine(d.features[:, col], d.labels)
    if name == GINI:
        if "vec" not in gini_memo:
            gini_memo["vec"] = oracle_forest(
                d.features, d.labels, d.n_classes, forest or ForestParams(), d.features[:0]
            )[0]
        return float(gini_memo["vec"][col])
    raise ValueError(f"unknown tie-breaker estimator: {name!r}")


def oracle_kgroups(
    d: Dataset,
    rel: RelevanceVector,
    k: int,
    alpha: float,
    tie_breakers: Sequence[str] = (),
    *,
    mi_bins: int = DEFAULT_MI_BINS,
    forest: ForestParams | None = None,
) -> SelectionResult:
    values = rel.values
    n = d.n_cols
    rel_min = float(min(values))
    rel_max = float(max(values))
    span = rel_max - rel_min
    edges = []
    prev = rel_min
    for j in range(1, k + 1):
        e = rel_min + span * (j / k) ** float(alpha)
        e = min(max(e, prev), rel_max)
        edges.append(e)
        prev = e
    edges[-1] = rel_max

    cluster = np.empty(n, dtype=np.int64)
    for i in range(n):
        for j in range(k):
            if values[i] <= edges[j]:
                cluster[i] = j
                break

    gini_memo: dict = {}
    chosen: list[int] = []
    for j in range(k):
        members = [i for i in range(n) if cluster[i] == j]
        if not members:
            continue
        vmax = max(float(values[i]) for i in members)
        tol = TIE_EPS * max(1.0, abs(vmax))
        survivors = [i for i in members if vmax - float(values[i]) <= tol]
        for name in tie_breakers:
            if len(survivors) <= 1:
                break
            tvals = [
                _estimate_one(d, name, i, gini_memo, mi_bins=mi_bins, forest=forest)
                for i in survivors
            ]
            tmax = max(tvals)
            ttol = TIE_EPS * max(1.0, abs(tmax))
            survivors = [
                i for i, tv in zip(survivors, tvals) if tmax - tv <= ttol
            ]
        chosen.extend(survivors)

    chosen.sort(key=lambda i: (-float(values[i]), i))
    return SelectionResult(
        algorithm=KGROUPS,
        selected=tuple(chosen),
        cpu_time_seconds=0.0,
    )
