"""Brute-force reference selectors for testing the fast implementations.

Deliberately slow and obvious: a full re-sort, a per-step rescan with no
caching, a direct interval scan for the binning, and per-column and
per-pair estimators of their own.  Integration tests require the fast
paths to reproduce these outputs exactly, so score arithmetic here mirrors
the fast code term for term.  Nothing here calls an estimator or
redundancy function of ``ffsel.relevance``; GINI comes from the forest.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ffsel.data import Dataset
from ffsel.forest import ForestParams, RandomForest
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
    """Absolute Pearson correlation of two columns; 0 when either is constant."""
    a_c = a - a.mean()
    b_c = b - b.mean()
    denom = float(np.linalg.norm(a_c)) * float(np.linalg.norm(b_c))
    if denom == 0.0:
        return 0.0
    return min(abs(float(np.dot(a_c, b_c))) / denom, 1.0)


def oracle_kbest(rel: RelevanceVector, k: int) -> SelectionResult:
    values = [float(v) for v in rel.values]
    n = len(values)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} features")
    order = sorted(range(n), key=lambda i: (-values[i], i))
    return SelectionResult(
        algorithm=KBEST,
        estimator=rel.estimator,
        selected=tuple(order[:k]),
        requested_k=k,
        hyperparams={},
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

    hyperparams: dict[str, object] = {
        "form": form,
        "redundancy": redundancy,
        "mean_normalized": mean_normalized,
    }
    if form == DIFFERENCE:
        hyperparams["beta"] = float(beta)
    return SelectionResult(
        algorithm=MRMR_D if form == DIFFERENCE else MRMR_Q,
        estimator=rel.estimator,
        selected=tuple(selected),
        requested_k=k,
        hyperparams=hyperparams,
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
            model = RandomForest(forest or ForestParams(), n_classes=d.n_classes)
            model.fit(d.features, d.labels)
            gini_memo["vec"] = model.feature_importances()
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
        estimator=rel.estimator,
        selected=tuple(chosen),
        requested_k=k,
        hyperparams={"alpha": float(alpha), "tie_breakers": tuple(tie_breakers)},
        cpu_time_seconds=0.0,
    )
