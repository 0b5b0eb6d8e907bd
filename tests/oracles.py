"""Brute-force reference selectors for testing the fast implementations.

Deliberately slow and obvious: a full re-sort, a per-step rescan with no
caching, and a direct interval scan for the binning.  Integration tests
require the fast paths to reproduce these outputs exactly, so score
arithmetic here mirrors the fast code term for term.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ffsel.data import Dataset
from ffsel.forest import ForestParams
from ffsel.relevance import (
    ABS_PEARSON,
    COSINE,
    DEFAULT_MI_BINS,
    FVALUE,
    GINI,
    MI,
    MI_PAIR,
    RelevanceVector,
    abs_pearson_value,
    cosine_with_label,
    f_value_with_label,
    gini_importance,
    mutual_info_from_counts,
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

__all__ = ["oracle_discretize", "oracle_kbest", "oracle_mrmr", "oracle_kgroups"]


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


def _mi_of_codes(a: np.ndarray, b: np.ndarray) -> float:
    """Plug-in MI of two code vectors, from their joint count table."""
    joint = np.zeros((int(a.max()) + 1, int(b.max()) + 1), dtype=np.int64)
    np.add.at(joint, (a, b), 1)
    return mutual_info_from_counts(joint)


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

    def pair(i: int, j: int) -> float:
        if redundancy == MI_PAIR:
            lo, hi = min(i, j), max(i, j)  # lower column first, as the fast path
            return _mi_of_codes(oracle_discretize(d.features[:, lo], mi_bins),
                                oracle_discretize(d.features[:, hi], mi_bins))
        if redundancy == ABS_PEARSON:
            return abs_pearson_value(d, i, j)
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
        return _mi_of_codes(oracle_discretize(d.features[:, col], mi_bins), d.labels)
    if name == FVALUE:
        return f_value_with_label(d, col)
    if name == COSINE:
        return cosine_with_label(d, col)
    if name == GINI:
        if "vec" not in gini_memo:
            gini_memo["vec"] = gini_importance(d, forest=forest).values
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
