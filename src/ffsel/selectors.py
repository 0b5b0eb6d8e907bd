"""Filter feature selectors.

Three families: top-k ranking (KBest), greedy forward minimum-redundancy
maximum-relevance search (difference and quotient forms), and KGroups,
which bins features by relevance with power-law bin edges and picks each
bin's most relevant feature, resolving ties with further estimators.
"""

from __future__ import annotations

import dataclasses
from time import thread_time
from typing import Sequence

import numpy as np

from .data import Dataset
from .forest import ForestParams
from .relevance import (
    ABS_PEARSON,
    DEFAULT_MI_BINS,
    ESTIMATORS,
    FVALUE,
    GINI,
    MI,
    MI_PAIR,
    RedundancyCache,
    RelevanceVector,
    relevance_all,
)

__all__ = [
    "KBEST",
    "MRMR_D",
    "MRMR_Q",
    "KGROUPS",
    "DIFFERENCE",
    "QUOTIENT",
    "MRMR_VARIANTS",
    "TIE_EPS",
    "QUOTIENT_EPS",
    "SelectionResult",
    "select_kbest",
    "select_mrmr",
    "compute_bins",
    "select_kgroups",
]

# Algorithm names as they appear in results and benchmark records.
KBEST = "KBEST"
MRMR_D = "MRMR_D"
MRMR_Q = "MRMR_Q"
KGROUPS = "KGROUPS"

# Score combination forms for the greedy search.
DIFFERENCE = "DIFFERENCE"
QUOTIENT = "QUOTIENT"

# Named greedy-search variants: estimator, form, redundancy, mean-normalized.
# A run's beta (default 1, the named difference forms' value; MIFS leaves it
# free) weights redundancy in every difference variant.
MRMR_VARIANTS: dict[str, tuple[str, str, str, bool]] = {
    "MID": (MI, DIFFERENCE, MI_PAIR, True),
    "MIQ": (MI, QUOTIENT, MI_PAIR, True),
    "FCD": (FVALUE, DIFFERENCE, ABS_PEARSON, True),
    "FCQ": (FVALUE, QUOTIENT, ABS_PEARSON, True),
    "RFCQ": (GINI, QUOTIENT, ABS_PEARSON, True),
    "RFCD": (GINI, DIFFERENCE, ABS_PEARSON, True),
    "MIFS": (MI, DIFFERENCE, MI_PAIR, False),
}

# Two relevance values tie when |a - b| <= TIE_EPS * max(1, |group max|).
# Exact equality is the common case (duplicated columns); the relative
# epsilon absorbs non-associative float accumulation.
TIE_EPS = 1e-12

# Denominator guard for the quotient form; a zero-redundancy candidate
# then dominates, which is the point of maximizing the ratio.
QUOTIENT_EPS = 1e-12


@dataclasses.dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection run: ordered indices and their CPU cost."""

    algorithm: str
    selected: tuple[int, ...]
    cpu_time_seconds: float
    pick_cpu_seconds: tuple[float, ...] = ()  # greedy: CPU since start, after each pick

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected indices must be unique")
        if self.cpu_time_seconds < 0:
            raise ValueError("cpu_time_seconds must be >= 0")


def _check_relevance_length(d: Dataset, n: int) -> None:
    if d.n_cols != n:
        raise ValueError(f"relevance length {n} does not match dataset with {d.n_cols} features")


def _check_k(k: int, n_cols: int) -> None:
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if k > n_cols:
        raise ValueError(f"k={k} exceeds the number of features ({n_cols})")


def select_kbest(rel: RelevanceVector, k: int) -> SelectionResult:
    """Pick the k features with largest relevance (Max-Rel ranking).

    Output is in descending relevance order; exact ties fall back to
    ascending feature index.
    """
    t0 = thread_time()
    values = rel.values
    _check_k(k, values.shape[0])
    # Stable sort of the negated values: descending score, ascending index.
    order = np.argsort(-values, kind="stable")
    selected = tuple(int(i) for i in order[:k])
    return SelectionResult(
        algorithm=KBEST,
        selected=selected,
        cpu_time_seconds=thread_time() - t0,
    )


def select_mrmr(
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
    """Greedy forward search trading relevance against redundancy.

    First pick is the relevance argmax.  Each later pick maximizes
    rel - beta * red (DIFFERENCE) or rel / max(red, eps) (QUOTIENT),
    where red is the sum of pairwise redundancies against the selected
    set, divided by its size when mean_normalized.  Score ties go to the
    lower feature index.  No pick depends on k, so runs nest as prefixes.
    MI redundancy reuses the codes of ``relevance_all(d, MI, mi_bins=mi_bins)``.
    """
    t0 = thread_time()
    values = rel.values
    n = values.shape[0]
    _check_relevance_length(d, n)
    _check_k(k, n)
    if form not in (DIFFERENCE, QUOTIENT):
        raise ValueError(f"unknown form: {form!r}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    cache = RedundancyCache(d, redundancy, mi_bins=mi_bins, rel=rel)

    first = int(np.argmax(values))
    selected = [first]
    pick_cpu = [thread_time() - t0]
    available = np.ones(n, dtype=bool)
    available[first] = False
    # Running sum of redundancies against the selected set, grown one term
    # per step in selection order.  The reference oracle accumulates in the
    # same order, so scores match it bit for bit.
    red_sum = np.zeros(n, dtype=np.float64)

    while len(selected) < k:
        newest = selected[-1]
        candidates = np.flatnonzero(available)
        red_sum[candidates] += cache.against(newest, candidates)
        red = red_sum / len(selected) if mean_normalized else red_sum
        if form == DIFFERENCE:
            scores = values - beta * red
        else:
            scores = values / np.maximum(red, QUOTIENT_EPS)
        scores = np.where(available, scores, -np.inf)
        nxt = int(np.argmax(scores))  # first max == lowest tied index
        selected.append(nxt)
        available[nxt] = False
        pick_cpu.append(thread_time() - t0)

    return SelectionResult(
        algorithm=MRMR_D if form == DIFFERENCE else MRMR_Q,
        selected=tuple(selected),
        cpu_time_seconds=thread_time() - t0,
        pick_cpu_seconds=tuple(pick_cpu),
    )


def compute_bins(rel: RelevanceVector, k: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Bin relevance values into k clusters with power-law upper edges.

    edges[j-1] = rel_min + (rel_max - rel_min) * (j/k)^alpha for j = 1..k.
    A feature lands in the first cluster whose edge reaches its relevance,
    so the first bin is closed at rel_min and no feature is left out.  When
    all values are equal everything falls in cluster 0.  Returns the edges
    and each feature's cluster id.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
    values = rel.values
    rel_min = float(values.min())
    rel_max = float(values.max())
    span = rel_max - rel_min
    if span == 0.0:
        edges = np.full(k, rel_max, dtype=np.float64)
    else:
        edges = rel_min + span * (np.arange(1, k + 1) / k) ** float(alpha)
        # Guard against last-ulp wobble: keep edges monotone and inside the
        # value range, and anchor the final edge at the exact maximum.
        edges = np.minimum(np.maximum.accumulate(edges), rel_max)
    edges[-1] = rel_max
    return edges, np.searchsorted(edges, values, side="left")


def _ties(groups: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Mark the scores that tie with their group's maximum (see TIE_EPS)."""
    best = np.full(int(groups.max()) + 1, -np.inf)
    np.maximum.at(best, groups, scores)
    best = best[groups]
    return best - scores <= TIE_EPS * np.maximum(1.0, np.abs(best))


def select_kgroups(
    d: Dataset,
    rel: RelevanceVector,
    k: int,
    alpha: float,
    tie_breakers: Sequence[str] = (),
    *,
    mi_bins: int = DEFAULT_MI_BINS,
    forest: ForestParams | None = None,
) -> SelectionResult:
    """Bin features by relevance, then keep each bin's most relevant one.

    Features tie within a bin as `_ties` rules (TIE_EPS).  Tie-breaker
    estimators are applied in order: each round scores the survivors of
    every bin that still has several with one `relevance_all` call on a
    dataset of those columns (GINI reads one whole-data fit), then keeps
    each bin's ties at its maximum.  An exhausted list keeps every
    survivor, so the result can exceed k.  Output is ordered by descending
    relevance, then ascending index.  k larger than the feature count is
    allowed; surplus bins are simply empty.
    """
    t0 = thread_time()
    values = rel.values
    _check_relevance_length(d, values.shape[0])
    for name in tie_breakers:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown tie-breaker estimator {name!r}")
    _, bins = compute_bins(rel, k, alpha)
    keep = _ties(bins, values)
    for name in tie_breakers:
        survivors = np.flatnonzero(keep)
        groups = bins[survivors]
        tied = survivors[np.bincount(groups)[groups] > 1]
        if tied.size == 0:
            break
        if name == GINI:
            scores = relevance_all(d, GINI, forest=forest).values[tied]
        else:
            # The tied columns scored as a dataset of their own.
            names = [d.feature_names[i] for i in tied]
            sub = dataclasses.replace(d, features=d.features[:, tied], feature_names=names)
            scores = relevance_all(sub, name, mi_bins=mi_bins).values
        keep[tied] = _ties(bins[tied], scores)

    chosen = np.flatnonzero(keep)
    # Equal relevance always shares a bin, so ties fall to the lower index.
    order = np.argsort(-values[chosen], kind="stable")
    return SelectionResult(
        algorithm=KGROUPS,
        selected=tuple(int(i) for i in chosen[order]),
        cpu_time_seconds=thread_time() - t0,
    )
