"""Filter feature selectors.

Three families: top-k ranking (KBest), greedy forward minimum-redundancy
maximum-relevance search (difference and quotient forms), and KGroups,
which bins features by relevance with power-law bin edges and picks each
bin's most relevant feature, resolving ties with further estimators.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

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
    column_relevance,
    gini_importance,
)
from .timing import thread_cpu_time

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
    "BinningScheme",
    "SelectionResult",
    "select_kbest",
    "select_mrmr",
    "compute_bins",
    "select_kgroups",
    "variant_name",
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
# The named difference forms assume beta = 1, except MIFS, whose beta is free.
# The sweep's default study runs the first five, so their order matters.
MRMR_VARIANTS: dict[str, tuple[str, str, str, bool]] = {
    "MID": (MI, DIFFERENCE, MI_PAIR, True),
    "MIQ": (MI, QUOTIENT, MI_PAIR, True),
    "FCD": (FVALUE, DIFFERENCE, ABS_PEARSON, True),
    "FCQ": (FVALUE, QUOTIENT, ABS_PEARSON, True),
    "RFCQ": (GINI, QUOTIENT, ABS_PEARSON, True),
    "RFCD": (GINI, DIFFERENCE, ABS_PEARSON, True),
    "MIFS": (MI, DIFFERENCE, MI_PAIR, False),
}
_VARIANT_BY_SPEC = {spec: name for name, spec in MRMR_VARIANTS.items()}

# Two relevance values tie when |a - b| <= TIE_EPS * max(1, |group max|).
# Exact equality is the common case (duplicated columns); the relative
# epsilon absorbs non-associative float accumulation.
TIE_EPS = 1e-12

# Denominator guard for the quotient form; a zero-redundancy candidate
# then dominates, which is the point of maximizing the ratio.
QUOTIENT_EPS = 1e-12


@dataclasses.dataclass(frozen=True)
class BinningScheme:
    """Power-law relevance bins: k upper edges plus per-feature cluster ids."""

    k: int
    alpha: float
    rel_min: float
    rel_max: float
    edges: np.ndarray
    assignments: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        edges = np.ascontiguousarray(self.edges, dtype=np.float64)
        assignments = np.ascontiguousarray(self.assignments, dtype=np.int64)
        if edges.shape != (self.k,):
            raise ValueError(f"expected {self.k} edges, got shape {edges.shape}")
        if np.any(np.diff(edges) < 0):
            raise ValueError("edges must be non-decreasing")
        if edges[-1] != self.rel_max:
            raise ValueError("last edge must equal rel_max exactly")
        if assignments.size and (assignments.min() < 0 or assignments.max() >= self.k):
            raise ValueError("cluster ids must lie in [0, k)")
        edges.flags.writeable = False
        assignments.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "assignments", assignments)


@dataclasses.dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection run: ordered indices plus provenance."""

    algorithm: str
    estimator: str
    selected: tuple[int, ...]
    requested_k: int
    hyperparams: Mapping[str, object]
    cpu_time_seconds: float

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected indices must be unique")
        if self.cpu_time_seconds < 0:
            raise ValueError("cpu_time_seconds must be >= 0")

    @property
    def n_selected(self) -> int:
        return len(self.selected)


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
    t0 = thread_cpu_time()
    values = rel.values
    _check_k(k, values.shape[0])
    # Stable sort of the negated values: descending score, ascending index.
    order = np.argsort(-values, kind="stable")
    selected = tuple(int(i) for i in order[:k])
    return SelectionResult(
        algorithm=KBEST,
        estimator=rel.estimator,
        selected=selected,
        requested_k=k,
        hyperparams={},
        cpu_time_seconds=thread_cpu_time() - t0,
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
    cache: RedundancyCache | None = None,
    mi_bins: int = DEFAULT_MI_BINS,
) -> SelectionResult:
    """Greedy forward search trading relevance against redundancy.

    First pick is the relevance argmax.  Each later pick maximizes
    rel - beta * red (DIFFERENCE) or rel / max(red, eps) (QUOTIENT),
    where red is the sum of pairwise redundancies against the selected
    set, divided by its size when mean_normalized.  Score ties go to the
    lower feature index.
    """
    t0 = thread_cpu_time()
    values = rel.values
    n = values.shape[0]
    if d.n_cols != n:
        raise ValueError(
            f"relevance length {n} does not match dataset with {d.n_cols} features"
        )
    _check_k(k, n)
    if form not in (DIFFERENCE, QUOTIENT):
        raise ValueError(f"unknown form: {form!r}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if cache is None:
        cache = RedundancyCache(d, redundancy, mi_bins=mi_bins)
    elif cache.measure != redundancy:
        raise ValueError(
            f"cache holds {cache.measure!r} values, requested {redundancy!r}"
        )

    first = int(np.argmax(values))
    selected = [first]
    available = np.ones(n, dtype=bool)
    available[first] = False
    # Running sum of redundancies against the selected set, grown one term
    # per step in selection order.  The reference oracle accumulates in the
    # same order, so scores match it bit for bit.
    red_sum = np.zeros(n, dtype=np.float64)

    while len(selected) < k:
        newest = selected[-1]
        candidates = np.flatnonzero(available)
        for c in candidates:
            red_sum[c] += cache.get(int(c), newest)
        red = red_sum / len(selected) if mean_normalized else red_sum
        if form == DIFFERENCE:
            scores = values - beta * red
        else:
            scores = values / np.maximum(red, QUOTIENT_EPS)
        scores = np.where(available, scores, -np.inf)
        nxt = int(np.argmax(scores))  # first max == lowest tied index
        selected.append(nxt)
        available[nxt] = False

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
        cpu_time_seconds=thread_cpu_time() - t0,
    )


def compute_bins(rel: RelevanceVector, k: int, alpha: float) -> BinningScheme:
    """Bin relevance values into k clusters with power-law upper edges.

    edges[j-1] = rel_min + (rel_max - rel_min) * (j/k)^alpha for j = 1..k.
    A feature lands in the first cluster whose edge reaches its relevance,
    so the first bin is closed at rel_min and no feature is left out.  When
    all values are equal everything falls in cluster 0.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
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
    assignments = np.searchsorted(edges, values, side="left").astype(np.int64)
    return BinningScheme(
        k=k,
        alpha=float(alpha),
        rel_min=rel_min,
        rel_max=rel_max,
        edges=edges,
        assignments=assignments,
    )


def _tie_breaker_values(
    d: Dataset,
    name: str,
    features: np.ndarray,
    memo: dict,
    *,
    mi_bins: int,
    forest: ForestParams | None,
) -> np.ndarray:
    """Estimator values for the given feature columns, memoized per run."""
    if name == GINI:
        if GINI not in memo:
            memo[GINI] = gini_importance(d, forest=forest).values
        return memo[GINI][features]
    out = np.empty(features.size, dtype=np.float64)
    for t, col in enumerate(features):
        key = (name, int(col))
        if key not in memo:
            memo[key] = column_relevance(d, name, int(col), mi_bins=mi_bins)
        out[t] = memo[key]
    return out


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

    Within a bin, features whose relevance sits within TIE_EPS of the bin
    maximum are tied.  Tie-breaker estimators are applied in order, each
    round keeping only the features maximizing that estimator, until a
    single survivor remains or the list runs out.  An exhausted list
    returns every surviving feature, so the result can exceed k.  Output
    is ordered by descending relevance.  k larger than the feature count
    is allowed; surplus bins are simply empty.
    """
    t0 = thread_cpu_time()
    values = rel.values
    if d.n_cols != values.shape[0]:
        raise ValueError(
            f"relevance length {values.shape[0]} does not match dataset "
            f"with {d.n_cols} features"
        )
    for name in tie_breakers:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown tie-breaker estimator {name!r}")
    scheme = compute_bins(rel, k, alpha)
    memo: dict = {}
    chosen: list[int] = []
    for j in np.unique(scheme.assignments):
        members = np.flatnonzero(scheme.assignments == j)
        vmax = float(values[members].max())
        tol = TIE_EPS * max(1.0, abs(vmax))
        survivors = members[vmax - values[members] <= tol]
        for name in tie_breakers:
            if survivors.size <= 1:
                break
            tvals = _tie_breaker_values(
                d, name, survivors, memo, mi_bins=mi_bins, forest=forest
            )
            tmax = float(tvals.max())
            ttol = TIE_EPS * max(1.0, abs(tmax))
            survivors = survivors[tmax - tvals <= ttol]
        chosen.extend(int(i) for i in survivors)

    idx = np.asarray(chosen, dtype=np.int64)
    order = np.argsort(-values[idx], kind="stable")
    selected = tuple(int(i) for i in idx[order])
    return SelectionResult(
        algorithm=KGROUPS,
        estimator=rel.estimator,
        selected=selected,
        requested_k=k,
        hyperparams={"alpha": float(alpha), "tie_breakers": tuple(tie_breakers)},
        cpu_time_seconds=thread_cpu_time() - t0,
    )


def variant_name(
    estimator: str,
    form: str,
    redundancy: str,
    beta: float = 1.0,
    mean_normalized: bool = True,
) -> str:
    """Conventional short name for a greedy-search configuration."""
    name = _VARIANT_BY_SPEC.get((estimator, form, redundancy, mean_normalized))
    if name is not None and (form == QUOTIENT or beta == 1.0 or not mean_normalized):
        return name
    tag = "D" if form == DIFFERENCE else "Q"
    return f"{tag}:{estimator}/{redundancy}"
