"""Per-feature relevance estimators and pairwise redundancy measures.

Relevance: plug-in mutual information with the label, one-way ANOVA
F-value, random-forest Gini importance, and absolute cosine similarity
with the integer-encoded label.  Redundancy: pairwise plug-in mutual
information or absolute Pearson correlation, memoized symmetrically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .forest import ForestParams, RandomForest

__all__ = [
    "MI",
    "FVALUE",
    "GINI",
    "COSINE",
    "MI_PAIR",
    "ABS_PEARSON",
    "ESTIMATORS",
    "REDUNDANCY_MEASURES",
    "DEFAULT_MI_BINS",
    "F_VALUE_CAP",
    "RelevanceVector",
    "RedundancyCache",
    "discretize_equal_frequency",
    "mutual_info_from_counts",
    "mutual_info_with_label",
    "f_value_with_label",
    "cosine_with_label",
    "gini_importance",
    "column_relevance",
    "relevance_all",
    "mi_pair_value",
    "abs_pearson_value",
]

MI = "MI"
FVALUE = "FVALUE"
GINI = "GINI"
COSINE = "COSINE"
ESTIMATORS = (MI, FVALUE, GINI, COSINE)

MI_PAIR = "MI_PAIR"
ABS_PEARSON = "ABS_PEARSON"
REDUNDANCY_MEASURES = (MI_PAIR, ABS_PEARSON)

DEFAULT_MI_BINS = 10
# Stand-in for an infinite F statistic (zero within-group variance with
# separated means); finite so downstream sorting and binning stay usable.
F_VALUE_CAP = 1e30


@dataclass(frozen=True)
class RelevanceVector:
    """Per-feature relevance scores from one named estimator."""

    estimator: str
    values: np.ndarray
    dataset_ref: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("relevance values must be a 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("relevance values must be finite")
        if values.size and values.min() < 0:
            raise ValueError("relevance values must be non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_cols(self) -> int:
        return self.values.shape[0]


def discretize_equal_frequency(x: np.ndarray, bins: int) -> np.ndarray:
    """Integer codes from equal-frequency binning of a numeric column.

    Columns with at most ``bins`` distinct values keep one code per
    distinct value.  Otherwise interior edges sit at the 1/bins..(bins-1)/bins
    quantiles and each value maps to the lowest bin whose edge reaches it,
    so equal values always share a bin.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    x = np.asarray(x, dtype=np.float64)
    distinct = np.unique(x)
    if distinct.size <= bins:
        return np.searchsorted(distinct, x).astype(np.int64)
    edges = np.quantile(x, np.arange(1, bins) / bins)
    return np.searchsorted(edges, x, side="left").astype(np.int64)


def mutual_info_from_counts(joint: np.ndarray) -> float:
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


def _joint_counts(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    ka = int(codes_a.max()) + 1
    kb = int(codes_b.max()) + 1
    flat = np.bincount(codes_a * kb + codes_b, minlength=ka * kb)
    return flat.reshape(ka, kb)


def mutual_info_with_label(d: Dataset, col: int, bins: int = DEFAULT_MI_BINS) -> float:
    """Plug-in MI in nats between the discretized column and the label."""
    codes = discretize_equal_frequency(d.features[:, col], bins)
    return mutual_info_from_counts(_joint_counts(codes, d.labels))


def f_value_with_label(d: Dataset, col: int) -> float:
    """One-way ANOVA F statistic of the column against the class labels.

    Zero within-group variance with separated group means returns
    ``F_VALUE_CAP``; a fully constant column returns 0.
    """
    x = d.features[:, col]
    n = d.n_rows
    c = d.n_classes
    grand_mean = x.mean()
    ss_between = 0.0
    ss_within = 0.0
    for class_id in range(c):
        g = x[d.labels == class_id]
        gm = g.mean()
        ss_between += g.size * (gm - grand_mean) ** 2
        ss_within += float(np.sum((g - gm) ** 2))
    if ss_within == 0.0:
        return F_VALUE_CAP if ss_between > 0.0 else 0.0
    f = (ss_between / (c - 1)) / (ss_within / (n - c))
    return max(f, 0.0)


def cosine_with_label(d: Dataset, col: int) -> float:
    """Absolute cosine similarity between the column and the integer labels."""
    x = d.features[:, col]
    y = d.labels.astype(np.float64)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return abs(float(np.dot(x, y))) / (nx * ny)


def gini_importance(d: Dataset, forest: ForestParams | None = None) -> RelevanceVector:
    """Normalized mean-decrease-in-impurity importances from a random forest."""
    forest = forest or ForestParams()
    model = RandomForest(forest, n_classes=d.n_classes)
    model.fit(d.features, d.labels)
    return RelevanceVector(
        estimator=GINI,
        values=model.feature_importances(),
        dataset_ref=d.name,
        params=forest.as_dict(),
    )


def column_relevance(
    d: Dataset, estimator: str, col: int, *, mi_bins: int = DEFAULT_MI_BINS
) -> float:
    """One column's relevance under a per-column estimator (all but GINI)."""
    if estimator == MI:
        return mutual_info_with_label(d, col, mi_bins)
    if estimator == FVALUE:
        return f_value_with_label(d, col)
    if estimator == COSINE:
        return cosine_with_label(d, col)
    raise ValueError(f"no per-column form of estimator {estimator!r}")


def relevance_all(
    d: Dataset,
    estimator: str,
    *,
    mi_bins: int = DEFAULT_MI_BINS,
    forest: ForestParams | None = None,
) -> RelevanceVector:
    """Apply the named estimator to every column of the dataset."""
    if estimator == GINI:
        return gini_importance(d, forest)
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    values = np.array([column_relevance(d, estimator, i, mi_bins=mi_bins) for i in range(d.n_cols)])
    params = {"mi_bins": mi_bins} if estimator == MI else {}
    return RelevanceVector(estimator=estimator, values=values, dataset_ref=d.name, params=params)


def mi_pair_value(d: Dataset, i: int, j: int, bins: int = DEFAULT_MI_BINS) -> float:
    """Plug-in MI between two columns, both discretized equal-frequency.

    Computed with the lower column index first so (i, j) and (j, i) give
    bit-identical results despite float summation order.
    """
    a, b = (i, j) if i < j else (j, i)
    codes_a = discretize_equal_frequency(d.features[:, a], bins)
    codes_b = discretize_equal_frequency(d.features[:, b], bins)
    return mutual_info_from_counts(_joint_counts(codes_a, codes_b))


def abs_pearson_value(d: Dataset, i: int, j: int) -> float:
    """Absolute Pearson correlation; 0 when either column is constant."""
    xi = d.features[:, i]
    xj = d.features[:, j]
    xi_c = xi - xi.mean()
    xj_c = xj - xj.mean()
    denom = float(np.linalg.norm(xi_c)) * float(np.linalg.norm(xj_c))
    if denom == 0.0:
        return 0.0
    r = abs(float(np.dot(xi_c, xj_c))) / denom
    return min(r, 1.0)


class RedundancyCache:
    """Symmetric memo of pairwise redundancy values for one dataset.

    Entries are deterministic, so concurrent insert-if-absent of the same
    key is harmless (last writer wins with an identical value).  MI pair
    lookups reuse each column's discretization codes; Pearson lookups reuse
    each column's centered values and norm.  Both per-column caches repeat
    the standalone pair functions' arithmetic operation for operation, so
    cached and uncached values are bit-identical.
    """

    def __init__(self, d: Dataset, measure: str, mi_bins: int = DEFAULT_MI_BINS):
        if measure not in REDUNDANCY_MEASURES:
            raise ValueError(f"unknown redundancy measure {measure!r}")
        self.dataset = d
        self.measure = measure
        self.mi_bins = mi_bins
        self._entries: dict[tuple[int, int], float] = {}
        self._codes: dict[int, np.ndarray] = {}
        self._centered: dict[int, tuple[np.ndarray, float]] = {}
        self._lock = threading.Lock()

    def _codes_for(self, i: int) -> np.ndarray:
        codes = self._codes.get(i)
        if codes is None:
            codes = discretize_equal_frequency(self.dataset.features[:, i], self.mi_bins)
            with self._lock:
                self._codes.setdefault(i, codes)
        return codes

    def _centered_for(self, i: int) -> tuple[np.ndarray, float]:
        entry = self._centered.get(i)
        if entry is None:
            x = self.dataset.features[:, i]
            x_c = x - x.mean()
            entry = (x_c, float(np.linalg.norm(x_c)))
            with self._lock:
                self._centered.setdefault(i, entry)
        return entry

    def get(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("redundancy is defined for distinct columns only")
        key = (i, j) if i < j else (j, i)
        value = self._entries.get(key)
        if value is not None:
            return value
        if self.measure == MI_PAIR:
            value = mutual_info_from_counts(_joint_counts(self._codes_for(key[0]), self._codes_for(key[1])))
        else:
            xi_c, norm_i = self._centered_for(key[0])
            xj_c, norm_j = self._centered_for(key[1])
            denom = norm_i * norm_j
            if denom == 0.0:
                value = 0.0
            else:
                value = min(abs(float(np.dot(xi_c, xj_c))) / denom, 1.0)
        with self._lock:
            self._entries.setdefault(key, value)
        return value

    def __len__(self) -> int:
        return len(self._entries)

