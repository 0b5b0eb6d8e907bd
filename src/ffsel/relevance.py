"""Per-feature relevance estimators and pairwise redundancy measures.

Relevance: plug-in mutual information with the label, one-way ANOVA
F-value, random-forest Gini importance, and absolute cosine similarity
with the integer-encoded label.  `relevance_all` scores every column of
a dataset at once; to score some columns, pass it a dataset of those
columns.  Redundancy: pairwise plug-in mutual information or absolute
Pearson correlation, symmetric in the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "discretize_columns",
    "mutual_info_from_counts",
    "relevance_all",
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
# Columns coded together by `discretize_columns`.
_BLOCK = 128
# Stand-in for an infinite F statistic (zero within-group variance with
# separated means); finite so downstream sorting and binning stay usable.
F_VALUE_CAP = 1e30


@dataclass(frozen=True)
class RelevanceVector:
    """Per-feature relevance scores from one named estimator."""

    estimator: str
    values: np.ndarray

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


def discretize_columns(x: np.ndarray, bins: int) -> np.ndarray:
    """Integer codes from equal-frequency binning of each column of a matrix.

    A column with at most ``bins`` distinct values keeps one code per
    distinct value.  Otherwise interior edges sit at the 1/bins..(bins-1)/bins
    quantiles and each value maps to the lowest bin whose edge reaches it,
    so equal values always share a bin.  Columns are coded in blocks of
    ``_BLOCK`` so temporaries stay small on wide matrices.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    x = np.asarray(x, dtype=np.float64)
    codes = np.zeros(x.shape, dtype=np.int64)
    for lo in range(0, x.shape[1], _BLOCK):
        block = x[:, lo : lo + _BLOCK]
        s = np.sort(block, axis=0)
        # Where each run of equal sorted values starts (-0.0 equals 0.0).
        starts = np.concatenate([np.ones((1, s.shape[1]), bool), s[1:] != s[:-1]])
        few = starts.sum(axis=0) <= bins
        # A code counts the thresholds below the value: bins - 1 quantile edges
        # (only if rows > bins) or each distinct value; +inf pads the rest.
        thresholds = np.full((min(bins, s.shape[0]), s.shape[1]), np.inf)
        if not few.all():
            thresholds[: bins - 1, ~few] = np.quantile(s[:, ~few], np.arange(1, bins) / bins, axis=0)
        if few.any():
            cols = np.flatnonzero(few)
            thresholds[np.cumsum(starts[:, cols], axis=0) - 1, cols] = s[:, cols]
        for t in thresholds:
            codes[:, lo : lo + _BLOCK] += block > t
    return codes


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


def _f_values(d: Dataset) -> np.ndarray:
    """One-way ANOVA F statistic of every column against the class labels.

    Each column is a contiguous row of the transposed matrix, and each class
    block is made contiguous too, so every row's sums and means reduce in
    the same order as on a lone column.  Zero within-group variance with
    separated group means gives ``F_VALUE_CAP``; a fully constant column 0.
    """
    x = np.ascontiguousarray(d.features.T)
    n = d.n_rows
    c = d.n_classes
    grand_mean = x.mean(axis=1)
    ss_between = np.zeros(d.n_cols)
    ss_within = np.zeros(d.n_cols)
    for class_id in range(c):
        g = np.ascontiguousarray(x[:, d.labels == class_id])  # a copy: mask indexing
        gm = g.mean(axis=1)
        ss_between += g.shape[1] * (gm - grand_mean) ** 2
        g -= gm[:, None]
        ss_within += np.square(g, out=g).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ss_between / (c - 1)) / (ss_within / (n - c))
    return np.where(ss_within > 0.0, f, np.where(ss_between > 0.0, F_VALUE_CAP, 0.0))


def _cosines(d: Dataset) -> np.ndarray:
    """Absolute cosine similarity between every column and the integer labels.

    One contiguous row per column, with its own norm and dot product: a
    matrix product would round differently from the single-column form.
    The label vector is never zero, since at least two classes appear.
    """
    y = d.labels.astype(np.float64)
    ny = float(np.linalg.norm(y))
    values = np.zeros(d.n_cols)
    for i, x in enumerate(np.ascontiguousarray(d.features.T)):
        nx = float(np.linalg.norm(x))
        if nx != 0.0:
            values[i] = abs(float(np.dot(x, y))) / (nx * ny)
    return values


def relevance_all(
    d: Dataset,
    estimator: str,
    *,
    mi_bins: int = DEFAULT_MI_BINS,
    forest: ForestParams | None = None,
) -> RelevanceVector:
    """Apply the named estimator to every column of the dataset."""
    if estimator == GINI:
        forest = forest or ForestParams()
        model = RandomForest(forest, n_classes=d.n_classes)
        model.fit(d.features, d.labels)
        return RelevanceVector(GINI, model.feature_importances())
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    if estimator == MI:
        codes = discretize_columns(d.features, mi_bins)
        values = np.array([mutual_info_from_counts(_joint_counts(c, d.labels)) for c in codes.T])
    elif estimator == FVALUE:
        values = _f_values(d)
    else:
        values = _cosines(d)
    return RelevanceVector(estimator, values)


class RedundancyCache:
    """Pairwise redundancy values for one dataset, each computed when asked for.

    MI pair lookups read codes from one discretization of the whole matrix;
    Pearson lookups read centered columns and their norms, prepared once.
    Each value reduces its two columns in the same order as a lone pair
    of columns would, so it is bit-identical to a per-pair computation.
    """

    def __init__(self, d: Dataset, measure: str, mi_bins: int = DEFAULT_MI_BINS):
        if measure not in REDUNDANCY_MEASURES:
            raise ValueError(f"unknown redundancy measure {measure!r}")
        self.measure = measure
        self._computed = 0
        if measure == MI_PAIR:
            self._codes = discretize_columns(d.features, mi_bins).T
        else:
            # One contiguous row per column: row means and dot products then
            # sum in the same order as on a lone column.
            self._centered = np.array(d.features.T, dtype=np.float64, order="C")
            self._centered -= self._centered.mean(axis=1, keepdims=True)
            self._norms = [float(np.linalg.norm(row)) for row in self._centered]

    def get(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("redundancy is defined for distinct columns only")
        a, b = (i, j) if i < j else (j, i)
        self._computed += 1
        if self.measure == MI_PAIR:
            return mutual_info_from_counts(_joint_counts(self._codes[a], self._codes[b]))
        denom = self._norms[a] * self._norms[b]
        if denom == 0.0:
            return 0.0
        return min(abs(float(np.dot(self._centered[a], self._centered[b]))) / denom, 1.0)

    def __len__(self) -> int:
        """Pair values computed so far."""
        return self._computed
