"""Classifier names, and the k-nearest-neighbors and Gaussian naive Bayes classifiers.

The third, the random forest (`RF`), lives in `forest`; cross-validation
grows it through `forest.fit_forests`.  All three are deterministic given
(training data, parameters, seed) and break every internal tie toward the
smaller class id so repeated runs agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .forest import _checked

__all__ = [
    "KNN",
    "GNB",
    "RF",
    "CLASSIFIERS",
    "knn_classify",
    "gaussian_nb_classify",
    "classify",
]

KNN = "KNN"
GNB = "GNB"
RF = "RF"
CLASSIFIERS = (KNN, GNB, RF)

# Variance floor factor for Gaussian naive Bayes, relative to the largest
# per-feature variance of the training block.  Post-scaling constant
# columns otherwise produce infinite densities.
GNB_VAR_FLOOR = 1e-9

# Most (test rows x training rows x columns) difference cells one KNN
# distance chunk holds, so a block stays in cache and a call's memory stays
# near one block however many test rows it scores.
_CELLS = 32768


def _as_blocks(train_x, train_y, test_x, n_classes):
    """(train_x, train_y, test_x) as C-contiguous float64, int64, float64, or
    a ValueError naming the fault: the training block by `forest._checked`,
    then the test block's shape and values."""
    train_x, train_y = _checked(np.ascontiguousarray(train_x, dtype=np.float64), train_y, n_classes)
    test_x = np.ascontiguousarray(test_x, dtype=np.float64)
    if test_x.ndim != 2 or test_x.shape[1] != train_x.shape[1]:
        raise ValueError(
            f"need a 2-D test X with the {train_x.shape[1]} training columns, got shape {test_x.shape}"
        )
    if not np.isfinite(test_x).all():
        raise ValueError("test X holds NaN or infinite values")
    return train_x, train_y, test_x


def _squared_distances(train_x, test_x):
    """(test rows x training rows) squared Euclidean distances.

    Test rows go in chunks whose difference block holds at most _CELLS
    cells (one row when a row alone holds more).  Each block is squared in
    place and summed over its column axis, so every distance equals a lone
    row's ``((train_x - row) ** 2).sum(axis=1)`` bit for bit.  From 8
    columns on, NumPy sums a contiguous last axis pairwise, in one order
    for both shapes, so columns go last.  Below 8 it sums left to right,
    which adding whole column planes also does, so columns go first and
    one reduction covers the chunk instead of one per distance.
    """
    n_train, n_cols = train_x.shape
    out = np.empty((test_x.shape[0], n_train))
    step = max(1, _CELLS // (n_train * n_cols))
    columns_first = n_cols < 8
    if columns_first:
        train_x, test_x = train_x.T.copy(), test_x.T.copy()
    for start in range(0, out.shape[0], step):
        if columns_first:
            diff = test_x[:, start : start + step, None] - train_x[:, None, :]
        else:
            diff = test_x[start : start + step, None, :] - train_x
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=0 if columns_first else 2, out=out[start : start + step])
        del diff  # one block alive at a time
    return out


def knn_classify(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    *,
    n_classes: int,
    k_neighbors: int = 5,
) -> np.ndarray:
    """Euclidean majority vote over the k nearest training rows.

    Distance ties keep the lower row index; vote ties pick the smaller
    class id.  All test rows are scored in one pass: each row keeps the
    training rows strictly nearer than its k-th smallest distance, then the
    lowest-index rows at that distance up to k.
    """
    train_x, train_y, test_x = _as_blocks(train_x, train_y, test_x, n_classes)
    n_train = train_x.shape[0]
    if not 1 <= k_neighbors <= n_train:
        raise ValueError(
            f"k_neighbors must lie in [1, {n_train}], got {k_neighbors}"
        )
    dist2 = _squared_distances(train_x, test_x)  # squared keeps the same ordering
    kth = np.partition(dist2, k_neighbors - 1, axis=1)[:, k_neighbors - 1 : k_neighbors]
    nearer = dist2 < kth
    at_kth = dist2 == kth
    room = k_neighbors - nearer.sum(axis=1, keepdims=True)
    chosen = nearer | (at_kth & (at_kth.cumsum(axis=1) <= room))
    rows, cols = np.nonzero(chosen)
    n_test = test_x.shape[0]
    votes = np.bincount(rows * n_classes + train_y[cols], minlength=n_test * n_classes)
    return votes.reshape(n_test, n_classes).argmax(axis=1).astype(np.int64, copy=False)


def gaussian_nb_classify(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    *,
    n_classes: int,
) -> np.ndarray:
    """Argmax of per-class Gaussian log-posteriors with frequency priors.

    Per-feature variances are floored at GNB_VAR_FLOOR times the largest
    overall feature variance.  Classes absent from the training block are
    never predicted.  Posterior ties pick the smaller class id.
    """
    train_x, train_y, test_x = _as_blocks(train_x, train_y, test_x, n_classes)
    counts = np.bincount(train_y, minlength=n_classes)
    present = np.flatnonzero(counts)
    floor = GNB_VAR_FLOOR * float(train_x.var(axis=0).max())
    if floor == 0.0:
        floor = 1e-300  # every feature constant: keep densities finite
    means = np.empty((present.size, train_x.shape[1]))
    variances = np.empty_like(means)
    for row, c in enumerate(present):
        block = train_x[train_y == c]
        means[row] = block.mean(axis=0)
        variances[row] = block.var(axis=0)
    variances = np.maximum(variances, floor)
    log_prior = np.log(counts[present] / train_y.shape[0])
    log_norm = -0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)
    sq = (test_x[:, None, :] - means[None, :, :]) ** 2
    scores = log_prior + log_norm - 0.5 * (sq / variances[None, :, :]).sum(axis=2)
    best = np.argmax(scores, axis=1)  # first max == smallest present class
    return present[best].astype(np.int64)


def classify(
    name: str,
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    *,
    n_classes: int,
    k_neighbors: int = 5,
) -> np.ndarray:
    """Dispatch to KNN or GNB by name."""
    if name == KNN:
        return knn_classify(
            train_x, train_y, test_x, n_classes=n_classes, k_neighbors=k_neighbors
        )
    if name == GNB:
        return gaussian_nb_classify(train_x, train_y, test_x, n_classes=n_classes)
    raise ValueError(f"unknown classifier: {name!r}")
