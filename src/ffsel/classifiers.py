"""Classifier names, and the k-nearest-neighbors and Gaussian naive Bayes classifiers.

The third, the random forest (`RF`), lives in `forest`; cross-validation
grows it through `forest.fit_forests`.  All three are deterministic given
(training data, parameters, seed) and break every internal tie toward the
smaller class id so repeated runs agree bit for bit.

`knn_classify` and `gaussian_nb_classify` share their cores with
`evaluate.cross_validate`, which predicts every row from the rows outside
its fold in one pass: `_knn_vote` votes over a distance matrix in which
NaN marks the rows a row may not use, and `_gnb_fit` fits the statistics
of any number of training-row sets at once, each equal to a lone fit.
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
]

KNN = "KNN"
GNB = "GNB"
RF = "RF"
CLASSIFIERS = (KNN, GNB, RF)

# Variance floor factor for Gaussian naive Bayes, relative to the largest
# per-feature variance of the training block.  Post-scaling constant
# columns otherwise produce infinite densities.
GNB_VAR_FLOOR = 1e-9

# Most cells one chunk of a row-wise pass holds: (test rows x training rows
# x columns) KNN differences, (scored rows x rows) cross-validation
# distances, (rows x sets x columns) GNB moments, (scored rows x classes x
# columns) GNB scores.  A chunk stays in cache and a call's memory stays
# near one chunk however many rows it scores.
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


def _check_neighbors(k_neighbors: int, n_train: int) -> None:
    if not 1 <= k_neighbors <= n_train:
        raise ValueError(
            f"k_neighbors must lie in [1, {n_train}], got {k_neighbors}"
        )


def _knn_vote(dist2, train_y, k_neighbors, n_classes):
    """Majority class of each row's k nearest training rows.

    `dist2` holds squared distances (rows x training rows), NaN where a row
    may not use a training row; every row has at least k usable ones.  A
    row keeps the training rows strictly nearer than its k-th smallest
    distance, then the lowest-index rows at that distance up to k.  Only
    rows with more than k candidates at or below that distance need the
    second step.  Vote ties pick the smaller class id.
    """
    kth = np.partition(dist2, k_neighbors - 1, axis=1)[:, k_neighbors - 1 : k_neighbors]
    chosen = dist2 <= kth  # NaN compares false
    tied = np.flatnonzero(chosen.sum(axis=1) > k_neighbors)
    if tied.size:
        dist2, kth = dist2[tied], kth[tied]
        at_kth = dist2 == kth
        room = k_neighbors - (dist2 < kth).sum(axis=1, keepdims=True)
        chosen[tied] = (dist2 < kth) | (at_kth & (at_kth.cumsum(axis=1) <= room))
    votes = chosen @ np.eye(n_classes)[train_y]
    return votes.argmax(axis=1).astype(np.int64, copy=False)


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
    class id.  All test rows are scored in one pass (`_knn_vote`).
    """
    train_x, train_y, test_x = _as_blocks(train_x, train_y, test_x, n_classes)
    _check_neighbors(k_neighbors, train_x.shape[0])
    # squared distances keep the same ordering
    return _knn_vote(_squared_distances(train_x, test_x), train_y, k_neighbors, n_classes)


def _moments(x, member):
    """Row count, per-column means and variances of each set of rows.

    `x` is (blocks x rows x columns) and `member` (blocks x rows x sets,
    bool) marks each set's rows within its block.  Returns the counts
    (blocks x sets) and the means and variances (blocks x sets x columns);
    each equals ``mean(axis=0)`` or ``var(axis=0)`` of that set's rows
    alone as a C-contiguous block, bit for bit, and an empty set gives
    NaN.  NumPy reduces such a block of two or more columns row by row, so
    a set's sum is the sum over its block's rows with the other rows' terms
    zeroed, x + 0.0 being x.  A one-column block it sums pairwise, so there
    each set is reduced alone.  Columns go in chunks of at most _CELLS
    (block x row x set x column) cells.
    """
    count = member.sum(axis=1)
    n_blocks, n_rows, n_sets = member.shape
    if x.shape[2] == 1:
        sets = [x[b][rows] for b in range(n_blocks) for rows in member[b].T]
        nan = np.full(1, np.nan)
        return (count,
                np.array([s.mean(axis=0) if s.size else nan for s in sets]).reshape(n_blocks, n_sets, 1),
                np.array([s.var(axis=0) if s.size else nan for s in sets]).reshape(n_blocks, n_sets, 1))
    means = np.empty((n_blocks, n_sets, x.shape[2]))
    variances = np.empty_like(means)
    step = max(1, _CELLS // member.size)
    with np.errstate(invalid="ignore"):  # an empty set's 0 / 0
        for start in range(0, x.shape[2], step):
            cols = x[:, :, start : start + step]
            width = cols.shape[2]
            # (blocks x rows x sets*width): set-major copies of the columns,
            # so each operation runs over one long contiguous axis
            shape = (n_blocks, n_rows, n_sets, width)
            flat = np.broadcast_to(cols[:, :, None, :], shape).reshape(n_blocks, n_rows, -1)
            keep = np.repeat(member, width, axis=2)
            size = np.repeat(count, width, axis=1)[:, None, :]
            mean = np.where(keep, flat, 0.0).sum(axis=1, keepdims=True) / size
            dev = np.where(keep, flat - mean, 0.0)
            var = np.square(dev, out=dev).sum(axis=1, keepdims=True) / size
            means[:, :, start : start + step] = mean.reshape(n_blocks, n_sets, width)
            variances[:, :, start : start + step] = var.reshape(n_blocks, n_sets, width)
    return count, means, variances


def _gnb_fit(x, y, train, n_classes):
    """Gaussian naive Bayes statistics of each set of training rows.

    `x` is (blocks x rows x columns) and `train` (blocks x rows x fits,
    bool) marks each fit's training rows within its block.  Returns
    (classes, means, variances, bias), each with a fit axis, block-major,
    and then a class axis: the class ids, those present in the fit's rows
    first, each part ascending; per-feature means and variances, floored
    at GNB_VAR_FLOOR times the fit's largest feature variance; and the
    log prior plus log normalizer.  An absent class gets mean 0, variance
    1 and bias -inf, so its score is -inf, never NaN, and it ranks after
    every present class.
    """
    n_blocks, n_rows, n_fits = train.shape
    member = train[..., None] & (y[:, None, None] == np.arange(n_classes))
    count, means, variances = _moments(x, np.concatenate([train, member.reshape(n_blocks, n_rows, -1)], axis=2))
    floor = GNB_VAR_FLOOR * variances[:, :n_fits].max(axis=2).reshape(-1)
    floor[floor == 0.0] = 1e-300  # every feature constant: keep densities finite
    counts = count[:, n_fits:].reshape(-1, n_classes)
    classes = np.argsort(counts == 0, axis=1, kind="stable")
    order = np.arange(len(classes))[:, None], classes
    counts = counts[order]
    means, variances = (a[:, n_fits:].reshape(-1, n_classes, x.shape[2])[order] for a in (means, variances))
    variances = np.maximum(variances, floor[:, None, None])
    absent = counts == 0
    means[absent] = 0.0
    variances[absent] = 1.0
    with np.errstate(divide="ignore"):  # an absent class's log prior is -inf
        log_prior = np.log(counts / count[:, :n_fits].reshape(-1, 1))
    log_norm = -0.5 * np.log(2.0 * np.pi * variances).sum(axis=2)
    return classes, means, variances, log_prior + log_norm


def _gnb_pick(x, means, variances, bias):
    """Position of each row's best log-posterior among the class rows of
    `_gnb_fit`'s statistics (which broadcast against one row each); ties
    take the first."""
    sq = (x[:, None, :] - means) ** 2
    scores = bias - 0.5 * (sq / variances).sum(axis=2)
    return np.argmax(scores, axis=1)


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
    fit = _gnb_fit(train_x[None], train_y, np.ones((1, train_x.shape[0], 1), dtype=bool), n_classes)
    classes, means, variances, bias = (a[0] for a in fit)
    return classes[_gnb_pick(test_x, means, variances, bias)]

