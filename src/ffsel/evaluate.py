"""Cross-validated accuracy."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .classifiers import (
    _CELLS,
    CLASSIFIERS,
    KNN,
    RF,
    _check_neighbors,
    _gnb_fit,
    _gnb_pick,
    _knn_vote,
    _squared_distances,
)
from .data import Dataset, FoldPlan, standardize
from .forest import ForestParams, fit_forests

__all__ = ["cross_validate"]


def _columns(d: Dataset, selected: Sequence[int]) -> np.ndarray:
    sel = np.asarray(list(selected), dtype=np.int64)
    if sel.size == 0:
        raise ValueError("selected feature list must be non-empty")
    if sel.min() < 0 or sel.max() >= d.n_cols:
        raise ValueError(
            f"selected feature indices must lie in 0..{d.n_cols - 1}"
        )
    if np.unique(sel).size != sel.size:
        raise ValueError("selected feature indices must be unique")
    return sel


def cross_validate(
    d: Dataset,
    selected: Sequence[int] | Sequence[Sequence[int]],
    classifier: str,
    folds: FoldPlan,
    *,
    scale_per_fold: bool = False,
    k_neighbors: int = 5,
    forest: ForestParams | None = None,
) -> tuple[float, float]:
    """Mean and population sd of per-fold accuracies for feature subsets.

    `selected` is one subset used in every fold, or a list of one subset per
    fold (features selected inside each fold's training rows).  Each fold
    trains on the out-of-fold rows restricted to its subset's columns and
    predicts the in-fold rows.  A class missing from a fold's training rows
    is allowed; it simply cannot be predicted there.

    The columns come in blocks over all rows: one block for every fold when
    they share a subset and are not scaled per fold, else one per fold,
    standardized on that fold's training rows.  KNN and GNB predict every
    row from the rows outside its fold in one pass (`_predict_out_of_fold`),
    equal to a lone `knn_classify` or `gaussian_nb_classify` per fold bit
    for bit.  The folds' random forests grow in one lockstep fit
    (`fit_forests`), each fold with its own trees, equal to a lone fit on
    its training rows.  Every RF cross-validation after the first per
    (seed, trees) in a process reads warm shared PCG64 streams; the GINI
    estimator's `RandomForest.fit` builds its own.
    """
    subsets = list(selected)
    if subsets and np.ndim(subsets[0]) > 0:
        if len(subsets) != folds.n_folds:
            raise ValueError(f"{len(subsets)} feature subsets given for {folds.n_folds} folds")
        columns = [_columns(d, s) for s in subsets]
    else:
        columns = [_columns(d, subsets)] * folds.n_folds
    if folds.assignments.shape[0] != d.n_rows:
        raise ValueError("fold plan does not cover this dataset")
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier: {classifier!r}")
    if scale_per_fold or columns[0] is not columns[-1]:
        blocks = [(_fold_block(d, folds, f, sel, scale_per_fold), range(f, f + 1))
                  for f, sel in enumerate(columns)]
    else:
        blocks = [(np.ascontiguousarray(d.features[:, columns[0]]), range(folds.n_folds))]
    pred = np.empty(d.n_rows, dtype=np.int64)
    if classifier == RF:
        fits = [(x, f, folds.train_rows(f)) for x, fs in blocks for f in fs]
        params = forest if forest is not None else ForestParams()
        forests = fit_forests(params, d.n_classes, [(x[tr], d.labels[tr]) for x, _, tr in fits])
        for model, (x, f, _) in zip(forests, fits):
            pred[folds.fold_rows(f)] = model.predict(x[folds.fold_rows(f)])
    else:
        _predict_out_of_fold(pred, classifier, blocks, d, folds, k_neighbors)
    # each fold's accuracy: its hits over its size
    hits = np.bincount(folds.assignments[pred == d.labels], minlength=folds.n_folds)
    accs = hits / np.bincount(folds.assignments, minlength=folds.n_folds)
    return float(accs.mean()), float(accs.std())


def _fold_block(d: Dataset, folds: FoldPlan, fold: int, sel: np.ndarray, scale: bool) -> np.ndarray:
    """Columns `sel` over all rows, standardized on `fold`'s training rows if `scale`."""
    x = d.features[:, sel]
    if scale:
        x = standardize(d.features[np.ix_(folds.train_rows(fold), sel)], x)[1]
    return np.ascontiguousarray(x)


def _predict_out_of_fold(pred, classifier, blocks, d, folds, k_neighbors):
    """Write into `pred` the KNN or GNB class of every row, trained on the
    rows outside its fold: KNN one block at a time, GNB all blocks of one
    width at once.  First come the checks a lone `knn_classify` or
    `gaussian_nb_classify` per fold makes, in fold order."""
    n_train = d.n_rows - np.bincount(folds.assignments, minlength=folds.n_folds)
    for x, fs in blocks:
        if n_train[fs.start] == 0:
            raise ValueError(f"cannot train on 0 rows and {x.shape[1]} columns")
        if not np.isfinite(x).all():  # scaling on training rows can overflow the others
            raise ValueError("test X holds NaN or infinite values")
        if classifier == KNN:
            for f in fs:
                _check_neighbors(k_neighbors, n_train[f])
    if classifier == KNN:
        for x, fs in blocks:
            _knn_out_of_fold(pred, x, d.labels, folds, fs, d.n_classes, k_neighbors)
    else:
        for width in dict.fromkeys(x.shape[1] for x, _ in blocks):
            group = [b for b in blocks if b[0].shape[1] == width]
            _gnb_out_of_fold(pred, group, d.labels, folds, d.n_classes)


def _knn_out_of_fold(pred, x, labels, folds, fs, n_classes, k_neighbors):
    """Write into `pred` the KNN class of each row of the folds in range
    `fs`, voted by the rows of `x` outside its fold.

    Scored rows go in chunks of at most _CELLS distances, each one matrix
    against all rows with the row's own fold set to NaN.
    """
    fold_of = folds.assignments
    scored = np.flatnonzero((fs.start <= fold_of) & (fold_of < fs.stop))
    step = max(1, _CELLS // x.shape[0])
    for start in range(0, scored.size, step):
        rows = scored[start : start + step]
        dist2 = _squared_distances(x, x[rows])
        np.putmask(dist2, fold_of[rows, None] == fold_of, np.nan)
        pred[rows] = _knn_vote(dist2, labels, k_neighbors, n_classes)


def _gnb_out_of_fold(pred, blocks, labels, folds, n_classes):
    """Write into `pred` the GNB class of each row the blocks score.

    The blocks share a width and each scores the same number of folds
    (one, or all in the one pooled block).  One `_gnb_fit` fits every
    fold on its block's rows outside the fold; each scored row takes its
    fold's statistics, in chunks of at most _CELLS (row x class x column)
    cells.
    """
    fold_of = folds.assignments
    x = np.stack([block for block, _ in blocks])
    fits = np.array([f for _, fs in blocks for f in fs])  # each fit's fold, block-major
    per_block = fits.size // len(blocks)
    at = np.full(folds.n_folds, -1)
    at[fits] = np.arange(fits.size)  # each fold's fit
    train = fold_of[:, None] != fits.reshape(len(blocks), 1, per_block)
    classes, means, variances, bias = _gnb_fit(x, labels, train, n_classes)
    scored = np.flatnonzero(at[fold_of] >= 0)
    step = max(1, _CELLS // (n_classes * x.shape[2]))
    for start in range(0, scored.size, step):
        rows = scored[start : start + step]
        i = at[fold_of[rows]]
        pred[rows] = classes[i, _gnb_pick(x[i // per_block, rows], means[i], variances[i], bias[i])]
