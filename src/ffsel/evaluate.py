"""Cross-validated accuracy."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .classifiers import RF, classify
from .data import Dataset, FoldPlan, standardize
from .forest import ForestParams, fit_forests

__all__ = ["accuracy", "cross_validate"]


def accuracy(pred: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of exact matches between predictions and ground truth."""
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.ndim != 1 or p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("need at least one prediction")
    return float(np.mean(p == t))


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
    is allowed; it simply cannot be predicted there.  The folds' random
    forests grow in one lockstep fit (`fit_forests`), each fold with its
    own trees, equal to a lone fit on its training rows.
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
    blocks = []  # (train_x, train_y, test_x) per fold
    for f, sel in enumerate(columns):
        train_rows = folds.train_rows(f)
        train_x = d.features[np.ix_(train_rows, sel)]
        test_x = d.features[np.ix_(folds.fold_rows(f), sel)]
        if scale_per_fold:
            train_x, test_x = standardize(train_x, test_x)
        blocks.append((train_x, d.labels[train_rows], test_x))
    if classifier == RF:
        params = forest if forest is not None else ForestParams()
        forests = fit_forests(params, d.n_classes, [b[:2] for b in blocks])
        preds = [m.predict(b[2]) for m, b in zip(forests, blocks)]
    else:
        preds = [classify(classifier, *b, n_classes=d.n_classes, k_neighbors=k_neighbors) for b in blocks]
    accs = np.array([accuracy(p, d.labels[folds.fold_rows(f)]) for f, p in enumerate(preds)])
    return float(accs.mean()), float(accs.std())
