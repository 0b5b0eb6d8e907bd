"""Cross-validated accuracy and benchmark records."""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .classifiers import classify
from .data import Dataset, FoldPlan, standardize
from .forest import ForestParams

__all__ = [
    "accuracy",
    "cross_validate",
    "BenchmarkRecord",
    "CELL_KEY_FIELDS",
    "TIMING_FIELDS",
]

# Record fields excluded from determinism comparisons by design.
TIMING_FIELDS = ("selection_cpu_seconds", "training_cpu_seconds")

# Record fields that identify the sweep cell a record fills, in key order.
CELL_KEY_FIELDS = (
    "dataset", "algorithm", "variant", "estimator", "classifier", "k", "alpha", "seed"
)


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
    is allowed; it simply cannot be predicted there.
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
    accs = np.empty(folds.n_folds, dtype=np.float64)
    for f, sel in enumerate(columns):
        test_rows = folds.fold_rows(f)
        train_rows = folds.train_rows(f)
        train_x = d.features[np.ix_(train_rows, sel)]
        test_x = d.features[np.ix_(test_rows, sel)]
        if scale_per_fold:
            train_x, test_x = standardize(train_x, test_x)
        preds = classify(
            classifier,
            train_x,
            d.labels[train_rows],
            test_x,
            n_classes=d.n_classes,
            k_neighbors=k_neighbors,
            forest=forest,
        )
        accs[f] = accuracy(preds, d.labels[test_rows])
    return float(accs.mean()), float(accs.std())


@dataclasses.dataclass(frozen=True)
class BenchmarkRecord:
    """One benchmark cell: a selection configuration evaluated by one classifier."""

    dataset: str
    algorithm: str
    variant: str
    estimator: str
    classifier: str
    k: int
    alpha: float | None
    n_selected: int
    cv_mean_accuracy: float
    cv_sd: float
    selection_cpu_seconds: float
    training_cpu_seconds: float
    seed: int
    settings: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.cv_mean_accuracy <= 1.0:
            raise ValueError(f"accuracy out of [0, 1]: {self.cv_mean_accuracy}")
        if self.cv_sd < 0:
            raise ValueError("cv_sd must be >= 0")
        if self.n_selected < 1:
            raise ValueError("n_selected must be >= 1")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def comparable_dict(self) -> dict:
        """Record content with timing fields stripped, for determinism checks."""
        row = self.as_dict()
        for f in TIMING_FIELDS:
            row.pop(f)
        return row

    def cell_key(self) -> tuple:
        """Identity of the sweep cell this record fills."""
        return tuple(getattr(self, f) for f in CELL_KEY_FIELDS)

    @classmethod
    def from_dict(cls, row: dict) -> "BenchmarkRecord":
        return cls(**row)
