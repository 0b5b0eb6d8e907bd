"""Dataset loading, label encoding, standard scaling, and stratified folds.

Everything downstream (relevance estimation, selection, cross validation)
works on the immutable :class:`Dataset` produced here.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "FoldPlan", "DataError", "load_csv", "standard_scale", "make_folds"]


class DataError(Exception):
    """Raised when an input file cannot be turned into a valid Dataset."""


@dataclass(frozen=True)
class Dataset:
    """Column-accessible numeric feature matrix with encoded class labels.

    ``features`` is an n_rows x n_cols float64 matrix stored column-major,
    ``labels`` holds integer class ids 0..C-1, and ``class_names`` records
    the original label string for each id.
    """

    name: str
    features: np.ndarray
    feature_names: list[str]
    labels: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        feats = np.asfortranarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DataError(f"{self.name}: features must be a 2-D matrix")
        n_rows, n_cols = feats.shape
        if n_rows < 2:
            raise DataError(f"{self.name}: need at least 2 rows, got {n_rows}")
        if n_cols < 1:
            raise DataError(f"{self.name}: need at least 1 feature column")
        if len(self.feature_names) != n_cols:
            raise DataError(f"{self.name}: {len(self.feature_names)} feature names for {n_cols} columns")
        if labels.shape != (n_rows,):
            raise DataError(f"{self.name}: labels length {labels.shape} != n_rows {n_rows}")
        if not np.all(np.isfinite(feats)):
            r, c = np.argwhere(~np.isfinite(feats))[0]
            raise DataError(f"{self.name}: non-finite value at row {r}, column {self.feature_names[c]!r}")
        n_classes = len(self.class_names)
        if n_classes < 2:
            raise DataError(f"{self.name}: need at least 2 classes, got {n_classes}")
        present = np.unique(labels)
        if present.min() < 0 or present.max() >= n_classes or len(present) != n_classes:
            raise DataError(f"{self.name}: every class id in 0..{n_classes - 1} must appear at least once")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_cols(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class FoldPlan:
    """Stratified assignment of each row to one of ``n_folds`` folds."""

    n_folds: int
    assignments: np.ndarray

    def __post_init__(self):
        assignments = np.asarray(self.assignments, dtype=np.int64)
        if self.n_folds < 1:
            raise ValueError("n_folds must be positive")
        if assignments.min() < 0 or assignments.max() >= self.n_folds:
            raise ValueError("fold ids must lie in 0..n_folds-1")
        counts = np.bincount(assignments, minlength=self.n_folds)
        if counts.min() == 0:
            raise ValueError("every fold must be non-empty")
        assignments.flags.writeable = False
        object.__setattr__(self, "assignments", assignments)

    def fold_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def load_csv(path, label_column: str | int | None = None) -> Dataset:
    """Load a UTF-8 comma-separated file with one header row into a Dataset.

    ``label_column`` selects the class column by header name or 0-based
    index; an int, or a decimal string with an optional leading ``-``, is
    an index.  It defaults to the last column.  Labels are encoded to 0..C-1 in
    first-appearance order and the original strings kept in ``class_names``.
    All remaining cells must parse as finite reals.  A file that is not
    UTF-8 text is a DataError naming it.

    NumPy's C reader parses the rows after the header.  Text it refuses,
    another cell count or a non-finite value goes back to the start for
    `_read_cells`, which loads the same Dataset or names the fault.
    """
    path = str(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if label_column is None:
                label_idx = len(header) - 1
            elif isinstance(label_column, int) or (isinstance(label_column, str) and label_column.removeprefix("-").isdecimal()):
                label_idx = int(label_column)
                if label_idx < 0:
                    label_idx += len(header)
                if not 0 <= label_idx < len(header):
                    raise DataError(f"{path}: label column index {label_column} out of range")
            else:
                try:
                    label_idx = header.index(label_column)
                except ValueError:
                    raise DataError(f"{path}: no column named {label_column!r} in header") from None

            feature_names = [h for i, h in enumerate(header) if i != label_idx]
            if not feature_names:
                raise DataError(f"{path}: no feature columns besides the label")

            features, label_strings = _read_table(fh, len(header), label_idx) or _read_cells(fh, path, header, label_idx)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None

    if len(label_strings) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(label_strings)}")

    class_names: list[str] = []
    mapping: dict[str, int] = {}
    labels = np.empty(len(label_strings), dtype=np.int64)
    for i, s in enumerate(label_strings):
        if s not in mapping:
            mapping[s] = len(class_names)
            class_names.append(s)
        labels[i] = mapping[s]
    if len(class_names) < 2:
        raise DataError(f"{path}: label column is constant ({class_names[0]!r}); need at least 2 classes")

    return Dataset(
        name=_stem(path),
        features=features,
        feature_names=feature_names,
        labels=labels,
        class_names=class_names,
    )


def _body_lines(fh) -> Iterator[str]:
    """The lines left in `fh`, without the whitespace-only lines that come
    before the first quote.

    The csv module skips such a line, while NumPy reads it as a one-cell
    row.  Until a quote appears no quoted cell can be open, so the line
    ends no record; after one it may lie inside a quoted cell, and every
    line is kept.
    """
    quoted = False
    for line in fh:  # not `yield from fh`, whose close() would close the file
        quoted = quoted or '"' in line
        if quoted or not line.isspace():
            yield line


def _read_table(fh, n_cells: int, label_idx: int) -> tuple[np.ndarray, list[str]] | None:
    """The column-major feature block and stripped labels of the rows left
    in `fh` (`_body_lines`) by one `np.loadtxt` call; None where it raises or a
    row is not `n_cells` finite cells."""
    label_strings: list[str] = []

    def label(cell: str) -> float:
        label_strings.append(cell.strip())
        return 0.0

    try:
        with warnings.catch_warnings():
            # An empty body goes to _read_cells, which reports it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(_body_lines(fh), dtype=np.float64, delimiter=",", comments=None, quotechar='"',
                               ndmin=2, converters={label_idx: label})
    except ValueError:  # UnicodeDecodeError too
        return None
    if table.shape[1] != n_cells or not np.isfinite(table).all():
        return None
    return table.T[[i for i in range(n_cells) if i != label_idx]].T, label_strings


def _read_cells(fh, path: str, header: list[str], label_idx: int) -> tuple[np.ndarray, list[str]]:
    """The feature rows and stripped labels of the records after the header,
    read again from the start of `fh` cell by cell by the csv module;
    DataError on a wrong cell count or a cell that is no finite real."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    rows: list[list[float]] = []
    label_strings: list[str] = []
    for row_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
        values = []
        for col_no, cell in enumerate(row):
            if col_no == label_idx:
                label_strings.append(cell.strip())
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {row_no}, column {header[col_no]!r}: cannot parse {cell!r} as a real number"
                ) from None
            if not math.isfinite(v):
                raise DataError(f"{path}: row {row_no}, column {header[col_no]!r}: non-finite value {cell!r}")
            values.append(v)
        rows.append(values)
    return np.array(rows, dtype=np.float64), label_strings


def _stem(path: str) -> str:
    base = path.replace("\\", "/").rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def standardize(train: np.ndarray, *others: np.ndarray) -> list[np.ndarray]:
    """`train` and each other block, standardized by `train`'s columns.

    Every block is centered by the column means of `train` and divided by
    its population standard deviations.  Columns constant in `train` are
    mapped to all zeros instead of raising.
    """
    mean = train.mean(axis=0)
    sd = train.std(axis=0)  # population sd (ddof=0)
    safe = np.where(sd > 0, sd, 1.0)
    scaled = [(block - mean) / safe for block in (train, *others)]
    for block in scaled:
        block[:, sd == 0] = 0.0
    return scaled


def standard_scale(d: Dataset) -> Dataset:
    """Center every column to mean 0 and population standard deviation 1.

    Zero-variance columns are mapped to all zeros instead of raising.
    Labels, names, and column order are untouched.
    """
    (scaled,) = standardize(d.features)
    return Dataset(
        name=d.name,
        features=scaled,
        feature_names=list(d.feature_names),
        labels=d.labels.copy(),
        class_names=list(d.class_names),
    )


def make_folds(d: Dataset, n_folds: int, seed: int = 0) -> FoldPlan:
    """Build a deterministic stratified fold plan.

    Rows of each class are shuffled with the seeded generator and dealt
    round-robin onto folds, continuing the fold pointer across classes so
    per-class counts differ by at most 1 and no fold is left empty.
    Classes with fewer members than folds are allowed (they simply span
    fewer folds) but trigger a warning.
    """
    if n_folds < 1:
        raise ValueError("n_folds must be positive")
    if n_folds > d.n_rows:
        raise ValueError(f"n_folds={n_folds} exceeds n_rows={d.n_rows}")
    rng = np.random.default_rng(seed)
    assignments = np.empty(d.n_rows, dtype=np.int64)
    pointer = 0
    for class_id in range(d.n_classes):
        members = np.flatnonzero(d.labels == class_id)
        if len(members) < n_folds:
            warnings.warn(
                f"{d.name}: class {d.class_names[class_id]!r} has {len(members)} members "
                f"for {n_folds} folds; it will span only {len(members)} folds",
                stacklevel=2,
            )
        members = rng.permutation(members)
        for row in members:
            assignments[row] = pointer % n_folds
            pointer += 1
    return FoldPlan(n_folds=n_folds, assignments=assignments)
