"""Per-feature relevance estimators and pairwise redundancy measures.

Relevance: plug-in mutual information with the label, one-way ANOVA
F-value, random-forest Gini importance, and absolute cosine similarity
with the integer-encoded label.  `relevance_all` scores every column of
a dataset at once; to score some columns, pass it a dataset of those
columns.  Redundancy: pairwise plug-in mutual information or absolute
Pearson correlation, symmetric in the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .forest import _PW_BLOCKSIZE, ForestParams, RandomForest, _last_axis_sum

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
# Rows of `_code_rows` counted together by one ``bincount`` in
# `_mi_against`, the one MI routine (many code rows against one row: the
# labels, or the newest mRMR pick).
_BLOCK = 128
# Most count-table cells one `_mutual_info_stack` call scores, and most
# matrix values `discretize_columns` codes in one block.  The tables of one
# shape are scored in chunks of this size, so a call's working arrays stay
# small however many rows share that shape or columns a matrix has.
_CELLS = 51200
# Stand-in for an infinite F statistic (zero within-group variance with
# separated means); finite so downstream sorting and binning stay usable.
F_VALUE_CAP = 1e30


@dataclass(frozen=True)
class RelevanceVector:
    """Per-feature relevance scores from one named estimator; `relevance_all`'s
    MI vectors also keep the code rows they scored, for MI redundancy (`_code_rows`)."""

    estimator: str
    values: np.ndarray
    _mi_codes: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


def _sorted_quantiles(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(s, q, axis=0)`` of columns already sorted down axis 0.

    The edges are read off the sorted rows by index, with NumPy's default
    ('linear') rule: virtual index ``(n - 1) * q``, its floor and fraction
    gamma, then NumPy's ``_lerp``, ``a + (b - a) * gamma``, or
    ``b - (b - a) * (1 - gamma)`` where gamma >= 0.5.  The values equal
    ``np.quantile``'s; only the sign of a zero edge may differ, since
    ``np.partition`` can swap -0.0 and 0.0.  Needs ``0 <= q < 1`` and at
    least two rows.
    """
    virtual = (s.shape[0] - 1) * q
    lo = np.floor(virtual)
    gamma = (virtual - lo)[:, None]
    i = lo.astype(np.intp)
    a, b = s[i], s[i + 1]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def discretize_columns(x: np.ndarray, bins: int) -> np.ndarray:
    """Integer codes from equal-frequency binning of each column of a matrix:
    one contiguous row per column, shape (n_cols, n_rows), in the smallest
    unsigned dtype that holds ``bins - 1``.

    A column with at most ``bins`` distinct values keeps one code per
    distinct value.  Otherwise interior edges sit at the 1/bins..(bins-1)/bins
    quantiles and each value maps to the lowest bin whose edge reaches it,
    so equal values always share a bin.  Columns are coded in blocks of at
    most ``_CELLS`` values, each copied to contiguous rows: the sorts, run
    starts and compare-adds then all read and write contiguous rows.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    x = np.asarray(x, dtype=np.float64)
    n_rows, n_cols = x.shape
    rows = np.zeros((n_cols, n_rows), dtype=np.min_scalar_type(bins - 1))
    width = max(1, _CELLS // max(1, n_rows))
    for lo in range(0, n_cols, width):
        block = np.ascontiguousarray(x[:, lo : lo + width].T)
        s = np.sort(block, axis=1)
        # Where each run of equal sorted values starts (-0.0 equals 0.0).
        starts = np.concatenate([np.ones((s.shape[0], 1), bool), s[:, 1:] != s[:, :-1]], axis=1)
        few = starts.sum(axis=1) <= bins
        # A code counts the thresholds below the value: bins - 1 quantile edges
        # (only if rows > bins) or each distinct value; +inf pads the rest.
        thresholds = np.full((min(bins, n_rows), s.shape[0]), np.inf)
        if not few.all():
            thresholds[: bins - 1, ~few] = _sorted_quantiles(s[~few].T, np.arange(1, bins) / bins)
        if few.any():
            cols = np.flatnonzero(few)
            thresholds[np.cumsum(starts[cols], axis=1) - 1, cols[:, None]] = s[cols]
        out = rows[lo : lo + width]
        for t in thresholds:
            out += block > t[:, None]
    return rows


def _code_rows(x: np.ndarray, bins: int, rel: RelevanceVector | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`discretize_columns`' code rows and each row's code count: those ``rel``
    kept if made from this ``x`` and ``bins``."""
    kept = rel and rel._mi_codes
    if kept and kept[0] is x and kept[1] == bins:
        return kept[2:]
    rows = discretize_columns(x, bins)
    return rows, rows.max(axis=1).astype(np.intp) + 1


def _pairwise_runs(t: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum each run ``t[start : start + size]`` in the order ``np.sum`` sums
    a 1-D array; ``t`` ends with 8 zeros that no run covers.

    NumPy's pairwise summation adds fewer than 8 values one at a time from
    0.0; adds up to ``_PW_BLOCKSIZE`` values into 8 strided accumulators,
    combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then adds the
    tail one at a time; and splits longer runs at a multiple of 8 near the
    middle, summing each half the same way.  Here all runs share one
    masked pass of 8 lanes: the first block sets the accumulators, each
    later whole block adds to them, and the tail adds one value at a time.
    A run with fewer blocks, or a shorter tail, than the longest reads the
    final zeros instead, which add exactly; a run of fewer than 8 values
    has no block, so its tail adds to the combined zeros, 0.0.  The halves
    of longer runs join the other runs in the next pass.  ``np.sum`` adds
    the result to 0.0.
    """
    big = sizes > _PW_BLOCKSIZE
    if big.any():
        half = sizes[big] // 2
        half -= half % 8
        heads = sizes.copy()
        heads[big] = half
        parts = _pairwise_runs(
            t, np.concatenate([starts, starts[big] + half]), np.concatenate([heads, sizes[big] - half])
        )
        sums = parts[: sizes.size]
        sums[big] += parts[sizes.size :]
        return sums
    zeros = t.size - 8
    lanes = np.arange(8)
    blocks = sizes // 8
    r = t.take(np.where(blocks > 0, starts, zeros)[:, None] + lanes)
    for j in range(1, int(blocks.max(initial=0))):
        r += t.take(np.where(j < blocks, starts + 8 * j, zeros)[:, None] + lanes)
    r = r[:, 0::2] + r[:, 1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
    r = r[:, 0::2] + r[:, 1::2]
    sums = r[:, 0] + r[:, 1]
    tails = starts + 8 * blocks
    tail_sizes = sizes - 8 * blocks
    for i in range(int(tail_sizes.max(initial=0))):
        sums += t.take(np.where(i < tail_sizes, tails + i, zeros))
    return sums


def _middle_sum(p: np.ndarray) -> np.ndarray:
    """``p.sum(axis=1)`` of a C-contiguous (m, ka, kb) stack, bit for bit.

    NumPy reduces the middle axis with its inner loop along the contiguous
    last one, adding the ka rows of kb values one at a time to 0.0, except
    when kb is 1: then it coalesces the stack to (m, ka) and sums each run
    pairwise, which ``p.sum`` is left to do.  `_last_axis_sum` copies the
    last axis's order.
    """
    if p.shape[2] == 1:
        return p.sum(axis=1)
    total = p[:, 0] + 0.0
    for a in range(1, p.shape[1]):
        total += p[:, a]
    return total


def _mutual_info_stack(joint: np.ndarray) -> np.ndarray:
    """Plug-in MI, in nats, of each table in an (m, ka, kb) stack of counts.

    Each step is the per-table formula's arithmetic (``tests/oracles.py``'s
    ``oracle_mi_from_counts``) applied to the whole stack, which rounds as
    it does table by table.  The nonzero cells are gathered once, in
    row-major order, so each table's L terms form one run, and
    `_pairwise_runs` sums every run in ``np.sum``'s order: every value
    equals the per-table formula's bit for bit.
    """
    m, ka, kb = joint.shape
    # Integer counts, summed and divided as exactly as their float64 copies.
    n = joint.sum(axis=(1, 2))
    # An empty table scores 0.0, as its L = 0 cells sum to.
    p = joint / np.where(n == 0, 1.0, n)[:, None, None]
    outer = _last_axis_sum(p)[:, :, None] * _middle_sum(p)[:, None, :]
    cells = np.flatnonzero(p > 0)
    pv = p.take(cells)
    # The terms, computed in place, then the 8 zeros `_pairwise_runs` reads.
    padded = np.zeros(cells.size + 8)
    terms = padded[: cells.size]
    outer.take(cells, out=terms)
    np.divide(pv, terms, out=terms)
    np.log(terms, out=terms)
    terms *= pv
    bounds = np.searchsorted(cells, np.arange(m + 1) * (ka * kb))
    sums = 0.0 + _pairwise_runs(padded, bounds[:-1], np.diff(bounds))
    return np.where(sums < 0.0, 0.0, sums)


def _mi_against(
    rows: np.ndarray, idx: np.ndarray, levels: np.ndarray, row: np.ndarray, k: int, row_first: bool = False
) -> np.ndarray:
    """Plug-in MI, in nats, of each code row ``rows[i]`` (``i`` in ``idx``)
    with the one code row ``row``, whose codes lie below ``k``.

    Row ``i`` holds codes below ``levels[i]``.  Each table is oriented
    (``rows[i]``, ``row``), or (``row``, ``rows[i]``) when ``row_first``.
    Rows with the same code count share one table shape; their tables are
    counted by one ``bincount`` per ``_BLOCK`` rows, over (table, first
    code, second code), and scored by `_mutual_info_stack` at most
    ``_CELLS`` cells at a time.
    """
    values = np.empty(idx.size)
    counts = levels[idx]
    for ka in np.flatnonzero(np.bincount(counts)):
        group = np.flatnonzero(counts == ka)
        shape = (k, ka) if row_first else (ka, k)
        step = max(1, _CELLS // (ka * k))
        for lo in range(0, group.size, step):
            chunk = group[lo : lo + step]
            joint = np.empty((chunk.size, *shape), dtype=np.int64)
            for b in range(0, chunk.size, _BLOCK):
                block = rows[idx[chunk[b : b + _BLOCK]]].astype(np.intp)  # uint8 codes would overflow
                m = len(block)
                flat = np.arange(m)[:, None] * (ka * k) + (row * ka + block if row_first else block * k + row)
                joint[b : b + m] = np.bincount(flat.ravel(), minlength=m * ka * k).reshape(m, *shape)
            values[chunk] = _mutual_info_stack(joint)
    return values


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
        rows, levels = _code_rows(d.features, mi_bins)
        vec = RelevanceVector(MI, _mi_against(rows, np.arange(d.n_cols), levels, d.labels, int(d.labels.max()) + 1))
        object.__setattr__(vec, "_mi_codes", (d.features, mi_bins, rows, levels))
        return vec
    return RelevanceVector(estimator, _f_values(d) if estimator == FVALUE else _cosines(d))


class RedundancyCache:
    """Pairwise redundancy values for one dataset, computed against one
    column for many candidates at once.

    MI values read codes from one discretization of the whole matrix and
    score each table as oriented (lower index, higher index), reusing those
    ``rel`` kept if `relevance_all` made it from ``d`` with ``mi_bins``.  Pearson
    values read centered columns and their norms, prepared once: for
    centered columns a and b, |sum(a * b)| / (sqrt(sum(a * a)) * sqrt(sum(b * b))),
    capped at 1 and 0.0 when either column is constant.  Each sum runs
    over one contiguous row in ``np.sum``'s order, so every value is
    bit-identical to the same formula on a lone pair of columns.
    """

    def __init__(self, d: Dataset, measure: str, mi_bins: int = DEFAULT_MI_BINS, *, rel: RelevanceVector | None = None):
        if measure not in REDUNDANCY_MEASURES:
            raise ValueError(f"unknown redundancy measure {measure!r}")
        self.measure = measure
        self._computed = 0
        if measure == MI_PAIR:
            self._codes, self._levels = _code_rows(d.features, mi_bins, rel)
        else:
            # One contiguous row per column: row means and sums then reduce
            # in the same order as on a lone column.
            self._centered = np.array(d.features.T, dtype=np.float64, order="C")
            self._centered -= self._centered.mean(axis=1, keepdims=True)
            self._norms = np.sqrt(np.square(self._centered).sum(axis=1))

    def against(self, newest: int, candidates: np.ndarray) -> np.ndarray:
        """Redundancy of each candidate column with column ``newest``.

        MI scores the candidates' codes against the newest pick's with
        `_mi_against`, at most ``_CELLS`` table cells per kernel call: once
        for the candidates below ``newest``, as (candidate, newest) tables,
        and once for those above, as (newest, candidate), so each table is
        oriented (lower index, higher index).  Pearson candidates are
        scored in chunks of ``_BLOCK``.
        """
        candidates = np.asarray(candidates, dtype=np.intp)
        if (candidates == newest).any():
            raise ValueError("redundancy is defined for distinct columns only")
        self._computed += candidates.size
        values = np.empty(candidates.size)
        if self.measure == MI_PAIR:
            codes, levels = self._codes, self._levels
            row, k = codes[newest].astype(np.intp), int(levels[newest])
            above = candidates > newest
            values[~above] = _mi_against(codes, candidates[~above], levels, row, k)
            values[above] = _mi_against(codes, candidates[above], levels, row, k, row_first=True)
            return values
        centered, norms = self._centered, self._norms
        for lo in range(0, candidates.size, _BLOCK):
            chunk = candidates[lo : lo + _BLOCK]
            dots = np.abs((centered[chunk] * centered[newest]).sum(axis=1))
            denom = norms[chunk] * norms[newest]
            ratio = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
            values[lo : lo + _BLOCK] = np.minimum(ratio, 1.0)
        return values

    def get(self, i: int, j: int) -> float:
        """Redundancy of the pair (i, j), symmetric in the pair."""
        return float(self.against(j, np.array([i]))[0])

    def __len__(self) -> int:
        """Pair values computed so far."""
        return self._computed
