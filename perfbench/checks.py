"""Output checks computed apart from ffsel.

Every reference here is written from the method's definition, vectorized
over columns, and shares no code with the package: the CSV is parsed and
scaled again, relevance is recomputed (plug-in MI on equal-frequency codes,
textbook one-way ANOVA F, cosine), and greedy mRMR is replayed step by step
with redundancies computed here. Each check raises ``CheckFailed`` with the
first disagreement it finds.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

REL_TOL = 1e-9  # agreement of relevance values and of greedy scores
MI_BINS = 10  # the package's default equal-frequency bin count
F_CAP = 1e30  # F for zero within-class variance with separated means
MRMR_ESTIMATOR = {
    "MID": "MI", "MIQ": "MI", "MIFS": "MI",
    "FCD": "FVALUE", "FCQ": "FVALUE",
    "RFCD": "GINI", "RFCQ": "GINI",
}


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def tol(value: float) -> float:
    return REL_TOL * max(1.0, abs(float(value)))


# ----------------------------------------------------------------- inputs

def parse_scaled(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """Header names, z-scored matrix (population sd) and label strings."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:] if line]
    x = np.array([row[:-1] for row in cells], dtype=np.float64)
    return header[:-1], zscore(x), [row[-1] for row in cells]


def zscore(x: np.ndarray) -> np.ndarray:
    """Columns centred and divided by their population sd; constant ones 0."""
    sd = x.std(axis=0)
    return np.where(sd > 0, (x - x.mean(axis=0)) / np.where(sd > 0, sd, 1.0), 0.0)


def check_dataset(d, path: Path) -> None:
    names, z, label_strings = parse_scaled(path)
    if list(d.feature_names) != names:
        raise CheckFailed("feature names differ from the CSV header")
    if d.features.shape != z.shape:
        raise CheckFailed(f"matrix shape {d.features.shape} != CSV shape {z.shape}")
    worst = float(np.max(np.abs(d.features - z)))
    if worst > 1e-9:
        raise CheckFailed(f"scaled matrix differs from the CSV by {worst:.3g}")
    decoded = [d.class_names[c] for c in d.labels]
    if decoded != label_strings:
        raise CheckFailed("decoded labels differ from the CSV class column")


# -------------------------------------------------------------- relevance

def equal_frequency_codes(x: np.ndarray, bins: int = MI_BINS) -> np.ndarray:
    """Codes of every column under the rule `discretize_equal_frequency`
    documents: one code per distinct value when a column has at most `bins`
    of them, else the number of interior quantile edges below the value."""
    edges = np.quantile(x, np.arange(1, bins) / bins, axis=0)
    codes = np.zeros(x.shape, dtype=np.int64)
    for edge in edges:
        codes += x > edge
    xs = np.sort(x, axis=0)
    n_distinct = 1 + np.count_nonzero(np.diff(xs, axis=0) > 0, axis=0)
    for j in np.flatnonzero(n_distinct <= bins):
        codes[:, j] = np.searchsorted(np.unique(x[:, j]), x[:, j])
    return codes


def _entropy(counts: np.ndarray) -> np.ndarray:
    """Plug-in entropy in nats of each row of a count matrix."""
    p = counts / counts.sum(axis=1, keepdims=True)
    logs = np.log(np.where(p > 0, p, 1.0))
    return -(p * logs).sum(axis=1)


def _mi_from_joint(joint: np.ndarray) -> np.ndarray:
    """I(A;B) = H(A) + H(B) - H(A,B) for a stack of joint count tables."""
    m = joint.shape[0]
    mi = _entropy(joint.sum(axis=2)) + _entropy(joint.sum(axis=1)) - _entropy(joint.reshape(m, -1))
    return np.maximum(mi, 0.0)


def mi_with_labels(codes: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    n_cols = codes.shape[1]
    width = MI_BINS * n_classes
    flat = np.arange(n_cols) * width + codes * n_classes + labels[:, None]
    joint = np.bincount(flat.ravel(), minlength=n_cols * width)
    return _mi_from_joint(joint.reshape(n_cols, MI_BINS, n_classes).astype(np.float64))


def mi_against(codes: np.ndarray, j: int) -> np.ndarray:
    """MI between column j and every column."""
    n_cols = codes.shape[1]
    width = MI_BINS * MI_BINS
    flat = np.arange(n_cols) * width + codes[:, [j]] * MI_BINS + codes
    joint = np.bincount(flat.ravel(), minlength=n_cols * width)
    return _mi_from_joint(joint.reshape(n_cols, MI_BINS, MI_BINS).astype(np.float64))


def anova_f(x: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    n = x.shape[0]
    grand = x.mean(axis=0)
    between = np.zeros(x.shape[1])
    within = np.zeros(x.shape[1])
    for c in range(n_classes):
        g = x[labels == c]
        between += g.shape[0] * (g.mean(axis=0) - grand) ** 2
        within += ((g - g.mean(axis=0)) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (between / (n_classes - 1)) / (within / (n - n_classes))
    return np.where(within > 0, f, np.where(between > 0, F_CAP, 0.0))


def cosine(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    y = labels.astype(np.float64)
    norms = np.sqrt((x * x).sum(axis=0)) * np.sqrt(y @ y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norms > 0, np.abs(y @ x) / norms, 0.0)


def abs_pearson_against(z: np.ndarray, j: int) -> np.ndarray:
    """|r| between column j and every column of a z-scored matrix."""
    return np.minimum(np.abs(z[:, j] @ z) / z.shape[0], 1.0)


class Reference:
    """Reference quantities for one scaled dataset, computed on demand."""

    def __init__(self, d):
        self.x = np.array(d.features)
        self.labels = np.array(d.labels)
        self.n_classes = d.n_classes
        self._codes = None
        self._z = None
        self._relevance: dict[str, np.ndarray] = {}

    @property
    def codes(self) -> np.ndarray:
        if self._codes is None:
            self._codes = equal_frequency_codes(self.x)
        return self._codes

    @property
    def z(self) -> np.ndarray:
        if self._z is None:
            self._z = zscore(self.x)
        return self._z

    def relevance(self, estimator: str) -> np.ndarray:
        if estimator not in self._relevance:
            if estimator == "MI":
                v = mi_with_labels(self.codes, self.labels, self.n_classes)
            elif estimator == "FVALUE":
                v = anova_f(self.x, self.labels, self.n_classes)
            elif estimator == "COSINE":
                v = cosine(self.x, self.labels)
            else:
                raise ValueError(f"no reference for estimator {estimator!r}")
            self._relevance[estimator] = v
        return self._relevance[estimator]

    def redundancy(self, measure: str) -> Callable[[int], np.ndarray]:
        if measure == "MI_PAIR":
            return lambda j: mi_against(self.codes, j)
        if measure == "ABS_PEARSON":
            return lambda j: abs_pearson_against(self.z, j)
        raise ValueError(f"no reference for redundancy {measure!r}")


def check_relevance(got: np.ndarray, want: np.ndarray, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: {got.shape[0]} values, expected {want.shape[0]}")
    gap = np.abs(got - want) - REL_TOL * np.maximum(1.0, np.abs(want))
    if np.any(gap > 0):
        j = int(np.argmax(gap))
        raise CheckFailed(f"{what}: column {j} reads {got[j]!r}, reference {want[j]!r}")


# -------------------------------------------------------------- selectors

def _check_unique(selected: Sequence[int], n: int, what: str) -> None:
    if len(set(selected)) != len(selected) or any(not 0 <= i < n for i in selected):
        raise CheckFailed(f"{what}: picks repeat or fall outside 0..{n - 1}")


def check_kbest(selected: Sequence[int], rel: np.ndarray, k: int) -> None:
    """The picks are the k largest relevance values, in descending order."""
    _check_unique(selected, rel.size, "KBest")
    if len(selected) != k:
        raise CheckFailed(f"KBest: {len(selected)} picks for k={k}")
    picked = rel[list(selected)]
    if np.any(np.diff(picked) > tol(picked[0])):
        raise CheckFailed("KBest: picks are not in descending relevance order")
    rest = np.delete(rel, list(selected))
    if rest.size and rest.max() > picked.min() + tol(picked.min()):
        raise CheckFailed(f"KBest: unpicked relevance {rest.max()!r} beats picked {picked.min()!r}")


def kgroups_bins(rel: np.ndarray, k: int, alpha: float) -> np.ndarray:
    """Bin of each feature: the first j whose edge rel_min + span*(j/k)^alpha
    reaches its relevance; the last edge is rel_max itself."""
    lo, hi = float(rel.min()), float(rel.max())
    edges = lo + (hi - lo) * (np.arange(1, k + 1) / k) ** alpha
    edges[-1] = hi
    return (rel[:, None] > edges[None, :]).sum(axis=1)


def check_kgroups(
    selected: Sequence[int], rel: np.ndarray, k: int, alpha: float, breaker: np.ndarray
) -> None:
    """Each non-empty bin contributes its relevance maximum. Several picks
    from one bin are allowed only when they tie on relevance and on the
    tie-breaker; the output runs in descending relevance."""
    _check_unique(selected, rel.size, "KGroups")
    bins = kgroups_bins(rel, k, alpha)
    by_bin: dict[int, list[int]] = {}
    for i in selected:
        by_bin.setdefault(int(bins[i]), []).append(i)
    for b in np.unique(bins):
        members = np.flatnonzero(bins == b)
        picks = by_bin.get(int(b), [])
        if not picks:
            raise CheckFailed(f"KGroups: bin {b} ({members.size} features) has no pick")
        top = float(rel[members].max())
        for i in picks:
            if rel[i] < top - tol(top):
                raise CheckFailed(f"KGroups: pick {i} ({rel[i]!r}) is not the maximum {top!r} of bin {b}")
        tb = breaker[picks]
        if len(picks) > 1 and tb.max() - tb.min() > tol(tb.max()):
            raise CheckFailed(f"KGroups: bin {b} has {len(picks)} picks that the tie-breaker separates")
        # Relevance ties as the package defines them (1e-12 relative) go to
        # the tie-breaker, so the picks must hold its maximum among them.
        tied = members[rel[members] >= top - 1e-12 * max(1.0, abs(top))]
        if tb.min() < breaker[tied].max() - tol(breaker[tied].max()):
            raise CheckFailed(f"KGroups: bin {b} tie went to a feature the tie-breaker ranks lower")
    picked = rel[list(selected)]
    if np.any(np.diff(picked) > tol(picked[0])):
        raise CheckFailed("KGroups: picks are not in descending relevance order")


def check_mrmr(
    selected: Sequence[int],
    rel: np.ndarray,
    k: int,
    redundancy: Callable[[int], np.ndarray],
) -> None:
    """Replay greedy mRMR in difference form with mean redundancy: every
    pick must score within REL_TOL of the best available candidate."""
    _check_unique(selected, rel.size, "mRMR")
    if len(selected) != k:
        raise CheckFailed(f"mRMR: {len(selected)} picks for k={k}")
    if rel[selected[0]] < rel.max() - tol(rel.max()):
        raise CheckFailed(f"mRMR: first pick {selected[0]} is not the relevance maximum")
    available = np.ones(rel.size, dtype=bool)
    red_sum = np.zeros(rel.size)
    for step in range(1, k):
        newest = selected[step - 1]
        available[newest] = False
        red_sum += redundancy(newest)
        scores = rel - red_sum / step
        best = float(scores[available].max())
        pick = selected[step]
        if scores[pick] < best - tol(best):
            raise CheckFailed(f"mRMR: step {step} picked {pick} scoring {scores[pick]!r}, best is {best!r}")


# ------------------------------------------------------------------ sweeps

def record_key(row: Mapping) -> tuple:
    label = row["variant"] if row["algorithm"].startswith("MRMR") else row["algorithm"]
    return (label, row["estimator"], int(row["k"]), row["alpha"], row["classifier"])


def expected_cells(cfg) -> set[tuple]:
    """Every (algorithm, estimator, k, alpha, classifier) cell the config asks for."""
    ks = range(cfg.k_min, cfg.k_max + 1)
    cells: set[tuple] = set()
    for algo in cfg.algorithms:
        if algo == "KBEST":
            combos = [(algo, est, None) for est in cfg.estimators]
        elif algo == "KGROUPS":
            combos = [(algo, est, a) for est in cfg.estimators for a in cfg.alpha_grid]
        else:
            combos = [(algo, MRMR_ESTIMATOR[algo], None)]
        for algo_label, est, alpha in combos:
            for k in ks:
                for clf in cfg.classifiers:
                    cells.add((algo_label, est, k, alpha, clf))
    return cells


def comparable(rows: Iterable[Mapping]) -> list[dict]:
    """Records with every timing field (``*_seconds``) dropped."""
    return [{k: v for k, v in row.items() if not k.endswith("_seconds")} for row in rows]


def check_sweep(rows: Sequence[Mapping], cfg, majority_rate: float) -> None:
    """Cell coverage, selection sizes, accuracy range and a quality bar:
    on planted data each algorithm's best accuracy, per estimator, must
    clear half the way from the majority-class rate to 1."""
    want = expected_cells(cfg)
    keys = [record_key(row) for row in rows]
    twice = [key for key, n in Counter(keys).items() if n > 1]
    if twice:
        raise CheckFailed(f"sweep: cell {twice[0]} recorded {Counter(keys)[twice[0]]} times")
    if set(keys) != want:
        missing = sorted(want - set(keys), key=repr)
        extra = sorted(set(keys) - want, key=repr)
        raise CheckFailed(f"sweep: {len(keys)} records for {len(want)} cells; missing {missing[:1]}, extra {extra[:1]}")
    best: dict[tuple, float] = {}
    for row, key in zip(rows, keys):
        acc = row["cv_mean_accuracy"]
        if not 0.0 <= acc <= 1.0:
            raise CheckFailed(f"sweep: cell {key} accuracy {acc!r} outside [0, 1]")
        if key[0] != "KGROUPS" and row["n_selected"] != key[2]:
            raise CheckFailed(f"sweep: cell {key} selected {row['n_selected']} features")
        if row["n_selected"] < 1:
            raise CheckFailed(f"sweep: cell {key} selected nothing")
        group = (key[0], key[1])
        best[group] = max(best.get(group, 0.0), acc)
    bar = (1.0 + majority_rate) / 2
    for group, acc in sorted(best.items()):
        if acc < bar:
            raise CheckFailed(f"sweep: best accuracy of {group} is {acc:.3f}, below the bar {bar:.3f}")
