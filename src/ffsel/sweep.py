"""Benchmark sweep over datasets, estimators, selectors, and classifiers.

Produces one JSON-lines record per (dataset, estimator, algorithm variant,
k, classifier) cell.  The whole sweep is planned, and checked against the
records already stored, before anything is written; then it runs one
dataset at a time.  A cell selects on the whole dataset, or with
`select_per_fold` inside each fold's training view (built once per fold),
and scores its subsets through `cross_validate`.  Relevance vectors are
computed once per estimator (and fold), then shared across every k and
alpha; MI redundancy reuses MI relevance's code rows.  Each greedy mRMR
variant runs once from cold to the largest pending k; each k's record takes
its first k picks, so its selection cost does not depend on cell order.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from pathlib import Path
from time import thread_time
from typing import Iterator, Mapping, Sequence

import numpy as np

from .classifiers import CLASSIFIERS, GNB, KNN, RF
from .data import DataError, Dataset, FoldPlan, _stem, load_csv, make_folds, standard_scale, standardize
from .evaluate import cross_validate
from .forest import ForestParams
from .records import CELL_KEY_FIELDS, BenchmarkRecord, appending, read_for_resume
from .relevance import (
    COSINE,
    DEFAULT_MI_BINS,
    ESTIMATORS,
    FVALUE,
    GINI,
    MI,
    RelevanceVector,
    relevance_all,
)
from .selectors import (
    DIFFERENCE,
    KBEST,
    KGROUPS,
    MRMR_D,
    MRMR_Q,
    MRMR_VARIANTS,
    SelectionResult,
    select_kbest,
    select_kgroups,
    select_mrmr,
)

__all__ = ["SweepConfig", "run_sweep"]

log = logging.getLogger("ffsel.sweep")

DEFAULT_ALGORITHMS = (KBEST, "MID", "MIQ", "FCD", "FCQ", "RFCQ", KGROUPS)
DEFAULT_ALPHA_GRID = (0.3, 0.5, 0.7, 1.0, 1.3, 1.5, 1.7)
DEFAULT_TIE_BREAKERS: dict[str, tuple[str, ...]] = {
    MI: (COSINE,),
    FVALUE: (MI,),
    GINI: (MI,),
}


# JSON types of the entries of the list-valued config keys, and how a message names them.
_LIST_TYPES: dict[str, tuple[tuple[type, ...], str]] = {
    **dict.fromkeys(("datasets", "estimators", "algorithms", "classifiers"), ((str,), "strings")),
    "alpha_grid": ((int, float), "numbers"),
    "k_range": ((int,), "integers"),
}
# JSON types of the scalar config keys, and how a message names them.
_SCALAR_TYPES: dict[str, tuple[tuple[type, ...], str]] = {
    **dict.fromkeys(("k_min", "k_max", "n_folds", "seed", "mi_bins", "k_neighbors"), ((int,), "an integer")),
    **dict.fromkeys(("scale", "scale_per_fold", "select_per_fold"), ((bool,), "true or false")),
    "beta": ((int, float), "a number"),
    "output_dir": ((str,), "a string"),
    "label_column": ((str, int, type(None)), "a string, an integer or null"),
}


def _has_type(value: object, types: tuple[type, ...]) -> bool:
    """Whether a JSON value has one of `types`; a bool counts only as a bool."""
    return isinstance(value, types) and isinstance(value, bool) == (bool in types)


def _is_list_of(value: object, types: tuple[type, ...]) -> bool:
    """Whether a JSON value is a list whose entries all have one of `types`."""
    return isinstance(value, (list, tuple)) and all(_has_type(v, types) for v in value)


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Full description of one benchmark sweep."""

    datasets: tuple[str, ...]
    output_dir: str
    estimators: tuple[str, ...] = (MI, FVALUE, GINI)
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    k_min: int = 2
    k_max: int = 100
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    tie_breaker_map: Mapping[str, tuple[str, ...]] = dataclasses.field(
        default_factory=DEFAULT_TIE_BREAKERS.copy
    )
    classifiers: tuple[str, ...] = (KNN, GNB, RF)
    n_folds: int = 5
    seed: int = 0
    label_column: str | int | None = None
    mi_bins: int = DEFAULT_MI_BINS
    beta: float = 1.0
    scale: bool = True
    scale_per_fold: bool = False
    select_per_fold: bool = False
    k_neighbors: int = 5

    def validate(self) -> None:
        if not self.datasets:
            raise ValueError("config needs at least one dataset path")
        # Records, resume and the per-dataset caches key by the name load_csv
        # gives a dataset, its file stem.
        first_path: dict[str, str] = {}
        for path in map(str, self.datasets):
            name = _stem(path)
            if name in first_path:
                raise ValueError(
                    f"datasets {first_path[name]!r} and {path!r} share the name {name!r}"
                )
            first_path[name] = path
        if self.k_min > self.k_max:
            raise ValueError(f"empty k range [{self.k_min}, {self.k_max}]")
        if not self.algorithms:
            raise ValueError("config needs at least one algorithm")
        if not self.classifiers:
            raise ValueError("config needs at least one classifier")
        # mRMR variants carry their own estimator; KBest and KGroups use these.
        if not self.estimators and {KBEST, KGROUPS} & set(self.algorithms):
            raise ValueError("KBEST and KGROUPS need at least one estimator")
        if not self.alpha_grid and KGROUPS in self.algorithms:
            raise ValueError("KGROUPS needs at least one alpha value")
        if any(not 0 < a < math.inf for a in self.alpha_grid):
            raise ValueError("alpha values must be > 0 and finite")
        for key in ("estimators", "algorithms", "classifiers", "alpha_grid"):
            values = getattr(self, key)
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"config key {key!r} repeats {repeats[0]!r}")
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ValueError(f"unknown estimator: {est!r}")
        for algo in self.algorithms:
            if algo not in (KBEST, KGROUPS) and algo not in MRMR_VARIANTS:
                raise ValueError(f"unknown algorithm or variant: {algo!r}")
        for clf in self.classifiers:
            if clf not in CLASSIFIERS:
                raise ValueError(f"unknown classifier: {clf!r}")
        for est, breakers in self.tie_breaker_map.items():
            if est not in ESTIMATORS:
                raise ValueError(f"tie-breaker map keys must be estimators, got {est!r}")
            for i, tb in enumerate(breakers):
                if tb not in ESTIMATORS:
                    raise ValueError(f"unknown tie-breaker estimator: {tb!r}")
                if tb in breakers[:i]:
                    raise ValueError(f"config key 'tie_breaker_map' repeats {tb!r} for {est!r}")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mi_bins < 1:
            raise ValueError(f"mi_bins must be >= 1, got {self.mi_bins}")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_mapping(cls, *docs: Mapping[str, object]) -> "SweepConfig":
        """Build a config from parsed key-value documents (e.g. JSON), each
        checked on its own; a later document's keys override an earlier one's."""
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs: dict[str, object] = {}
        for raw in docs:
            for key, value in raw.items():
                if key in _LIST_TYPES and not _is_list_of(value, _LIST_TYPES[key][0]):
                    raise ValueError(f"config key {key!r} needs a list of {_LIST_TYPES[key][1]}, got {value!r}")
                if key == "k_range":
                    if len(value) != 2:  # type: ignore[arg-type]
                        raise ValueError(f"config key 'k_range' needs [k_min, k_max], got {value!r}")
                    kwargs["k_min"], kwargs["k_max"] = value  # type: ignore[misc]
                    continue
                if key not in known:
                    raise ValueError(f"unknown config key: {key!r}")
                if key in _SCALAR_TYPES and not _has_type(value, _SCALAR_TYPES[key][0]):
                    raise ValueError(f"config key {key!r} needs {_SCALAR_TYPES[key][1]}, got {value!r}")
                kwargs[key] = value
            bounds = [key for key in ("k_min", "k_max") if key in raw]
            if "k_range" in raw and bounds:
                raise ValueError(f"config keys 'k_range' and {' and '.join(map(repr, bounds))} both set the k range")
        if "datasets" in kwargs:
            kwargs["datasets"] = tuple(kwargs["datasets"])  # type: ignore[arg-type]
        for key in ("estimators", "algorithms", "classifiers"):
            if key in kwargs:
                kwargs[key] = tuple(v.upper() for v in kwargs[key])  # type: ignore[union-attr]
        if "alpha_grid" in kwargs:
            kwargs["alpha_grid"] = tuple(float(a) for a in kwargs["alpha_grid"])  # type: ignore[union-attr]
        if "tie_breaker_map" in kwargs:
            tie_map = kwargs["tie_breaker_map"]
            if not isinstance(tie_map, Mapping) or not all(_is_list_of(v, (str,)) for v in tie_map.values()):
                raise ValueError(f"config key 'tie_breaker_map' needs a list of strings per estimator, got {tie_map!r}")
            upper: dict[str, tuple[str, ...]] = {}
            for k, vals in tie_map.items():
                est = str(k).upper()
                if est in upper:
                    raise ValueError(f"config key 'tie_breaker_map' repeats {est!r}")
                upper[est] = tuple(v.upper() for v in vals)
            kwargs["tie_breaker_map"] = upper
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclasses.dataclass(frozen=True)
class _Task:
    """One selection cell of a dataset: everything but the classifier axis."""

    algorithm: str
    variant: str
    estimator: str
    k: int
    alpha: float | None

    def cell(self, dataset: str, classifier: str, seed: int) -> dict:
        """Record fields naming this task's cell on a dataset for one classifier."""
        values = (dataset, self.algorithm, self.variant, self.estimator, classifier, self.k, self.alpha, seed)
        return dict(zip(CELL_KEY_FIELDS, values))


def _subset_dataset(d: Dataset, rows: np.ndarray, features: np.ndarray, tag: str) -> Dataset:
    """Dataset restricted to the given rows, with labels compacted so the
    constructor's every-class-present invariant holds."""
    labels = d.labels[rows]
    present = np.unique(labels)
    remap = np.full(d.n_classes, -1, dtype=np.int64)
    remap[present] = np.arange(present.size)
    return Dataset(
        name=f"{d.name}{tag}",
        features=features,
        feature_names=d.feature_names,
        labels=remap[labels],
        class_names=tuple(d.class_names[c] for c in present),
    )


def _tasks(config: SweepConfig, ks: range) -> list[tuple[_Task, dict]]:
    """Every dataset's selection cells in run order, with the settings their
    records store, which a resumed sweep must match."""
    keys = ("n_folds", "scale", "scale_per_fold", "select_per_fold", "mi_bins", "beta", "k_neighbors")
    base = {key: getattr(config, key) for key in keys}
    tasks: list[tuple[_Task, dict]] = []
    for algo in config.algorithms:
        if algo == KBEST:
            for est in config.estimators:
                tasks.extend((_Task(KBEST, "", est, k, None), base) for k in ks)
        elif algo == KGROUPS:
            for est in config.estimators:
                settings = {**base, "tie_breakers": list(config.tie_breaker_map.get(est, ()))}
                for alpha in config.alpha_grid:
                    tasks.extend((_Task(KGROUPS, f"alpha={alpha:g}", est, k, alpha), settings) for k in ks)
        else:
            est, form, _, meann = MRMR_VARIANTS[algo]
            name = MRMR_D if form == DIFFERENCE else MRMR_Q
            settings = {**base, "mean_normalized": meann}
            tasks.extend((_Task(name, algo, est, k, None), settings) for k in ks)
    return tasks


def _check_folds(config: SweepConfig, d: Dataset, folds: FoldPlan) -> None:
    """Check that every fold's training rows hold `k_neighbors` rows for KNN
    (else ValueError) and, when selecting per fold, two classes (else DataError)."""
    train = [d.labels[folds.train_rows(f)] for f in range(folds.n_folds)]
    n_train = min(len(labels) for labels in train)
    if KNN in config.classifiers and config.k_neighbors > n_train:
        raise ValueError(f"{d.name}: k_neighbors must lie in [1, {n_train}], got {config.k_neighbors}")
    if config.select_per_fold:
        for f, labels in enumerate(train):
            if np.unique(labels).size < 2:
                raise DataError(f"{d.name}#fold{f}: training rows hold only one class")


def _run_dataset(
    config: SweepConfig,
    d: Dataset,
    folds: FoldPlan,
    pending: Sequence[tuple[_Task, list[str], dict]],
    forest: ForestParams,
) -> Iterator[list[BenchmarkRecord]]:
    """Run one dataset's pending tasks, yielding each task's records."""
    # Keyed by fold, None when selecting on the whole dataset.
    relevance: dict[tuple[str, int | None], tuple[RelevanceVector, float]] = {}
    greedy_runs: dict[tuple[str, int | None], SelectionResult] = {}
    fold_views: dict[int, Dataset] = {}  # training rows of each fold
    greedy_k: dict[str, int] = {}  # largest pending k per variant
    for task, _, _ in pending:
        if task.algorithm in (MRMR_D, MRMR_Q):
            greedy_k[task.variant] = max(greedy_k.get(task.variant, 0), task.k)

    def fold_view(f: int) -> Dataset:
        """Fold f's training rows, standardized on them when scaling per fold."""
        if f not in fold_views:
            rows = folds.train_rows(f)
            x = d.features[rows]
            if config.scale_per_fold:
                (x,) = standardize(x)
            fold_views[f] = _subset_dataset(d, rows, x, f"#fold{f}")
        return fold_views[f]

    def select(task: _Task, fold: int | None) -> tuple[tuple[int, ...], float]:
        """The task's picks in the fold and their thread CPU, relevance included."""
        target = d if fold is None else fold_view(fold)
        if (task.estimator, fold) not in relevance:
            t0 = thread_time()
            vec = relevance_all(target, task.estimator, mi_bins=config.mi_bins, forest=forest)
            relevance[task.estimator, fold] = (vec, thread_time() - t0)
        rel, rel_cpu = relevance[task.estimator, fold]
        if task.algorithm in (MRMR_D, MRMR_Q):
            # One cold run to the largest pending k: the picks for k are its
            # first k picks, and their cost is the CPU spent up to the k-th.
            if (task.variant, fold) not in greedy_runs:
                _, form, red, meann = MRMR_VARIANTS[task.variant]
                greedy_runs[task.variant, fold] = select_mrmr(
                    target, rel, greedy_k[task.variant], form, red,
                    beta=config.beta, mean_normalized=meann, mi_bins=config.mi_bins,
                )
            run = greedy_runs[task.variant, fold]
            return run.selected[: task.k], rel_cpu + run.pick_cpu_seconds[task.k - 1]
        if task.algorithm == KBEST:
            result = select_kbest(rel, task.k)
        else:
            result = select_kgroups(
                target,
                rel,
                task.k,
                task.alpha,
                config.tie_breaker_map.get(task.estimator, ()),
                mi_bins=config.mi_bins,
                forest=forest,
            )
        return result.selected, rel_cpu + result.cpu_time_seconds

    for task, classifiers, settings in pending:
        if config.select_per_fold:
            # Stricter protocol: no row a fold scores on helps select its subset.
            picks = [select(task, f) for f in range(folds.n_folds)]
        else:
            picks = [select(task, None)]
        subsets = [sel for sel, _ in picks]
        n_selected = int(round(float(np.mean([len(sel) for sel in subsets]))))
        selection_cpu = sum(cpu for _, cpu in picks)
        batch = []
        for clf in classifiers:
            t1 = thread_time()
            mean, sd = cross_validate(
                d,
                subsets if config.select_per_fold else subsets[0],
                clf,
                folds,
                scale_per_fold=config.scale_per_fold,
                k_neighbors=config.k_neighbors,
                forest=forest,
            )
            batch.append(
                BenchmarkRecord(
                    **task.cell(d.name, clf, config.seed),
                    settings=settings,
                    n_selected=n_selected,
                    cv_mean_accuracy=mean,
                    cv_sd=sd,
                    selection_cpu_seconds=selection_cpu,
                    training_cpu_seconds=thread_time() - t1,
                )
            )
        yield batch


def run_sweep(config: SweepConfig, stats: dict | None = None) -> Iterator[BenchmarkRecord]:
    """Run the sweep, appending records to <output_dir>/records.jsonl.

    Yields each newly produced record; cells already present in the output
    file are skipped, so re-running an interrupted sweep adds no duplicates.
    A record's `selection_cpu_seconds` is its relevance estimation plus a
    cold selection of k features, whatever order the cells run in.  Its
    `training_cpu_seconds` is not cold in that sense: every RF
    cross-validation after the first per (seed, trees) in the process reads
    warm shared PCG64 streams.  Selection costs never read them.
    `stats`, when given, is filled with counters (cells skipped and run).
    A dataset that cannot be loaded stops the sweep before anything is
    written, with load_csv's DataError or OSError.  So does stored output
    whose config.json names another label column than `config`, with a
    DataError.
    """
    config.validate()
    if stats is None:
        stats = {}
    stats.setdefault("cells_skipped", 0)
    stats.setdefault("cells_run", 0)

    out_dir = Path(config.output_dir)
    records_path = out_dir / "records.jsonl"
    previous, keep = read_for_resume(records_path)
    existing = {r.cell_key(): r.settings for r in previous}
    config_path = out_dir / "config.json"
    if previous and config_path.exists():
        # Records do not store their label column; the config.json beside them does.
        try:
            stored = json.loads(config_path.read_text(encoding="utf-8")).get("label_column")
        except (ValueError, AttributeError) as exc:
            raise DataError(f"{config_path} is not a sweep config: {exc}") from None
        # An index matches whether stored as 0 or "0".
        if (stored is None, str(stored)) != (config.label_column is None, str(config.label_column)):
            raise DataError(f"{records_path} holds records computed with label column {stored!r}, not "
                            f"{config.label_column!r}; rerun with that column or another output directory")

    datasets: list[Dataset] = []
    for path in config.datasets:
        d = load_csv(path, label_column=config.label_column)
        datasets.append(standard_scale(d) if config.scale else d)

    smallest = min(d.n_cols for d in datasets)
    k_lo, k_hi = max(config.k_min, 1), min(config.k_max, smallest)
    if k_lo > k_hi:
        raise ValueError(
            f"k range [{config.k_min}, {config.k_max}] holds no k in [1, {smallest}] "
            f"(smallest dataset has {smallest} features)"
        )
    if (k_lo, k_hi) != (config.k_min, config.k_max):
        log.warning(
            "k range [%d, %d] clamped to [%d, %d] (smallest dataset has %d features)",
            config.k_min, config.k_max, k_lo, k_hi, smallest,
        )

    tasks = _tasks(config, range(k_lo, k_hi + 1))
    plans: list[tuple[Dataset, FoldPlan, list[tuple[_Task, list[str], dict]]]] = []
    for d in datasets:
        pending = []
        for task, settings in tasks:
            todo = []
            for clf in config.classifiers:
                cell = task.cell(d.name, clf, config.seed)
                stored = existing.get(tuple(cell.values()))
                if stored is None:
                    todo.append(clf)
                elif stored != settings:
                    # Skipping this cell would leave a record that config.json
                    # no longer describes.
                    differ = "; ".join(
                        f"{key} {stored.get(key)!r} stored, {settings.get(key)!r} now"
                        for key in sorted(stored.keys() | settings.keys())
                        if stored.get(key) != settings.get(key)
                    )
                    raise DataError(
                        f"{records_path} holds cell {cell} computed under other settings "
                        f"({differ}); rerun with the stored settings or another output directory"
                    )
            stats["cells_skipped"] += len(config.classifiers) - len(todo)
            if todo:
                pending.append((task, todo, settings))
        folds = make_folds(d, config.n_folds, config.seed)
        _check_folds(config, d, folds)
        plans.append((d, folds, pending))

    log.info(
        "sweep: %d datasets, %d cells pending, %d skipped",
        len(datasets), sum(len(pending) for _, _, pending in plans), stats["cells_skipped"],
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path.write_text(
        json.dumps(config.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    forest = ForestParams(seed=config.seed)
    with appending(records_path, keep) as append:
        for d, folds, pending in plans:
            for batch in _run_dataset(config, d, folds, pending, forest):
                append(batch)
                stats["cells_run"] += len(batch)
                yield from batch

