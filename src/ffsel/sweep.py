"""Benchmark sweep over datasets, estimators, selectors, and classifiers.

Produces one JSON-lines record per (dataset, estimator, algorithm variant,
k, classifier) cell.  Relevance vectors and redundancy caches are computed
once per dataset and estimator, then shared across every k and alpha.  An
interrupted sweep resumes by skipping cells already present in the output.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .classifiers import CLASSIFIERS, GNB, KNN, RF, classify
from .data import DataError, Dataset, FoldPlan, load_csv, make_folds, standard_scale
from .evaluate import CELL_KEY_FIELDS, BenchmarkRecord, _scale_blocks, accuracy, cross_validate
from .forest import ForestParams
from .relevance import (
    COSINE,
    DEFAULT_MI_BINS,
    ESTIMATORS,
    FVALUE,
    GINI,
    MI,
    RedundancyCache,
    relevance_all,
)
from .selectors import (
    DIFFERENCE,
    KBEST,
    KGROUPS,
    MRMR_D,
    MRMR_Q,
    MRMR_VARIANTS,
    select_kbest,
    select_kgroups,
    select_mrmr,
)
from .timing import thread_cpu_time

__all__ = [
    "SweepConfig",
    "WORKERS_ENV",
    "run_sweep",
    "read_records",
    "algorithm_label",
    "best_config_report",
    "n_selected_distributions",
]

log = logging.getLogger("ffsel.sweep")

# Environment variable controlling the sweep's worker-pool size.
WORKERS_ENV = "FFSEL_WORKERS"

# The default study runs every named variant but the last two, RFCD and MIFS.
DEFAULT_ALGORITHMS = (KBEST, *list(MRMR_VARIANTS)[:5], KGROUPS)
DEFAULT_ALPHA_GRID = (0.3, 0.5, 0.7, 1.0, 1.3, 1.5, 1.7)
DEFAULT_TIE_BREAKERS: dict[str, tuple[str, ...]] = {
    MI: (COSINE,),
    FVALUE: (MI,),
    GINI: (MI,),
}


def _default_tie_breakers() -> dict[str, tuple[str, ...]]:
    return dict(DEFAULT_TIE_BREAKERS)


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
        default_factory=_default_tie_breakers
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
        if self.k_min > self.k_max:
            raise ValueError(f"empty k range [{self.k_min}, {self.k_max}]")
        if any(a <= 0 for a in self.alpha_grid):
            raise ValueError("alpha values must be > 0")
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
            for tb in breakers:
                if tb not in ESTIMATORS:
                    raise ValueError(f"unknown tie-breaker estimator: {tb!r}")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")
        if self.mi_bins < 1:
            raise ValueError(f"mi_bins must be >= 1, got {self.mi_bins}")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")

    def as_dict(self) -> dict:
        row = dataclasses.asdict(self)
        row["tie_breaker_map"] = {k: list(v) for k, v in self.tie_breaker_map.items()}
        return row

    @classmethod
    def from_mapping(cls, raw: Mapping[str, object]) -> "SweepConfig":
        """Build a config from a parsed key-value document (e.g. JSON)."""
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs: dict[str, object] = {}
        for key, value in raw.items():
            if key == "k_range":
                lo, hi = value  # type: ignore[misc]
                kwargs["k_min"] = int(lo)
                kwargs["k_max"] = int(hi)
                continue
            if key not in known:
                raise ValueError(f"unknown config key: {key!r}")
            kwargs[key] = value
        if "datasets" in kwargs:
            kwargs["datasets"] = tuple(str(p) for p in kwargs["datasets"])  # type: ignore[union-attr]
        for key in ("estimators", "algorithms", "classifiers"):
            if key in kwargs:
                kwargs[key] = tuple(str(v).upper() for v in kwargs[key])  # type: ignore[union-attr]
        if "alpha_grid" in kwargs:
            kwargs["alpha_grid"] = tuple(float(a) for a in kwargs["alpha_grid"])  # type: ignore[union-attr]
        if "tie_breaker_map" in kwargs:
            kwargs["tie_breaker_map"] = {
                str(k).upper(): tuple(str(v).upper() for v in vals)
                for k, vals in kwargs["tie_breaker_map"].items()  # type: ignore[union-attr]
            }
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclasses.dataclass(frozen=True)
class _Task:
    """One selection cell: everything but the classifier axis."""

    d: Dataset
    algorithm: str
    variant: str
    estimator: str
    k: int
    alpha: float | None
    mrmr: tuple[str, str, bool] | None  # form, redundancy, mean_normalized

    def cell(self, classifier: str, seed: int) -> dict:
        """Record fields naming this task's cell for one classifier."""
        return {
            "dataset": self.d.name,
            "algorithm": self.algorithm,
            "variant": self.variant,
            "estimator": self.estimator,
            "classifier": classifier,
            "k": self.k,
            "alpha": self.alpha,
            "seed": seed,
        }


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        log.warning("ignoring invalid %s=%r; using 1 worker", WORKERS_ENV, raw)
        return 1


def _records_in(path: Path, *, skip_malformed: bool) -> Iterator[BenchmarkRecord]:
    """Records of a JSON-lines file, raising DataError on a line that is not one.

    With `skip_malformed`, a line that is not JSON (an interrupted write) is
    logged and skipped instead.
    """
    with path.open(encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                if not skip_malformed:
                    raise DataError(f"{path} line {n} is not valid JSON: {exc}") from None
                log.warning("ignoring malformed line %d of %s (interrupted write?)", n, path)
                continue
            try:
                rec = BenchmarkRecord.from_dict(row)
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path} line {n} is not a benchmark record: {exc}") from None
            yield rec


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


def run_sweep(config: SweepConfig, stats: dict | None = None) -> Iterator[BenchmarkRecord]:
    """Run the sweep, appending records to <output_dir>/records.jsonl.

    Yields each newly produced record; cells already present in the output
    file are skipped, so re-running an interrupted sweep adds no duplicates.
    `stats`, when given, is filled with counters (relevance estimations,
    cells skipped/run) that tests use to assert the reuse contract.
    """
    config.validate()
    if stats is None:
        stats = {}
    stats.setdefault("relevance_estimations", 0)
    stats.setdefault("cells_skipped", 0)
    stats.setdefault("cells_run", 0)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.jsonl"
    existing: set[tuple] = set()
    if records_path.exists():
        existing = {r.cell_key() for r in _records_in(records_path, skip_malformed=True)}
    config_path = out_dir / "config.json"
    config_path.write_text(
        json.dumps(config.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    datasets: list[Dataset] = []
    for path in config.datasets:
        try:
            d = load_csv(path, label_column=config.label_column)
        except (DataError, OSError) as exc:
            log.error("skipping dataset %s: %s", path, exc)
            continue
        datasets.append(standard_scale(d) if config.scale else d)
    stats["datasets_loaded"] = len(datasets)
    if not datasets:
        log.error("no loadable datasets; nothing to do")
        return

    k_lo, k_hi = config.k_min, config.k_max
    smallest = min(d.n_cols for d in datasets)
    if k_lo < 1 or k_hi > smallest:
        new_lo, new_hi = max(k_lo, 1), min(k_hi, smallest)
        log.warning(
            "k range [%d, %d] clamped to [%d, %d] (smallest dataset has %d features)",
            k_lo, k_hi, new_lo, new_hi, smallest,
        )
        k_lo, k_hi = new_lo, new_hi
    if k_lo > k_hi:
        log.error("k range empty after clamping; nothing to do")
        return
    ks = range(k_lo, k_hi + 1)

    folds = {d.name: make_folds(d, config.n_folds, config.seed) for d in datasets}
    forest = ForestParams(seed=config.seed)

    tasks: list[_Task] = []
    needed_relevance: list[tuple[str, str]] = []

    def note(pair: tuple[str, str]) -> None:
        if pair not in needed_relevance:
            needed_relevance.append(pair)

    for d in datasets:
        for algo in config.algorithms:
            if algo == KBEST:
                for est in config.estimators:
                    note((d.name, est))
                    tasks.extend(_Task(d, KBEST, "", est, k, None, None) for k in ks)
            elif algo == KGROUPS:
                for est in config.estimators:
                    note((d.name, est))
                    for alpha in config.alpha_grid:
                        tasks.extend(
                            _Task(d, KGROUPS, f"alpha={alpha:g}", est, k, alpha, None)
                            for k in ks
                        )
            else:
                est, form, red, meann = MRMR_VARIANTS[algo]
                note((d.name, est))
                name = MRMR_D if form == DIFFERENCE else MRMR_Q
                tasks.extend(
                    _Task(d, name, algo, est, k, None, (form, red, meann)) for k in ks
                )

    by_name = {d.name: d for d in datasets}
    relevance: dict[tuple[str, str], tuple] = {}
    if not config.select_per_fold:
        for dname, est in needed_relevance:
            t0 = thread_cpu_time()
            vec = relevance_all(by_name[dname], est, mi_bins=config.mi_bins, forest=forest)
            relevance[(dname, est)] = (vec, thread_cpu_time() - t0)
            stats["relevance_estimations"] += 1

    caches: dict[tuple[str, str], RedundancyCache] = {}
    for task in tasks:
        if task.mrmr is not None:
            key = (task.d.name, task.mrmr[1])
            if key not in caches:
                caches[key] = RedundancyCache(
                    by_name[task.d.name], task.mrmr[1], mi_bins=config.mi_bins
                )

    base_settings = {
        "n_folds": config.n_folds,
        "scale": config.scale,
        "scale_per_fold": config.scale_per_fold,
        "select_per_fold": config.select_per_fold,
        "mi_bins": config.mi_bins,
        "beta": config.beta,
        "k_neighbors": config.k_neighbors,
    }

    def run_selection(d: Dataset, task: _Task, rel, sub: Dataset | None = None):
        target = sub if sub is not None else d
        if task.algorithm == KBEST:
            return select_kbest(rel, task.k)
        if task.algorithm == KGROUPS:
            return select_kgroups(
                target,
                rel,
                task.k,
                task.alpha,
                config.tie_breaker_map.get(task.estimator, ()),
                mi_bins=config.mi_bins,
                forest=forest,
            )
        form, red, meann = task.mrmr
        cache = caches[(d.name, red)] if sub is None else None
        return select_mrmr(
            target,
            rel,
            task.k,
            form,
            red,
            beta=config.beta,
            mean_normalized=meann,
            cache=cache,
            mi_bins=config.mi_bins,
        )

    def cell_settings(task: _Task) -> dict:
        settings = dict(base_settings)
        if task.mrmr is not None:
            settings["mean_normalized"] = task.mrmr[2]
        if task.algorithm == KGROUPS:
            settings["tie_breakers"] = list(
                config.tie_breaker_map.get(task.estimator, ())
            )
        return settings

    def record(task: _Task, clf: str, settings: dict, **measured) -> BenchmarkRecord:
        return BenchmarkRecord(**task.cell(clf, config.seed), settings=settings, **measured)

    def run_cell(task: _Task, classifiers: Sequence[str]) -> list[BenchmarkRecord]:
        d = task.d
        settings = cell_settings(task)
        if config.select_per_fold:
            return run_cell_per_fold(task, classifiers, settings)
        rel, rel_cpu = relevance[(d.name, task.estimator)]
        t0 = thread_cpu_time()
        result = run_selection(d, task, rel)
        selection_cpu = rel_cpu + (thread_cpu_time() - t0)
        out = []
        for clf in classifiers:
            t1 = thread_cpu_time()
            mean, sd = cross_validate(
                d,
                result.selected,
                clf,
                folds[d.name],
                scale_per_fold=config.scale_per_fold,
                k_neighbors=config.k_neighbors,
                forest=forest,
            )
            out.append(
                record(
                    task,
                    clf,
                    settings,
                    n_selected=result.n_selected,
                    cv_mean_accuracy=mean,
                    cv_sd=sd,
                    selection_cpu_seconds=selection_cpu,
                    training_cpu_seconds=thread_cpu_time() - t1,
                )
            )
        return out

    def run_cell_per_fold(
        task: _Task, classifiers: Sequence[str], settings: dict
    ) -> list[BenchmarkRecord]:
        # Stricter protocol: estimate and select inside each fold's training
        # rows only, then score that fold with its own subset.
        d = task.d
        plan = folds[d.name]
        selection_cpu = 0.0
        n_sel: list[int] = []
        accs = {clf: [] for clf in classifiers}
        train_cpu = {clf: 0.0 for clf in classifiers}
        for f in range(plan.n_folds):
            train_rows = plan.train_rows(f)
            test_rows = plan.fold_rows(f)
            train_x = d.features[train_rows]
            test_x = d.features[test_rows]
            if config.scale_per_fold:
                train_x, test_x = _scale_blocks(train_x, test_x)
            t0 = thread_cpu_time()
            sub = _subset_dataset(d, train_rows, train_x, f"#fold{f}")
            rel = relevance_all(sub, task.estimator, mi_bins=config.mi_bins, forest=forest)
            stats["fold_relevance_estimations"] = (
                stats.get("fold_relevance_estimations", 0) + 1
            )
            result = run_selection(d, task, rel, sub=sub)
            selection_cpu += thread_cpu_time() - t0
            sel = np.asarray(result.selected, dtype=np.int64)
            n_sel.append(result.n_selected)
            for clf in classifiers:
                t1 = thread_cpu_time()
                preds = classify(
                    clf,
                    train_x[:, sel],
                    d.labels[train_rows],
                    test_x[:, sel],
                    n_classes=d.n_classes,
                    k_neighbors=config.k_neighbors,
                    forest=forest,
                )
                accs[clf].append(accuracy(preds, d.labels[test_rows]))
                train_cpu[clf] += thread_cpu_time() - t1
        out = []
        for clf in classifiers:
            arr = np.asarray(accs[clf])
            out.append(
                record(
                    task,
                    clf,
                    settings,
                    n_selected=int(round(float(np.mean(n_sel)))),
                    cv_mean_accuracy=float(arr.mean()),
                    cv_sd=float(arr.std()),
                    selection_cpu_seconds=selection_cpu,
                    training_cpu_seconds=train_cpu[clf],
                )
            )
        return out

    pending: list[tuple[_Task, list[str]]] = []
    for task in tasks:
        todo = [
            clf
            for clf in config.classifiers
            if tuple(task.cell(clf, config.seed)[f] for f in CELL_KEY_FIELDS) not in existing
        ]
        stats["cells_skipped"] += len(config.classifiers) - len(todo)
        if todo:
            pending.append((task, todo))

    workers = _worker_count()
    log.info(
        "sweep: %d datasets, %d cells pending, %d skipped, %d worker(s)",
        len(datasets), len(pending), stats["cells_skipped"], workers,
    )

    with records_path.open("a", encoding="utf-8") as sink:

        def emit(batch: list[BenchmarkRecord]) -> Iterator[BenchmarkRecord]:
            for rec in batch:
                sink.write(json.dumps(rec.as_dict(), separators=(",", ":")) + "\n")
            sink.flush()
            stats["cells_run"] += len(batch)
            yield from batch

        if workers <= 1:
            for task, todo in pending:
                yield from emit(run_cell(task, todo))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_cell, task, todo) for task, todo in pending]
                for fut in futures:  # submission order keeps output deterministic
                    yield from emit(fut.result())


def read_records(path: str | Path) -> list[BenchmarkRecord]:
    """Load benchmark records from a JSON-lines file.

    Raises DataError, naming the file and line, on a line that is not a record.
    """
    return list(_records_in(Path(path), skip_malformed=False))


def algorithm_label(rec: BenchmarkRecord) -> str:
    """Table label: named greedy variants keep their short name."""
    if rec.algorithm in (MRMR_D, MRMR_Q) and rec.variant:
        return rec.variant
    return rec.algorithm


def _alpha_key(alpha: float | None) -> float:
    return -1.0 if alpha is None else alpha


def _pick_best(cells: Sequence[BenchmarkRecord]) -> BenchmarkRecord:
    # Best accuracy; ties resolved toward the smallest k, then smallest
    # alpha, then classifier name, so reports are reproducible.
    return min(
        cells,
        key=lambda r: (-r.cv_mean_accuracy, r.k, _alpha_key(r.alpha), r.classifier),
    )


def best_config_report(records: Iterable[BenchmarkRecord]) -> dict[str, list[dict]]:
    """Aggregate records into best-configuration and win/draw tables.

    Accuracies are compared for wins and draws after rounding to two
    decimals of percent.  Among equal-accuracy cells the smallest k (then
    smallest alpha) is reported.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to report on")

    groups: dict[tuple[str, str, str], list[BenchmarkRecord]] = {}
    for rec in records:
        groups.setdefault((rec.dataset, rec.estimator, algorithm_label(rec)), []).append(rec)

    best_overall = []
    for (dataset, estimator, label) in sorted(groups):
        best = _pick_best(groups[(dataset, estimator, label)])
        best_overall.append(
            {
                "dataset": dataset,
                "estimator": estimator,
                "algorithm": label,
                "best_accuracy": best.cv_mean_accuracy,
                "cv_sd_across_folds": best.cv_sd,
                "k": best.k,
                "alpha": best.alpha,
                "classifier": best.classifier,
                "n_selected": best.n_selected,
            }
        )

    per_classifier_best = []
    per_classifier_summary = []
    for (dataset, estimator, label) in sorted(groups):
        cells = groups[(dataset, estimator, label)]
        bests = []
        for clf in sorted({r.classifier for r in cells}):
            best = _pick_best([r for r in cells if r.classifier == clf])
            bests.append(best.cv_mean_accuracy)
            per_classifier_best.append(
                {
                    "dataset": dataset,
                    "estimator": estimator,
                    "algorithm": label,
                    "classifier": clf,
                    "best_accuracy": best.cv_mean_accuracy,
                    "k": best.k,
                    "alpha": best.alpha,
                    "n_selected": best.n_selected,
                }
            )
        arr = np.asarray(bests)
        per_classifier_summary.append(
            {
                "dataset": dataset,
                "estimator": estimator,
                "algorithm": label,
                "mean_best_accuracy": float(arr.mean()),
                "sd_across_classifiers": float(arr.std()),
                "n_classifiers": int(arr.size),
            }
        )

    # Win/draw tallies between algorithm labels sharing an estimator,
    # accumulated over datasets.
    best_by = {
        (row["dataset"], row["estimator"], row["algorithm"]): row["best_accuracy"]
        for row in best_overall
    }
    contexts: dict[str, set[str]] = {}
    labels_by_est: dict[str, set[str]] = {}
    for dataset, estimator, label in best_by:
        contexts.setdefault(estimator, set()).add(dataset)
        labels_by_est.setdefault(estimator, set()).add(label)
    pairwise = []
    for estimator in sorted(labels_by_est):
        labels = sorted(labels_by_est[estimator])
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                wins_a = wins_b = draws = 0
                for dataset in sorted(contexts[estimator]):
                    acc_a = best_by.get((dataset, estimator, a))
                    acc_b = best_by.get((dataset, estimator, b))
                    if acc_a is None or acc_b is None:
                        continue
                    ra, rb = round(100 * acc_a, 2), round(100 * acc_b, 2)
                    if ra == rb:
                        draws += 1
                    elif ra > rb:
                        wins_a += 1
                    else:
                        wins_b += 1
                pairwise.append(
                    {
                        "estimator": estimator,
                        "algorithm_a": a,
                        "algorithm_b": b,
                        "wins_a": wins_a,
                        "wins_b": wins_b,
                        "draws": draws,
                    }
                )

    return {
        "best_overall": best_overall,
        "per_classifier_best": per_classifier_best,
        "per_classifier_summary": per_classifier_summary,
        "pairwise_wins": pairwise,
    }


def n_selected_distributions(records: Iterable[BenchmarkRecord]) -> list[dict]:
    """Boxplot-ready n_selected distributions per classifier and algorithm."""
    groups: dict[tuple[str, str, str, str], list[BenchmarkRecord]] = {}
    for rec in records:
        key = (rec.dataset, rec.estimator, algorithm_label(rec), rec.classifier)
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups):
        cells = sorted(groups[key], key=lambda r: (r.k, _alpha_key(r.alpha)))
        dataset, estimator, label, clf = key
        rows.append(
            {
                "dataset": dataset,
                "estimator": estimator,
                "algorithm": label,
                "classifier": clf,
                "n_selected": [r.n_selected for r in cells],
            }
        )
    return rows
