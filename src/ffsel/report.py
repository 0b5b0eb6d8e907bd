"""Report tables from benchmark records, each a list of rows."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .records import BenchmarkRecord
from .selectors import MRMR_D, MRMR_Q

__all__ = ["REPORT_COLUMNS", "algorithm_label", "best_config_report", "n_selected_distributions"]

# The columns of each `best_config_report` table, in row-key order; a CSV
# of a table with no rows still carries this header.
REPORT_COLUMNS: dict[str, tuple[str, ...]] = {
    "best_overall": (
        "dataset", "estimator", "algorithm", "best_accuracy", "cv_sd_across_folds",
        "k", "alpha", "classifier", "n_selected",
    ),
    "per_classifier_best": (
        "dataset", "estimator", "algorithm", "classifier", "best_accuracy", "k", "alpha", "n_selected",
    ),
    "per_classifier_summary": (
        "dataset", "estimator", "algorithm", "mean_best_accuracy", "sd_across_classifiers", "n_classifiers",
    ),
    "pairwise_wins": ("estimator", "algorithm_a", "algorithm_b", "wins_a", "wins_b", "draws"),
}


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


def _by_classifier(records: Iterable[BenchmarkRecord]) -> dict[tuple[str, str, str, str], list[BenchmarkRecord]]:
    """Records grouped by (dataset, estimator, algorithm label, classifier), in key order."""
    groups: dict[tuple[str, str, str, str], list[BenchmarkRecord]] = {}
    for rec in records:
        key = (rec.dataset, rec.estimator, algorithm_label(rec), rec.classifier)
        groups.setdefault(key, []).append(rec)
    return {key: groups[key] for key in sorted(groups)}


def best_config_report(records: Iterable[BenchmarkRecord]) -> dict[str, list[dict]]:
    """Aggregate records into best-configuration and win/draw tables.

    Each row maps its table's `REPORT_COLUMNS` to values, in that order.
    Accuracies are compared for wins and draws after rounding to two
    decimals of percent.  Among equal-accuracy cells the smallest k (then
    smallest alpha) is reported.
    """
    groups = _by_classifier(records)
    if not groups:
        raise ValueError("no records to report on")
    tables: dict[str, list[dict]] = {name: [] for name in REPORT_COLUMNS}

    def add(name: str, *values) -> None:
        tables[name].append(dict(zip(REPORT_COLUMNS[name], values, strict=True)))

    bests: dict[tuple[str, str, str], list[BenchmarkRecord]] = {}  # one per classifier
    for (dataset, estimator, label, clf), cells in groups.items():
        best = _pick_best(cells)
        bests.setdefault((dataset, estimator, label), []).append(best)
        add(
            "per_classifier_best", dataset, estimator, label, clf,
            best.cv_mean_accuracy, best.k, best.alpha, best.n_selected,
        )

    # Each (estimator, label)'s best accuracy per dataset, rounded for the
    # win/draw tally.
    rounded: dict[tuple[str, str], dict[str, float]] = {}
    for (dataset, estimator, label), clf_bests in bests.items():
        best = _pick_best(clf_bests)
        add(
            "best_overall", dataset, estimator, label, best.cv_mean_accuracy, best.cv_sd,
            best.k, best.alpha, best.classifier, best.n_selected,
        )
        arr = np.asarray([r.cv_mean_accuracy for r in clf_bests])
        add(
            "per_classifier_summary", dataset, estimator, label,
            float(arr.mean()), float(arr.std()), int(arr.size),
        )
        rounded.setdefault((estimator, label), {})[dataset] = round(100 * best.cv_mean_accuracy, 2)

    # Win/draw tallies between algorithm labels sharing an estimator, over
    # the datasets both labels have records on.
    for (estimator, a), (other, b) in itertools.combinations(sorted(rounded), 2):
        if other == estimator:
            ra, rb = rounded[estimator, a], rounded[estimator, b]
            shared = ra.keys() & rb.keys()
            wins_a = sum(ra[ds] > rb[ds] for ds in shared)
            wins_b = sum(ra[ds] < rb[ds] for ds in shared)
            add("pairwise_wins", estimator, a, b, wins_a, wins_b, len(shared) - wins_a - wins_b)
    return tables


def n_selected_distributions(records: Iterable[BenchmarkRecord]) -> list[dict]:
    """Boxplot-ready n_selected distributions per classifier and algorithm."""
    return [
        {
            "dataset": dataset,
            "estimator": estimator,
            "algorithm": label,
            "classifier": clf,
            "n_selected": [
                r.n_selected for r in sorted(cells, key=lambda r: (r.k, _alpha_key(r.alpha)))
            ],
        }
        for (dataset, estimator, label, clf), cells in _by_classifier(records).items()
    ]
